package listing

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/ustring"
)

// This file extends the Section 6 index beyond the paper: top-k document
// retrieval (the Hon–Shah–Vitter problem the paper's Section 7 framework
// originates from) and index persistence.

// ListTopK reports the k most relevant documents containing p under the
// RelMax metric, in decreasing relevance order. The per-run document
// deduplication keeps each document's best occurrence visible to the
// range-maximum structures, so the best-first extraction enumerates
// documents in exact relevance order and stops after k.
func (ix *Index) ListTopK(p []byte, k int) ([]Result, error) {
	hits, err := ix.engine.TopKCosted(p, k, nil)
	if err != nil {
		return nil, err
	}
	out := make([]Result, len(hits))
	for i, h := range hits {
		out[i] = Result{Doc: int(h.Key), Rel: h.Prob()}
	}
	return out, nil
}

// ListCount returns the number of documents containing p above tau without
// materialising them.
func (ix *Index) ListCount(p []byte, tau float64) (int, error) {
	if err := core.ValidateQuery(p, tau, ix.tauMin); err != nil {
		return 0, err
	}
	return ix.engine.CountCosted(p, tau, nil)
}

// listingFormat tags the persisted layout.
const listingFormat = 1

type persisted struct {
	Format int
	TauMin float64
	Docs   []*ustring.String
}

// WriteTo serialises the collection index. The documents are stored; the
// transformation and query structures are rebuilt on load (document
// collections are small relative to their transformed indexes, so storing
// the source keeps the format compact and forward-compatible).
func (ix *Index) WriteTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: w}
	err := gob.NewEncoder(cw).Encode(persisted{
		Format: listingFormat,
		TauMin: ix.tauMin,
		Docs:   ix.docs,
	})
	return cw.n, err
}

// ReadIndex loads an index written by WriteTo.
func ReadIndex(r io.Reader) (*Index, error) {
	var p persisted
	if err := gob.NewDecoder(bufio.NewReader(r)).Decode(&p); err != nil {
		return nil, fmt.Errorf("listing: reading index: %w", err)
	}
	if p.Format != listingFormat {
		return nil, fmt.Errorf("listing: unsupported format %d", p.Format)
	}
	return Build(p.Docs, p.TauMin)
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (cw *countingWriter) Write(b []byte) (int, error) {
	n, err := cw.w.Write(b)
	cw.n += int64(n)
	return n, err
}
