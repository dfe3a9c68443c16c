package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"repro/internal/baseline"
	"repro/internal/server"
	"repro/internal/ustring"
)

// probTol is the tolerance between a reported occurrence probability and
// the oracle's: the index multiplies in the log domain from prefix sums,
// the oracle multiplies the per-position probabilities directly. Positions
// and counts are compared exactly.
const probTol = 1e-9

// answer is the part of a /v1/query, /v1/topk or /v1/count response the
// oracle checks.
type answer struct {
	Count  int          `json:"count"`
	Hits   []server.Hit `json:"hits"`
	Cached bool         `json:"cached"`
}

func decodeAnswer(body []byte) (answer, error) {
	var a answer
	if err := json.Unmarshal(body, &a); err != nil {
		return a, fmt.Errorf("decoding response: %w", err)
	}
	return a, nil
}

// oracleHit is one occurrence as the brute-force oracle sees it.
type oracleHit struct {
	doc, pos int
	prob     float64
}

// occurrences lists every occurrence of p above tau in docs, ordered by
// (document, position): baseline.ListNaive names the documents, then
// baseline.MatchDP the positions inside each.
func occurrences(docs []*ustring.String, p []byte, tau float64) []oracleHit {
	var out []oracleHit
	for _, d := range baseline.ListNaive(docs, p, tau) {
		for _, pos := range baseline.MatchDP(docs[d], p, tau) {
			out = append(out, oracleHit{d, pos, docs[d].OccurrenceProb(p, pos)})
		}
	}
	return out
}

// checkAnswer compares one response body against the oracle over docs
// (numbered as the server numbers them). Search must report exactly the
// oracle's (document, position) sequence and count must equal its size;
// top-k must report real occurrences in non-increasing probability order
// whose probabilities match the oracle's k best above τmin.
func checkAnswer(docs []*ustring.String, q query, body []byte) error {
	a, err := decodeAnswer(body)
	if err != nil {
		return err
	}
	switch q.Op {
	case opCount:
		if want := len(occurrences(docs, q.P, q.Tau)); a.Count != want {
			return fmt.Errorf("count %q τ=%v: got %d, oracle %d", q.P, q.Tau, a.Count, want)
		}
		return nil
	case opSearch:
		want := occurrences(docs, q.P, q.Tau)
		if a.Count != len(a.Hits) || len(a.Hits) != len(want) {
			return fmt.Errorf("search %q τ=%v: got %d hits (count %d), oracle %d", q.P, q.Tau, len(a.Hits), a.Count, len(want))
		}
		for i, h := range a.Hits {
			w := want[i]
			if h.Doc != w.doc || h.Pos != w.pos || math.Abs(h.Prob-w.prob) > probTol {
				return fmt.Errorf("search %q τ=%v: hit %d is (%d,%d,%v), oracle (%d,%d,%v)",
					q.P, q.Tau, i, h.Doc, h.Pos, h.Prob, w.doc, w.pos, w.prob)
			}
		}
		return nil
	}
	return checkTopK(docs, q, a)
}

func checkTopK(docs []*ustring.String, q query, a answer) error {
	want := occurrences(docs, q.P, tauMin)
	sort.SliceStable(want, func(i, j int) bool { return want[i].prob > want[j].prob })
	n := min(q.K, len(want))
	if len(a.Hits) < n || len(a.Hits) > q.K || a.Count != len(a.Hits) {
		return fmt.Errorf("topk %q k=%d: got %d hits (count %d), oracle has %d above τmin",
			q.P, q.K, len(a.Hits), a.Count, len(want))
	}
	for i, h := range a.Hits {
		if h.Doc < 0 || h.Doc >= len(docs) {
			return fmt.Errorf("topk %q k=%d: hit %d names document %d of %d", q.P, q.K, i, h.Doc, len(docs))
		}
		truth := docs[h.Doc].OccurrenceProb(q.P, h.Pos)
		if truth <= 0 || math.Abs(h.Prob-truth) > probTol {
			return fmt.Errorf("topk %q k=%d: hit %d (%d,%d) reports %v, oracle %v", q.P, q.K, i, h.Doc, h.Pos, h.Prob, truth)
		}
		if i > 0 && h.Prob > a.Hits[i-1].Prob {
			return fmt.Errorf("topk %q k=%d: hit %d out of order", q.P, q.K, i)
		}
		if i < n && math.Abs(h.Prob-want[i].prob) > probTol {
			return fmt.Errorf("topk %q k=%d: rank %d has probability %v, oracle %v", q.P, q.K, i, h.Prob, want[i].prob)
		}
	}
	return nil
}
