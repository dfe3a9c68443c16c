package core

import (
	"fmt"

	"repro/internal/approx"
	"repro/internal/prob"
	"repro/internal/ustring"
)

// ApproxBackend adapts the Section 7 approximate ε-index (internal/approx)
// to the serving tier's Backend contract. It is the one non-exact backend:
// Capabilities declare Exact=false with the construction ε, and every
// threshold answer carries the paper's guarantee — the reported set contains
// every occurrence with true probability > τ, contains nothing with true
// probability ≤ τ−ε, and each reported probability underestimates the truth
// by at most ε.
//
// SearchTopKCosted is rejected with ErrUnsupportedQuery: the ε-index ranks hits
// by their ε-approximate probabilities, so a "top-k" could order hits whose
// true probabilities differ by up to ε arbitrarily — serving layers consult
// Capabilities().TopK and refuse the operation up front instead of
// returning a silently mis-ranked list.
//
// Like the underlying index, the backend does not support character-level
// correlations; Build fails with approx.ErrCorrUnsupported for correlated
// sources.
type ApproxBackend struct {
	ix *approx.Index
}

// BuildApprox builds the approximate backend over s for thresholds ≥ tauMin
// with additive error epsilon (0 means DefaultEpsilon).
func BuildApprox(s *ustring.String, tauMin, epsilon float64) (*ApproxBackend, error) {
	if epsilon == 0 {
		epsilon = DefaultEpsilon
	}
	ix, err := approx.Build(s, tauMin, epsilon)
	if err != nil {
		return nil, err
	}
	return &ApproxBackend{ix: ix}, nil
}

// SearchHitsCosted reports every position where p occurs with probability
// greater than tau, possibly with false positives down to τ−ε, with the
// ε-approximate per-occurrence probabilities (each a lower bound within ε
// of the truth), in increasing position order, accumulating cost counters
// into st (nil records nothing). The Backend contract only fixes the hit
// set; the position order is what the ε-index produces without paying a
// per-query sort.
func (ab *ApproxBackend) SearchHitsCosted(p []byte, tau float64, st *QueryStats) ([]Hit, error) {
	ms, err := ab.search(p, tau, st)
	if err != nil || len(ms) == 0 {
		return nil, err
	}
	hits := make([]Hit, len(ms))
	for i, m := range ms {
		// XPos is a transformed-text coordinate no approx answer carries;
		// -1 marks it absent. Orig and Key are the original position, the
		// only identity the serving tier consumes.
		hits[i] = Hit{XPos: -1, Orig: int32(m.Pos), Key: int32(m.Pos), LogProb: prob.Log(m.ApproxProb)}
	}
	return hits, nil
}

// SearchTopKCosted is not supported by the approximate backend.
func (ab *ApproxBackend) SearchTopKCosted(p []byte, k int, _ *QueryStats) ([]Hit, error) {
	return nil, fmt.Errorf("%w: top-k requires an exact backend, collection uses %q (ε=%g)",
		ErrUnsupportedQuery, BackendApprox, ab.ix.Epsilon())
}

// SearchCountCosted counts occurrences above tau under the same ε guarantee
// as SearchHitsCosted, without materialising positions for the caller,
// accumulating cost counters into st.
func (ab *ApproxBackend) SearchCountCosted(p []byte, tau float64, st *QueryStats) (int, error) {
	ms, err := ab.search(p, tau, st)
	if err != nil {
		return 0, err
	}
	return len(ms), nil
}

// search validates through the core sentinels (so serving layers see the
// same typed errors every backend reports) and delegates to the ε-index's
// prevalidated entry, whose matches arrive already sorted by position. One
// validation pass total — the same count the plain backend pays — keeps the
// per-document fan-out cost identical across backends.
func (ab *ApproxBackend) search(p []byte, tau float64, st *QueryStats) ([]approx.Match, error) {
	if err := ValidateQuery(p, tau, ab.ix.TauMin()); err != nil {
		return nil, err
	}
	ms, examined, steps := ab.ix.SearchPrevalidatedCosted(p, tau)
	st.add(int64(examined), int64(steps),
		int64(examined)*approxLinkBytes+int64(len(p)))
	return ms, nil
}

// TauMin returns the construction threshold.
func (ab *ApproxBackend) TauMin() float64 { return ab.ix.TauMin() }

// Epsilon returns the construction error bound.
func (ab *ApproxBackend) Epsilon() float64 { return ab.ix.Epsilon() }

// Source returns the indexed uncertain string.
func (ab *ApproxBackend) Source() *ustring.String { return ab.ix.Source() }

// Kind reports BackendApprox.
func (ab *ApproxBackend) Kind() string { return BackendApprox }

// Capabilities reports ε-approximate semantics without top-k support.
func (ab *ApproxBackend) Capabilities() Capabilities {
	return Capabilities{Exact: false, Epsilon: ab.ix.Epsilon(), TopK: false}
}

// Bytes is the resident index footprint.
func (ab *ApproxBackend) Bytes() int { return ab.ix.Bytes() }

// Index exposes the wrapped ε-index (used by benchmarks reporting link
// counts).
func (ab *ApproxBackend) Index() *approx.Index { return ab.ix }
