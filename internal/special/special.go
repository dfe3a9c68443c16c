// Package special implements the paper's Section 4 index for special
// uncertain strings: strings with exactly one probabilistic character per
// position (Definition 1). It is a thin wrapper over the shared core engine
// with the identity position mapping — no transformation and no duplicate
// elimination are needed, because distinct text positions are distinct
// original positions.
package special

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/prob"
	"repro/internal/ustring"
)

// String is a special uncertain string: one character per position, each
// with a probability of occurrence in (0, 1].
type String struct {
	Chars []byte
	Probs []float64
	// Corr carries optional character-level correlations with the same
	// semantics as ustring.Correlation.
	Corr []ustring.Correlation
}

// Errors reported by constructors.
var (
	ErrLengthMismatch = errors.New("special: Chars and Probs lengths differ")
	ErrBadProb        = errors.New("special: probability out of (0, 1]")
	ErrNotSpecial     = errors.New("special: uncertain string has a position with multiple choices")
)

// Validate checks the structural invariants.
func (s *String) Validate() error {
	if len(s.Chars) != len(s.Probs) {
		return ErrLengthMismatch
	}
	for i, p := range s.Probs {
		if !(p > 0 && p <= 1+prob.Eps) {
			return fmt.Errorf("%w (position %d, p=%v)", ErrBadProb, i, p)
		}
		if s.Chars[i] == 0 {
			return fmt.Errorf("special: reserved byte 0x00 at position %d", i)
		}
	}
	return nil
}

// Len returns the number of positions.
func (s *String) Len() int { return len(s.Chars) }

// FromUString converts a one-choice-per-position uncertain string.
func FromUString(u *ustring.String) (*String, error) {
	s := &String{
		Chars: make([]byte, u.Len()),
		Probs: make([]float64, u.Len()),
		Corr:  append([]ustring.Correlation(nil), u.Corr...),
	}
	for i, pos := range u.Pos {
		if len(pos) != 1 {
			return nil, fmt.Errorf("%w (position %d has %d)", ErrNotSpecial, i, len(pos))
		}
		s.Chars[i] = pos[0].Char
		s.Probs[i] = pos[0].Prob
	}
	return s, s.Validate()
}

// Index is the Section 4 structure. Unlike the general index it has no
// construction threshold: any τ in (0, 1] can be queried.
type Index struct {
	engine *core.Engine
	src    *String
}

// Build indexes the special uncertain string.
func Build(s *String, opts ...core.Option) (*Index, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	n := s.Len()
	logp := make([]float64, n)
	pos := make([]int32, n)
	for i := range logp {
		logp[i] = prob.Log(s.Probs[i])
		pos[i] = int32(i)
	}
	ix := &Index{src: s}
	var corr func(xStart, length int) float64
	if len(s.Corr) > 0 {
		corr = ix.corrAdjust
	}
	ix.engine = core.NewEngine(core.EngineConfig{
		T:    s.Chars,
		LogP: logp,
		Pos:  pos,
		Key:  pos,
		// Positions are already unique, so duplicate elimination never
		// marks anything; KeySpace=0 skips the bitmap passes entirely.
		KeySpace: 0,
		Corr:     corr,
	})
	return ix, nil
}

// corrAdjust mirrors the general index's correction for the identity
// mapping: the window at text position xStart covers original positions
// [xStart, xStart+length).
func (ix *Index) corrAdjust(xStart, length int) float64 {
	s := ix.src
	adj := 0.0
	for _, c := range s.Corr {
		if c.At < xStart || c.At >= xStart+length || s.Chars[c.At] != c.Char {
			continue
		}
		var corrected float64
		if c.DepAt >= xStart && c.DepAt < xStart+length {
			if s.Chars[c.DepAt] == c.DepChar {
				corrected = c.ProbWhenPresent
			} else {
				corrected = c.ProbWhenAbsent
			}
		} else {
			dp := 0.0
			if s.Chars[c.DepAt] == c.DepChar {
				dp = s.Probs[c.DepAt]
			}
			corrected = dp*c.ProbWhenPresent + (1-dp)*c.ProbWhenAbsent
		}
		adj += prob.Log(corrected) - prob.Log(s.Probs[c.At])
	}
	return adj
}

// Search reports every position where p occurs with probability strictly
// greater than tau, in increasing order.
func (ix *Index) Search(p []byte, tau float64) ([]int, error) {
	hits, err := ix.engine.QueryCosted(p, tau, nil)
	if err != nil || len(hits) == 0 {
		return nil, err
	}
	out := make([]int, len(hits))
	for i, h := range hits {
		out[i] = int(h.Orig)
	}
	sort.Ints(out)
	return out, nil
}

// SearchHits is Search with probabilities, in decreasing probability order.
func (ix *Index) SearchHits(p []byte, tau float64) ([]core.Hit, error) {
	return ix.engine.QueryCosted(p, tau, nil)
}

// OccurrenceProb returns the (correlation-corrected) probability that p
// occurs at position start.
func (ix *Index) OccurrenceProb(p []byte, start int) float64 {
	if start < 0 || start+len(p) > ix.src.Len() || len(p) == 0 {
		return 0
	}
	for k, c := range p {
		if ix.src.Chars[start+k] != c {
			return 0
		}
	}
	return prob.Exp(ix.engine.WindowLogProb(start, len(p)))
}

// Space reports the index memory breakdown.
func (ix *Index) Space() core.SpaceBreakdown { return ix.engine.Space() }

// Bytes is the total footprint.
func (ix *Index) Bytes() int { return ix.Space().Total() }
