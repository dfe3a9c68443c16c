package core

import "repro/internal/factor"

// SignatureBytes is the fixed size of a PairSignature: 512 bits.
const SignatureBytes = 64

// PairSignature is a 512-bit hashed set of the adjacent character pairs of
// a text. Every plain index keeps the signature of its transformed text T,
// so a serving tier can rule a document out before searching it: by
// Lemma 2 every occurrence the index reports is a window of T equal to the
// pattern, so a document whose signature does not cover the pattern's
// signature holds no occurrence at any τ. Hash collisions only set extra
// bits, which can let a document through but never rule out one that
// matches; correlations only re-weight windows already in T.
type PairSignature [SignatureBytes / 8]uint64

// PatternSignature hashes every adjacent pair of p that touches no
// factor.Separator. The plain index applies the same function to its
// transformed text, where skipping the separator keeps the pairs that
// straddle two factors — windows no pattern can match — out of the set.
func PatternSignature(p []byte) PairSignature {
	var s PairSignature
	for i := 1; i < len(p); i++ {
		a, b := p[i-1], p[i]
		if a == factor.Separator || b == factor.Separator {
			continue
		}
		// Multiplicative hash of the 16-bit pair; the top 9 bits of the
		// 32-bit product pick one of the 512 bits.
		bit := (uint32(a)<<8 | uint32(b)) * 0x9E3779B1 >> 23
		s[bit>>6] |= 1 << (bit & 63)
	}
	return s
}

// Covers reports whether every bit of q is set in s: false proves that the
// text behind s holds no window with q's pairs.
func (s *PairSignature) Covers(q *PairSignature) bool {
	return q[0]&^s[0]|q[1]&^s[1]|q[2]&^s[2]|q[3]&^s[3]|
		q[4]&^s[4]|q[5]&^s[5]|q[6]&^s[6]|q[7]&^s[7] == 0
}

// SignatureOf returns b's pair signature, or nil when b keeps none — the
// compressed and approx backends, and any other implementation. A nil
// signature means b must always be searched.
func SignatureOf(b Backend) *PairSignature {
	if ix, ok := b.(*Index); ok {
		return &ix.sig
	}
	return nil
}
