package surf

import "bytes"

// MayIntersect reports whether any stored key may lie in [lo, hi), with a
// nil hi leaving the range unbounded above. Like MayContainRange it is
// one-sided: it never answers false when a stored key is in range. It is
// the adapter hope.Index's SuRF backend drives to short-circuit encoded
// range scans before touching the backing run.
func (f *Filter) MayIntersect(lo, hi []byte) bool {
	if hi != nil && bytes.Compare(lo, hi) >= 0 {
		return false
	}
	cand, ok := f.candidate(lo)
	return ok && (hi == nil || bytes.Compare(cand, hi) < 0)
}

// candidate returns a string known to be <= the first stored key K that
// could be >= lo, or ok false when no stored key can be >= lo. The stored
// prefix found by lowerBound truncates K, so it is <= K; Real-mode suffix
// bytes extend it up to the first ambiguous zero. If cand already clears
// a range's upper bound, K does too and the range is definitely empty;
// otherwise the filters err toward true (false positives are allowed).
func (f *Filter) candidate(lo []byte) (cand []byte, ok bool) {
	if f.numKeys == 0 {
		return nil, false
	}
	prefix, leafPos, ok := f.lowerBound(lo)
	if !ok {
		return nil, false
	}
	cand = prefix
	if f.mode == Real && f.suffixLen >= 8 {
		suffix := f.getSuffix(f.leafIndex(leafPos))
		for i := uint(0); i+8 <= f.suffixLen; i += 8 {
			b := byte(suffix >> (f.suffixLen - 8 - i))
			if b == 0 {
				break
			}
			cand = append(cand, b)
		}
	}
	return cand, true
}
