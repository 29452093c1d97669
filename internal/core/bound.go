package core

// Bound encoding (range-query support for compressed search trees).
//
// A search tree storing HOPE-encoded keys answers a range query by
// translating the query bounds into encoded space. Every encoder's order
// is strict on the padded bytes the trees store: a < b implies
// Encode(a) < Encode(b) byte-wise (Build widens an all-zero entry-0 code
// to 8 bits and Reassemble refuses a code set without that guard, so no
// code can hide inside the zero padding). A complete-key bound therefore
// translates exactly: Encode(lo) <= Encode(k) < Encode(hi) holds precisely
// when lo <= k < hi.
//
// A prefix needs no construction of its own. The keys starting with p are
// exactly the keys in [p, succ(p)), where succ(p) is the smallest string
// above every continuation of p (p with its trailing 0xff run dropped and
// its last remaining byte incremented; none when p is all 0xff, and the
// range is then unbounded above). Both ends are complete keys, so a prefix
// scan is the range scan [Encode(p), Encode(succ(p))).

// EncodeBound translates one complete-key range bound into encoded space.
// Lower bounds and upper bounds both encode exactly (order preservation
// does the rest); the method exists so callers handling optional bounds do
// not need to special-case nil, which translates to nil (unbounded).
func (e *Encoder) EncodeBound(key []byte) []byte {
	if key == nil {
		return nil
	}
	b, _ := e.EncodeBits(nil, key)
	// A non-nil bound must stay non-nil: the empty key encodes to an empty
	// but present bound, not to "unbounded".
	out := make([]byte, len(b))
	copy(out, b)
	return out
}
