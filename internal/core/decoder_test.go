package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Decoder is the bit-serial decoder, the oracle the TableDecoder is
// checked against: it reconstructs original keys from encoded bit strings
// of an exact bit length by walking a binary trie over the prefix-free
// code set one bit at a time.
type Decoder struct {
	// nodes[i] = {zero, one, sym}: child indexes (-1 none) and the entry
	// index terminating at this node (-1 none).
	zero, one, sym []int32
	symbols        [][]byte
}

// NewDecoder builds a decoder for the encoder's dictionary.
func NewDecoder(e *Encoder) (*Decoder, error) {
	d := &Decoder{zero: []int32{-1}, one: []int32{-1}, sym: []int32{-1}}
	d.symbols = make([][]byte, len(e.entries))
	for i, ent := range e.entries {
		d.symbols[i] = ent.Boundary[:ent.SymbolLen]
		// Insert the code bits, MSB first.
		cur := int32(0)
		for b := int(ent.Code.Len) - 1; b >= 0; b-- {
			bit := (ent.Code.Bits >> uint(b)) & 1
			next := d.zero[cur]
			if bit == 1 {
				next = d.one[cur]
			}
			if next == -1 {
				d.zero = append(d.zero, -1)
				d.one = append(d.one, -1)
				d.sym = append(d.sym, -1)
				next = int32(len(d.sym) - 1)
				if bit == 1 {
					d.one[cur] = next
				} else {
					d.zero[cur] = next
				}
			}
			cur = next
		}
		if d.sym[cur] != -1 || d.zero[cur] != -1 || d.one[cur] != -1 {
			return nil, fmt.Errorf("core: codes are not prefix-free at entry %d", i)
		}
		d.sym[cur] = int32(i)
	}
	return d, nil
}

// Decode reconstructs the key from bitLen bits of buf (the exact length
// returned by EncodeBits; the padding bits are ignored). On any error —
// a bit length the buffer cannot hold, a code walking off the trie, or a
// sequence ending mid-code — the returned output is nil: corrupt input
// never yields a partially-decoded key.
func (d *Decoder) Decode(buf []byte, bitLen int) ([]byte, error) {
	if bitLen < 0 {
		return nil, fmt.Errorf("core: negative bit length %d", bitLen)
	}
	if bitLen > len(buf)*8 {
		// Compare in bit units: (bitLen+7)/8 would overflow for corrupt
		// bit lengths near MaxInt and let the guard pass.
		return nil, fmt.Errorf("core: bit length %d exceeds %d-byte buffer", bitLen, len(buf))
	}
	var out []byte
	cur := int32(0)
	for i := 0; i < bitLen; i++ {
		bit := (buf[i/8] >> (7 - uint(i)%8)) & 1
		if bit == 1 {
			cur = d.one[cur]
		} else {
			cur = d.zero[cur]
		}
		if cur == -1 {
			return nil, fmt.Errorf("core: invalid code sequence at bit %d", i)
		}
		if s := d.sym[cur]; s != -1 {
			out = append(out, d.symbols[s]...)
			cur = 0
		}
	}
	if cur != 0 {
		return nil, fmt.Errorf("core: truncated code sequence (%d bits)", bitLen)
	}
	return out, nil
}

// TestDecodeCorruptInputAllSchemes feeds every scheme's decoder truncated
// buffers, over-claimed bit lengths and random garbage. Every error path
// must return a nil output — a corrupt code never yields a partial key —
// and no input may panic.
func TestDecodeCorruptInputAllSchemes(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	encs := buildAll(t, nil)
	for s, e := range encs {
		d, err := NewDecoder(e)
		if err != nil {
			t.Fatalf("%v: decoder: %v", s, err)
		}
		out, bits := e.EncodeBits(nil, []byte("com.gmail@alice42"))
		if bits < 9 {
			t.Fatalf("%v: fixture too small", s)
		}

		// Truncated bit length: cutting one bit either errors (mid-code)
		// or, if it lands on a code boundary, decodes a shorter key; both
		// are fine, but an error must come with nil output.
		if got, err := d.Decode(out, bits-1); err != nil && got != nil {
			t.Fatalf("%v: truncated decode returned partial output %q with error %v", s, got, err)
		}

		// Bit length exceeding the buffer must error, not read out of
		// bounds (the buffer genuinely lacks the claimed bits).
		if got, err := d.Decode(out[:len(out)-1], bits); err == nil {
			t.Fatalf("%v: over-claimed bit length accepted (%q)", s, got)
		} else if got != nil {
			t.Fatalf("%v: over-claimed bit length returned partial output", s)
		}
		if got, err := d.Decode(nil, 8); err == nil || got != nil {
			t.Fatalf("%v: empty buffer with positive bit length accepted", s)
		}
		if got, err := d.Decode(out, -3); err == nil || got != nil {
			t.Fatalf("%v: negative bit length accepted", s)
		}
		// A corrupt bit length near MaxInt must not overflow the bounds
		// check into a pass (and then panic in the decode loop).
		if got, err := d.Decode(out, math.MaxInt-3); err == nil || got != nil {
			t.Fatalf("%v: near-MaxInt bit length accepted", s)
		}

		// Garbage bytes with arbitrary claimed lengths: must never panic,
		// and every error must carry a nil output.
		for i := 0; i < 200; i++ {
			buf := make([]byte, rng.Intn(16))
			rng.Read(buf)
			claim := rng.Intn(len(buf)*8 + 24)
			got, err := d.Decode(buf, claim)
			if err != nil && got != nil {
				t.Fatalf("%v: garbage decode returned partial output with error %v", s, err)
			}
		}
	}
}
