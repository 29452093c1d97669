package art

import (
	"bytes"
	"fmt"
	"sort"
	"testing"
)

// TestRangeSeekFromEveryByte drives Range from each of the 256 start bytes
// into Node48 and Node256 fan-outs — at the root and under a shared path
// longer than the inline prefix bytes — and compares every result with a
// sorted model. Start bytes land on present children, absent bytes,
// between two children and past the last one; starts shorter than the
// path, and longer than path plus edge byte, are covered too. Children
// alternate between bare leaves and inner nodes holding a prefix key, so
// the seek descends into both.
func TestRangeSeekFromEveryByte(t *testing.T) {
	path := []byte("sharedpath-0123456789") // > maxStoredPrefix bytes
	cases := []struct {
		name  string
		path  []byte
		kind  kind
		edges func(b int) bool
	}{
		{"node48 at root", nil, kindNode48, func(b int) bool { return b%7 == 3 }},
		{"node256 at root", nil, kindNode256, func(b int) bool { return b%3 != 1 && b < 250 }},
		{"node48 under path", path, kindNode48, func(b int) bool { return b%6 == 1 && b > 5 }},
		{"node256 under path", path, kindNode256, func(b int) bool { return b%4 != 0 }},
	}
	for _, tc := range cases {
		var keys [][]byte
		for b := 0; b < 256; b++ {
			if !tc.edges(b) {
				continue
			}
			k := append(append([]byte{}, tc.path...), byte(b))
			keys = append(keys, k)
			if b%2 == 1 { // an inner child: its prefix key plus two below it
				keys = append(keys, append(append([]byte{}, k...), 'a'), append(append([]byte{}, k...), 'q', 'z'))
			}
		}
		if tc.path != nil {
			// Keys outside the path put the fan-out one level down, behind
			// a compressed path longer than its inline bytes.
			keys = append(keys, []byte("A"), []byte("~tail"))
		}
		sorted := make([]string, len(keys))
		for i, k := range keys {
			sorted[i] = string(k)
		}
		sort.Strings(sorted)

		var starts [][]byte
		for c := 0; c < 256; c++ {
			at := append(append([]byte{}, tc.path...), byte(c))
			starts = append(starts, at,
				append(append([]byte{}, at...), 'a'),
				append(append([]byte{}, at...), 'm'),
				append(append([]byte{}, at...), 0xff))
		}
		for i := 0; i <= len(tc.path); i++ {
			starts = append(starts, tc.path[:i])
			if i > 0 {
				lower := append([]byte{}, tc.path[:i]...)
				lower[i-1]--
				higher := append([]byte{}, tc.path[:i]...)
				higher[i-1]++
				starts = append(starts, lower, append(lower, 0xff), higher)
			}
		}

		for _, build := range []struct {
			name string
			tree func() *Tree
		}{
			{"insert/index", func() *Tree { tr, _ := buildBoth(t, IndexMode, keys); return tr }},
			{"insert/dict", func() *Tree { tr, _ := buildBoth(t, DictMode, keys); return tr }},
			{"bulk/index", func() *Tree {
				ks, vs := sortedUnique(keys)
				return BulkLoad(IndexMode, ks, vs)
			}},
		} {
			tr := build.tree()
			fan := tr.root
			if tc.path != nil {
				fan = findChild(fan, tc.path[0])
			}
			if fan == nil || kindOf(fan) != tc.kind {
				t.Fatalf("%s %s: fan-out node is not the layout under test", tc.name, build.name)
			}
			for _, start := range starts {
				i := sort.SearchStrings(sorted, string(start))
				want := sorted[i:]
				var got []string
				tr.Range(start, nil, false, func(k []byte, _ uint64) bool {
					got = append(got, string(k))
					return true
				})
				if err := sameKeys(got, want); err != nil {
					t.Fatalf("%s %s: Range from %q: %v", tc.name, build.name, start, err)
				}
				if len(start) == 0 {
					continue
				}
				// An upper bound a few children on cuts the seek short.
				hi := bytes.Clone(start)
				hi[len(hi)-1] = byte(min(int(hi[len(hi)-1])+3, 255))
				j := sort.SearchStrings(sorted, string(hi))
				got = got[:0]
				tr.Range(start, hi, false, func(k []byte, _ uint64) bool {
					got = append(got, string(k))
					return true
				})
				if err := sameKeys(got, sorted[i:max(i, j)]); err != nil {
					t.Fatalf("%s %s: Range [%q, %q): %v", tc.name, build.name, start, hi, err)
				}
			}
		}
	}
}

func sameKeys(got, want []string) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d keys, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("key %d is %q, want %q", i, got[i], want[i])
		}
	}
	return nil
}
