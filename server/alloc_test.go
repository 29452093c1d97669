package server

import (
	"bufio"
	"fmt"
	"io"
	"testing"

	hope "repro"
)

// TestDispatchReplyAllocs pins the reply path's allocations: values and
// hex keys are formatted in the session's reply buffer and the range
// callback is bound once per session, so a 100-key range costs what a
// 1-key range does, and a get reply allocates nothing.
func TestDispatchReplyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts under -race; the store's scans are not allocation-free there")
	}
	st := newStore(t, hope.WithShards(4))
	for i := 0; i < 200; i++ {
		if err := st.Put([]byte(fmt.Sprintf("key-%04d", i)), uint64(i)*1000003); err != nil {
			t.Fatal(err)
		}
	}
	c := New(st, Config{}).newSession(bufio.NewWriterSize(io.Discard, connBufSize), 1)
	allocs := func(line string) float64 {
		req := []byte(line)
		return testing.AllocsPerRun(200, func() {
			if !c.dispatch(req) {
				t.Fatalf("%q closed the session", line)
			}
		})
	}
	one, hundred := allocs("range - - 1"), allocs("range - - 100")
	if hundred != one {
		t.Fatalf("range reply allocations grow with the keys emitted: 1 key %.2f, 100 keys %.2f", one, hundred)
	}
	if get := allocs("get key-0042"); get != 0 {
		t.Fatalf("get reply allocates %.2f/op, want 0", get)
	}
	t.Logf("range dispatch: %.2f allocs for 1 key and for 100", one)
}
