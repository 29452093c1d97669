package fault

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// drive fires a fixed checkpoint sequence and returns the event log.
func drive(p *Plan, n int) []Event {
	for i := 0; i < n; i++ {
		func() {
			defer func() { recover() }() // swallow injected panics
			_ = p.Fire("gathered", i%4)
		}()
	}
	return p.Events()
}

func TestPlanDeterminism(t *testing.T) {
	mk := func() *Plan {
		return NewPlan(42,
			Rule{Point: "gathered", Shard: -1, Kind: Error, Prob: 0.3},
			Rule{Point: "gathered", Shard: -1, Kind: Panic, Prob: 0.1},
		)
	}
	a := drive(mk(), 200)
	b := drive(mk(), 200)
	if len(a) == 0 {
		t.Fatal("no faults fired in 200 hits at p=0.3")
	}
	if len(a) != len(b) {
		t.Fatalf("same seed, different event counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d diverged: %+v vs %+v", i, a[i], b[i])
		}
	}
	c := drive(NewPlan(43,
		Rule{Point: "gathered", Shard: -1, Kind: Error, Prob: 0.3},
		Rule{Point: "gathered", Shard: -1, Kind: Panic, Prob: 0.1},
	), 200)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical event logs")
	}
}

func TestRuleMatching(t *testing.T) {
	p := NewPlan(1,
		Rule{Point: "cutover", Shard: -1, Kind: Error},
		Rule{Point: "gathered", Shard: 2, Kind: Error},
	)
	if err := p.Fire("build-start", -1); err != nil {
		t.Fatalf("unmatched point fired: %v", err)
	}
	if err := p.Fire("gathered", 1); err != nil {
		t.Fatalf("unmatched shard fired: %v", err)
	}
	err := p.Fire("gathered", 2)
	var inj *Injected
	if !errors.As(err, &inj) || inj.Point != "gathered" || inj.Shard != 2 {
		t.Fatalf("shard-scoped rule: %v", err)
	}
	if err := p.Fire("cutover", -1); err == nil {
		t.Fatal("cutover rule did not fire")
	}
	if got := p.Fired(Error); got != 2 {
		t.Fatalf("Fired(Error) = %d, want 2", got)
	}
}

func TestOpNamespaceMatching(t *testing.T) {
	if got := Namespace("snap:write"); got != "snap" {
		t.Fatalf("Namespace(snap:write) = %q, want snap", got)
	}
	if got := Namespace("gathered"); got != "" {
		t.Fatalf("Namespace(batch) = %q, want \"\"", got)
	}

	// An Op-scoped wildcard fires at every point of its namespace and at
	// none of another namespace's — one plan can soak the snapshot VFS
	// without ever perturbing a concurrent rebuild.
	p := NewPlan(1, Rule{Op: "snap", Shard: -1, Kind: Error})
	if err := p.Fire("gathered", 0); err != nil {
		t.Fatalf("snap-scoped rule fired at a rebuild checkpoint: %v", err)
	}
	if err := p.Fire("cutover", -1); err != nil {
		t.Fatalf("snap-scoped rule fired at a rebuild checkpoint: %v", err)
	}
	for _, pt := range []string{"snap:create", "snap:write", "snap:sync", "snap:rename"} {
		err := p.Fire(pt, -1)
		var inj *Injected
		if !errors.As(err, &inj) || inj.Point != pt {
			t.Fatalf("snap-scoped rule at %s: %v", pt, err)
		}
	}

	// Op composes with Point: both must match.
	p = NewPlan(1, Rule{Op: "snap", Point: "snap:sync", Shard: -1, Kind: Error})
	if err := p.Fire("snap:write", -1); err != nil {
		t.Fatalf("Op+Point rule fired at wrong point: %v", err)
	}
	if err := p.Fire("snap:sync", -1); err == nil {
		t.Fatal("Op+Point rule did not fire at its point")
	}

	// Zero Op leaves the namespace unconstrained (compatibility).
	p = NewPlan(1, Rule{Shard: -1, Kind: Error})
	if err := p.Fire("snap:write", -1); err == nil {
		t.Fatal("unconstrained wildcard must match namespaced points")
	}
}

func TestNthAndOnce(t *testing.T) {
	p := NewPlan(1,
		Rule{Point: "gathered", Shard: -1, Kind: Error, Nth: 3},
	)
	for i := 1; i <= 5; i++ {
		err := p.Fire("gathered", 0)
		if (i == 3) != (err != nil) {
			t.Fatalf("hit %d: err=%v, want fire only on hit 3", i, err)
		}
	}
	p = NewPlan(1, Rule{Point: "gathered", Shard: -1, Kind: Error, Once: true})
	if err := p.Fire("gathered", 0); err == nil {
		t.Fatal("Once rule did not fire on first hit")
	}
	if err := p.Fire("gathered", 0); err != nil {
		t.Fatalf("Once rule fired twice: %v", err)
	}
}

func TestPanicKindPanicsWithInjected(t *testing.T) {
	p := NewPlan(1, Rule{Point: "mid-replay", Shard: -1, Kind: Panic})
	defer func() {
		r := recover()
		inj, ok := r.(*Injected)
		if !ok || inj.Kind != Panic || inj.Point != "mid-replay" {
			t.Fatalf("recovered %v, want *Injected panic fault", r)
		}
	}()
	_ = p.Fire("mid-replay", 3)
	t.Fatal("panic fault did not panic")
}

func TestStallBoundedAndCancel(t *testing.T) {
	p := NewPlan(1, Rule{Point: "gathered", Shard: -1, Kind: Stall, Stall: 10 * time.Millisecond})
	start := time.Now()
	if err := p.Fire("gathered", 0); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 5*time.Millisecond {
		t.Fatalf("bounded stall returned after %v", d)
	}

	// Unbounded stall wakes when the cancel channel closes.
	p = NewPlan(1, Rule{Point: "gathered", Shard: -1, Kind: Stall, Stall: -1})
	cancel := make(chan struct{})
	p.SetCancel(cancel)
	var wg sync.WaitGroup
	wg.Add(1)
	returned := make(chan struct{})
	go func() {
		defer wg.Done()
		_ = p.Fire("gathered", 0)
		close(returned)
	}()
	select {
	case <-returned:
		t.Fatal("unbounded stall returned before cancel")
	case <-time.After(20 * time.Millisecond):
	}
	close(cancel)
	select {
	case <-returned:
	case <-time.After(2 * time.Second):
		t.Fatal("unbounded stall did not wake on cancel")
	}
	wg.Wait()

	// Unbounded stall with no cancel channel is a configuration error,
	// not a hang.
	p = NewPlan(1, Rule{Point: "gathered", Shard: -1, Kind: Stall, Stall: -1})
	if err := p.Fire("gathered", 0); err == nil {
		t.Fatal("unbounded stall without cancel channel returned nil")
	}
}

func TestDisarm(t *testing.T) {
	p := NewPlan(1, Rule{Kind: Error, Shard: -1})
	if err := p.Fire("anything", 0); err == nil {
		t.Fatal("wildcard rule did not fire")
	}
	p.Disarm()
	if err := p.Fire("anything", 0); err != nil {
		t.Fatalf("disarmed plan fired: %v", err)
	}
	if len(p.Events()) != 1 {
		t.Fatal("event log did not survive Disarm")
	}
}

func TestFuncAdapter(t *testing.T) {
	want := errors.New("boom")
	var inj Injector = Func(func(point string, shard int) error {
		if point == "cutover" {
			return want
		}
		return nil
	})
	if err := inj.Fire("gathered", 0); err != nil {
		t.Fatal(err)
	}
	if err := inj.Fire("cutover", -1); err != want {
		t.Fatalf("got %v", err)
	}
}
