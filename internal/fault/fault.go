// Package fault is a deterministic fault-injection framework for the
// lifecycle's background machinery: named injection points threaded
// through the rebuild/migration path fire seeded fault plans that return
// errors, stall (bounded or until cancelled), or panic. The data plane
// (hope.AdaptiveIndex) calls Fire at every checkpoint when an injector is
// installed; production runs pay one nil-check per checkpoint and nothing
// else.
//
// Determinism is the point: a Plan owns a single seeded PRNG, so the same
// seed over the same sequence of checkpoints fires the same faults in the
// same order — a chaos soak that fails replays exactly from its seed. The
// event log (Events) records every fired fault for post-hoc assertions.
//
// # Point namespaces
//
// Injection-point names are namespaced by an optional "op:" prefix — the
// part of the name before the first ':' — so one Plan can target a whole
// subsystem without enumerating (or colliding with) another subsystem's
// points. Two namespaces exist today:
//
//   - "" (no prefix): the adaptive rebuild/migration checkpoints —
//     "build-start", "gathered" (per old tree shard walked, no lock
//     held), "built" (the next generation's trees bulk-built),
//     "mid-replay" (per stripe, every stripe lock held) and "cutover".
//   - "snap": the snapshot VFS checkpoints — "snap:create", "snap:write",
//     "snap:sync", "snap:close", "snap:rename", "snap:remove",
//     "snap:open", "snap:read", "snap:dirsync".
//
// Rule.Point matches a full name exactly; Rule.Op restricts a rule to one
// namespace. A rule with Op "snap" and Point "" fires at every filesystem
// checkpoint and never at a rebuild checkpoint. Op "" (the zero value)
// leaves the namespace unconstrained — existing rebuild-point rules keep
// their meaning, and exact Point names are unambiguous across namespaces
// anyway.
package fault

import (
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// Kind is the failure mode a rule injects.
type Kind uint8

const (
	// None never fires (a disabled rule).
	None Kind = iota
	// Error returns an *Injected error from the checkpoint.
	Error
	// Stall blocks the checkpoint: for Rule.Stall > 0 a bounded sleep,
	// for Rule.Stall < 0 until the cancel channel closes (a wedge only a
	// watchdog can clear).
	Stall
	// Panic panics with the *Injected describing the hit.
	Panic
)

func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case Error:
		return "error"
	case Stall:
		return "stall"
	case Panic:
		return "panic"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Injector decides at each named point whether to inject a fault. Fire
// returns nil to let execution continue, an error to fail the checkpoint,
// or does not return at all (stall until cancelled, panic). Implementations
// must be safe for concurrent use.
type Injector interface {
	Fire(point string, shard int) error
}

// Func adapts a plain function to the Injector interface — the migration
// test hooks that predate fault plans.
type Func func(point string, shard int) error

// Fire implements Injector.
func (f Func) Fire(point string, shard int) error { return f(point, shard) }

// CancelAware is implemented by injectors whose stalls can be woken early.
// The data plane hands the injector its per-rebuild cancel channel before
// migration starts; a watchdog firing closes the channel, and any stalled
// Fire returns so the checkpoint can observe the cancellation.
type CancelAware interface {
	SetCancel(<-chan struct{})
}

// Injected is the error an Error fault returns and the value a Panic fault
// panics with.
type Injected struct {
	Point string
	Shard int
	Kind  Kind
	N     int // cumulative hit count on the matching rule when it fired
}

func (e *Injected) Error() string {
	return fmt.Sprintf("fault: injected %v at %s/%d (hit %d)", e.Kind, e.Point, e.Shard, e.N)
}

// Rule matches checkpoints and decides when and how to fire. The zero
// shard-matcher convention: Shard < 0 matches every shard (checkpoints
// outside any shard report shard -1, which only Shard < 0 rules match).
type Rule struct {
	// Point is the injection-point name; "" matches every point.
	Point string
	// Op restricts the rule to one checkpoint namespace — the part of the
	// point name before the first ':' ("snap" for the snapshot VFS
	// checkpoints, "" for the un-prefixed rebuild checkpoints). The zero
	// value leaves the namespace unconstrained. See the package comment.
	Op string
	// Shard restricts the rule to one shard; any negative value matches
	// all shards.
	Shard int
	// Kind is the failure mode; None disables the rule.
	Kind Kind
	// Prob fires the rule with this per-hit probability (seeded PRNG).
	// With Prob == 0 and Nth == 0 the rule fires on every matching hit.
	Prob float64
	// Nth fires the rule only on the Nth matching hit (1-based),
	// overriding Prob.
	Nth int
	// Stall is the stall duration for Kind == Stall: positive sleeps that
	// long (woken early by cancellation), negative blocks until cancelled.
	Stall time.Duration
	// Once disarms the rule after its first firing.
	Once bool
}

func (r Rule) matches(point string, shard int) bool {
	if r.Kind == None {
		return false
	}
	if r.Op != "" && Namespace(point) != r.Op {
		return false
	}
	if r.Point != "" && r.Point != point {
		return false
	}
	if r.Shard >= 0 && r.Shard != shard {
		return false
	}
	return true
}

// Namespace returns the point name's namespace: the part before the first
// ':' ("snap" for "snap:write"), or "" for an un-prefixed point.
func Namespace(point string) string {
	for i := 0; i < len(point); i++ {
		if point[i] == ':' {
			return point[:i]
		}
	}
	return ""
}

// Event is one fired fault, in firing order.
type Event struct {
	Point string
	Shard int
	Kind  Kind
}

type ruleState struct {
	Rule
	hits  int
	fired bool
}

// Plan is a deterministic seeded fault plan: an Injector driven by a rule
// list and one PRNG. Safe for concurrent use; concurrent checkpoints
// serialize through the plan mutex, so the PRNG consumption order — and
// therefore the fault sequence for a fixed checkpoint order — is a pure
// function of the seed.
type Plan struct {
	mu     sync.Mutex
	rng    *rand.Rand
	rules  []*ruleState
	events []Event
	cancel <-chan struct{}
}

// NewPlan builds a plan over the rules, evaluated in order (the first
// matching rule that decides to fire wins the hit).
func NewPlan(seed int64, rules ...Rule) *Plan {
	p := &Plan{rng: rand.New(rand.NewSource(seed))}
	for _, r := range rules {
		r := r
		p.rules = append(p.rules, &ruleState{Rule: r})
	}
	return p
}

// SetCancel implements CancelAware: stalls in flight (and future ones)
// return early once ch closes.
func (p *Plan) SetCancel(ch <-chan struct{}) {
	p.mu.Lock()
	p.cancel = ch
	p.mu.Unlock()
}

// Disarm clears every rule (the event log survives): the plan keeps
// satisfying the Injector interface but never fires again. A chaos run
// disarms before its final verification rebuild.
func (p *Plan) Disarm() {
	p.mu.Lock()
	p.rules = nil
	p.mu.Unlock()
}

// Events returns a copy of the fired-fault log in firing order.
func (p *Plan) Events() []Event {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]Event(nil), p.events...)
}

// Fired reports how many faults of the kind have fired (any kind when
// k == None).
func (p *Plan) Fired(k Kind) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, e := range p.events {
		if k == None || e.Kind == k {
			n++
		}
	}
	return n
}

// Fire implements Injector.
func (p *Plan) Fire(point string, shard int) error {
	p.mu.Lock()
	var hit *ruleState
	for _, rs := range p.rules {
		if !rs.matches(point, shard) {
			continue
		}
		if rs.Once && rs.fired {
			continue
		}
		rs.hits++
		fire := false
		switch {
		case rs.Nth > 0:
			fire = rs.hits == rs.Nth
		case rs.Prob > 0:
			fire = p.rng.Float64() < rs.Prob
		default:
			fire = true
		}
		if fire {
			hit = rs
			break
		}
	}
	if hit == nil {
		p.mu.Unlock()
		return nil
	}
	hit.fired = true
	p.events = append(p.events, Event{Point: point, Shard: shard, Kind: hit.Kind})
	inj := &Injected{Point: point, Shard: shard, Kind: hit.Kind, N: hit.hits}
	stall, cancel := hit.Stall, p.cancel
	kind := hit.Kind
	p.mu.Unlock()

	switch kind {
	case Error:
		return inj
	case Panic:
		panic(inj)
	case Stall:
		if stall < 0 {
			if cancel == nil {
				return fmt.Errorf("fault: unbounded stall at %s/%d with no cancel channel", point, shard)
			}
			<-cancel
			return nil
		}
		t := time.NewTimer(stall)
		defer t.Stop()
		if cancel != nil {
			select {
			case <-t.C:
			case <-cancel:
			}
		} else {
			<-t.C
		}
		return nil
	}
	return nil
}
