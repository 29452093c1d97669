// Package lifecycle is the control plane of the adaptive dictionary
// lifecycle: the state machine an adaptive index moves through
// (Sampling → Building → Migrating → Steady, with rebuilds looping
// Steady → Building → Migrating → Steady), and the drift tracker that
// decides *when* to move — a reservoir sample of live write traffic plus a
// rolling compression-rate (CPR) estimate compared against the rate the
// serving dictionary achieved on its own build sample.
//
// The package is deliberately index-agnostic: it never touches trees or
// encoders beyond reading lengths and handing out sample snapshots, so the
// same controller could drive any order-preserving-encoded store. The
// mechanism — gathering records into the next generation, its bulk build,
// the change-list replay and the flip — lives with the data plane in the
// hope package (adaptive.go); the policy lives here.
package lifecycle

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// State is one phase of the dictionary lifecycle.
type State int32

const (
	// Sampling: no dictionary yet — the index serves uncompressed while
	// the reservoir accumulates enough keys for the first build (the
	// paper's Section 5 empty-tree integration path).
	Sampling State = iota
	// Steady: a dictionary is serving and no rebuild is in flight.
	Steady
	// Building: a background goroutine is running HOPE's build phase over
	// a reservoir snapshot; traffic is unaffected.
	Building
	// Migrating: a new-generation index is being built from the live
	// records and brought up to date with the writes since; the old
	// generation serves every read and write until the flip.
	Migrating
)

func (s State) String() string {
	switch s {
	case Sampling:
		return "Sampling"
	case Steady:
		return "Steady"
	case Building:
		return "Building"
	case Migrating:
		return "Migrating"
	}
	return fmt.Sprintf("State(%d)", int32(s))
}

// Signal is the tracker's per-observation verdict.
type Signal int

const (
	// None: keep serving.
	None Signal = iota
	// FirstBuild: enough samples accumulated for the initial dictionary.
	FirstBuild
	// Drift: the rolling CPR has fallen below the build-time CPR by more
	// than the configured threshold.
	Drift
)

// Config tunes the lifecycle policy. The zero value is filled with
// defaults by Fill.
type Config struct {
	// ReservoirSize caps the sample the next dictionary is built from
	// (default 4096; 10K–100K saturates CPR per paper Appendix A, smaller
	// keeps rebuild cost low at serving time).
	ReservoirSize int
	// Seed drives the reservoir's RNG (default 1).
	Seed int64
	// BuildAfter is the number of keys observed before the first
	// dictionary build fires in the Sampling state (default 10000).
	BuildAfter int
	// WindowSize is the rolling CPR window in keys (default 8192).
	WindowSize int
	// DriftThreshold is the relative CPR degradation that arms a rebuild:
	// recent < build × (1 − threshold) (default 0.10).
	DriftThreshold float64
	// CheckEvery is how many observations pass between drift evaluations
	// (default 512; checks are cheap but not free).
	CheckEvery int
	// Cooldown is the minimum number of observations between a cutover
	// and the next drift-triggered rebuild, so a rebuild whose sample
	// still reflects a moving distribution cannot thrash (default
	// 2 × WindowSize).
	Cooldown int
	// Stripes is how many ways the tracker's accounting (reservoir + CPR
	// ring) is striped (default 16). Observations round-robin across
	// stripes, each with its own short mutex, so concurrent writers never
	// serialize through one tracker lock; drift checks aggregate the
	// stripes. One stripe restores fully serialized accounting.
	Stripes int

	// RetryBackoff is the base delay before a failed automatic rebuild
	// re-arms (default 1s). The n-th consecutive failure backs off
	// RetryBackoff × 2^(n-1), capped at RetryBackoffMax, with ±RetryJitter
	// relative jitter from the controller's seeded RNG — a failing rebuild
	// must never fire again on the very next drift signal.
	RetryBackoff time.Duration
	// RetryBackoffMax caps the exponential backoff (default 60s).
	RetryBackoffMax time.Duration
	// RetryJitter is the relative jitter applied to each backoff delay,
	// in [0, 1) (default 0.2). Negative disables jitter.
	RetryJitter float64
	// BreakerAfter is the consecutive-failure count that opens the
	// circuit breaker (default 5): the controller reports Degraded,
	// automatic rebuilds are suppressed, and the index keeps serving its
	// current (frozen) dictionary. After the current backoff expires one
	// half-open probe may fire; any successful cutover — probe or explicit
	// Rebuild — closes the breaker. Negative disables the breaker.
	BreakerAfter int
	// Clock overrides the time source for backoff arithmetic (tests);
	// nil uses time.Now.
	Clock func() time.Time
}

// Fill populates zero fields with defaults and returns the config.
func (c Config) Fill() Config {
	if c.ReservoirSize <= 0 {
		c.ReservoirSize = 4096
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.BuildAfter <= 0 {
		c.BuildAfter = 10000
	}
	if c.WindowSize <= 0 {
		c.WindowSize = 8192
	}
	if c.DriftThreshold <= 0 {
		c.DriftThreshold = 0.10
	}
	if c.CheckEvery <= 0 {
		c.CheckEvery = 512
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 2 * c.WindowSize
	}
	if c.Stripes <= 0 {
		c.Stripes = 16
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = time.Second
	}
	if c.RetryBackoffMax <= 0 {
		c.RetryBackoffMax = 60 * time.Second
	}
	if c.RetryJitter == 0 {
		c.RetryJitter = 0.2
	}
	if c.RetryJitter < 0 {
		c.RetryJitter = 0
	}
	if c.BreakerAfter == 0 {
		c.BreakerAfter = 5
	}
	return c
}

// Stats is a point-in-time snapshot of the controller.
type Stats struct {
	State      State
	Generation int   // serving dictionary generation (0 = uncompressed)
	Seen       int64 // keys observed since the last cutover (or start)
	Reservoir  int   // current reservoir occupancy
	BuildCPR   float64
	RecentCPR  float64
	Rebuilds   int // completed cutovers
	Aborts     int // rebuilds that rolled back

	// Health of the rebuild machinery (see Config.RetryBackoff and
	// Config.BreakerAfter).
	Degraded            bool      // circuit breaker open: frozen-dictionary serving
	ConsecutiveFailures int       // rebuild failures since the last cutover
	LastError           error     // most recent rebuild failure (nil after a cutover)
	NextRetryAt         time.Time // earliest automatic rebuild re-arm (zero when unthrottled)
}

// Controller combines the state machine and the drift tracker. All methods
// are safe for concurrent use. Transition methods return an error when the
// move is not legal from the current state, which serializes rebuilds: only
// one goroutine can win the Steady/Sampling → Building edge.
//
// The accounting hot path — Observe, called on every insert the data
// plane serves — never takes the controller mutex. Observations
// round-robin across Stripes tracker stripes (an atomic counter picks the
// stripe, so the stripe choice is contention-free and, under a single
// writer, deterministic), each holding a fraction of the reservoir and of
// the rolling CPR window behind its own short-lived mutex. With W writer
// goroutines and S stripes the probability two writers collide on a
// stripe in a given instant is ~W/S, versus 1 on the old single tracker
// mutex; drift checks, which run every CheckEvery observations, aggregate
// the stripes (Σraw/Σenc is exactly the rate one combined window would
// report, since round-robin keeps the stripes' occupancies equal).
type Controller struct {
	cfg Config

	stripes []*trackerStripe
	seen    atomic.Int64 // observations since last cutover (round-robin cursor)

	mu         sync.Mutex
	state      State
	serving    State // the state the in-flight rebuild started from
	generation int
	buildCPR   float64 // CPR of the serving dictionary on its build sample
	rebuilds   int
	aborts     int

	// Failure policy state (guarded by mu). retryRNG drives backoff
	// jitter; it is separate from the reservoir RNGs so the jitter
	// sequence is a pure function of the failure sequence.
	consecFails int
	degraded    bool
	lastErr     error
	nextRetryAt time.Time
	retryRNG    *rand.Rand
}

// trackerStripe is one slice of the drift tracker: 1/Stripes of the
// reservoir and of the rolling CPR window. The mutex guards the sampler
// (the window carries its own).
type trackerStripe struct {
	mu      sync.Mutex
	sampler *core.Sampler
	window  *core.CPRWindow
}

// NewController returns a controller in the given initial serving state
// (Sampling when no dictionary exists yet, Steady when the index starts
// with a pre-built encoder).
func NewController(cfg Config, initial State) *Controller {
	cfg = cfg.Fill()
	c := &Controller{
		cfg:      cfg,
		state:    initial,
		stripes:  make([]*trackerStripe, cfg.Stripes),
		retryRNG: rand.New(rand.NewSource(cfg.Seed ^ 0x5ca1ab1e)),
	}
	resCap := (cfg.ReservoirSize + cfg.Stripes - 1) / cfg.Stripes
	winCap := (cfg.WindowSize + cfg.Stripes - 1) / cfg.Stripes
	for i := range c.stripes {
		c.stripes[i] = &trackerStripe{
			sampler: core.NewSampler(resCap, cfg.Seed+int64(i)),
			window:  core.NewCPRWindow(winCap),
		}
	}
	return c
}

// Config returns the filled configuration.
func (c *Controller) Config() Config { return c.cfg }

// State returns the current lifecycle state.
func (c *Controller) State() State {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.state
}

// Generation returns the serving dictionary generation (0 before the first
// build).
func (c *Controller) Generation() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.generation
}

// stripeFor maps the n-th observation (1-based) to its tracker stripe.
func (c *Controller) stripeFor(n int64) *trackerStripe {
	return c.stripes[int((n-1)%int64(len(c.stripes)))]
}

// Observe feeds one written key into the reservoir and the CPR window and
// returns the policy verdict. storedLen is the stored (encoded, padded)
// length; pass the raw length again while serving uncompressed. The
// verdict is advisory — acting on it still has to win BeginBuild. Observe
// touches only one tracker stripe and an atomic counter — never the
// controller mutex — except on the CheckEvery cadence, when it evaluates
// the drift policy over the aggregated stripes.
func (c *Controller) Observe(key []byte, storedLen int) Signal {
	n := c.seen.Add(1)
	st := c.stripeFor(n)
	st.mu.Lock()
	st.sampler.Add(key)
	st.mu.Unlock()
	st.window.Observe(len(key), storedLen)
	if n%int64(c.cfg.CheckEvery) != 0 {
		return None
	}
	return c.Check()
}

// Check evaluates the policy immediately, without the CheckEvery cadence
// gate — the post-bulk-load probe and an async trigger's re-validation
// (after winning the rebuild lock the world may have moved) use it.
func (c *Controller) Check() Signal {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.checkLocked()
}

// windowRate aggregates the striped CPR windows: the combined rolling
// rate and whether the combined occupancy has reached a full logical
// window (round-robin keeps stripe occupancies equal, so this is the
// moment every stripe's ring has wrapped, modulo rounding).
func (c *Controller) windowRate() (rate float64, full bool) {
	var raw, enc int64
	occupied := 0
	for _, st := range c.stripes {
		r, e, n := st.window.Sums()
		raw += r
		enc += e
		occupied += n
	}
	if enc > 0 {
		rate = float64(raw) / float64(enc)
	}
	return rate, occupied >= c.cfg.WindowSize
}

func (c *Controller) checkLocked() Signal {
	switch c.state {
	case Sampling:
		if c.seen.Load() >= int64(c.cfg.BuildAfter) && c.autoAllowedLocked(c.now()) {
			return FirstBuild
		}
	case Steady:
		rate, full := c.windowRate()
		if c.buildCPR == 0 {
			// An index that started from a pre-built encoder has no build
			// sample to baseline against; adopt the first full window of
			// live traffic as the baseline (self-calibration).
			if full {
				c.buildCPR = rate
			}
			return None
		}
		if c.seen.Load() >= int64(c.cfg.Cooldown) && full &&
			rate < c.buildCPR*(1-c.cfg.DriftThreshold) &&
			c.autoAllowedLocked(c.now()) {
			return Drift
		}
	}
	return None
}

// now is the controller's time source (Config.Clock in tests).
func (c *Controller) now() time.Time {
	if c.cfg.Clock != nil {
		return c.cfg.Clock()
	}
	return time.Now()
}

// autoAllowedLocked is the retry gate every automatic trigger — drift,
// first build, skew re-split — passes through: after a rebuild failure the
// capped-exponential backoff delay must have elapsed. With the breaker
// open the same test doubles as the half-open gate: once the current
// backoff expires, exactly one probe signal escapes (its failure re-arms
// the backoff; its cutover closes the breaker). Explicit Rebuild calls
// bypass this gate entirely.
func (c *Controller) autoAllowedLocked(now time.Time) bool {
	return c.nextRetryAt.IsZero() || !now.Before(c.nextRetryAt)
}

// AutoAllowed reports whether an automatic rebuild may fire right now —
// the retry/breaker gate alone, without the drift or skew predicates.
func (c *Controller) AutoAllowed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.autoAllowedLocked(c.now())
}

// ResplitAllowed reports whether a skew-triggered re-split may arm: the
// index must be Steady (re-splitting needs a serving dictionary and no
// rebuild in flight), past the post-cutover cooldown, and past any failure
// backoff. The skew predicate itself (shard-fraction bound) lives with the
// data plane, which owns the shard counts.
func (c *Controller) ResplitAllowed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.state == Steady &&
		c.seen.Load() >= int64(c.cfg.Cooldown) &&
		c.autoAllowedLocked(c.now())
}

// RecordFailure charges one rebuild failure to the retry policy: the
// consecutive-failure counter grows, the next automatic attempt is pushed
// out by RetryBackoff × 2^(failures-1) (capped at RetryBackoffMax,
// ±RetryJitter), and at BreakerAfter consecutive failures the circuit
// breaker opens — the controller reports Degraded and automatic rebuilds
// stop except for one half-open probe per backoff window. The data plane
// calls this after every failed rebuild, explicit or automatic; any
// successful Cutover resets all of it.
func (c *Controller) RecordFailure(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.consecFails++
	c.lastErr = err
	backoff := c.cfg.RetryBackoff
	for i := 1; i < c.consecFails && backoff < c.cfg.RetryBackoffMax; i++ {
		backoff *= 2
	}
	if backoff > c.cfg.RetryBackoffMax {
		backoff = c.cfg.RetryBackoffMax
	}
	if j := c.cfg.RetryJitter; j > 0 {
		backoff = time.Duration(float64(backoff) * (1 + j*(2*c.retryRNG.Float64()-1)))
	}
	c.nextRetryAt = c.now().Add(backoff)
	if c.cfg.BreakerAfter > 0 && c.consecFails >= c.cfg.BreakerAfter {
		c.degraded = true
	}
}

// Degraded reports whether the circuit breaker is open (frozen-dictionary
// serving; see Config.BreakerAfter).
func (c *Controller) Degraded() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.degraded
}

// LastError returns the most recent rebuild failure (nil when healthy or
// after a successful cutover).
func (c *Controller) LastError() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastErr
}

// ObserveBulk feeds a bulk-loaded key into the reservoir only (bulk loads
// bypass the rolling window: their encode lengths are produced inside the
// parallel pipeline, and a bulk load is a deliberate act, not drift).
func (c *Controller) ObserveBulk(key []byte) {
	st := c.stripeFor(c.seen.Add(1))
	st.mu.Lock()
	st.sampler.Add(key)
	st.mu.Unlock()
}

// SampleSnapshot deep-copies the reservoir (all stripes) for a background
// build.
func (c *Controller) SampleSnapshot() [][]byte {
	var out [][]byte
	for _, st := range c.stripes {
		st.mu.Lock()
		out = append(out, st.sampler.Snapshot()...)
		st.mu.Unlock()
	}
	return out
}

// Seen returns how many keys the tracker has been offered since the last
// cutover or start.
func (c *Controller) Seen() int64 {
	return c.seen.Load()
}

// RecentCPR returns the rolling compression rate (0 while uncompressed or
// before any observation).
func (c *Controller) RecentCPR() float64 {
	rate, _ := c.windowRate()
	return rate
}

// Stats returns a consistent snapshot.
func (c *Controller) Stats() Stats {
	reservoir := 0
	for _, st := range c.stripes {
		st.mu.Lock()
		reservoir += st.sampler.Len()
		st.mu.Unlock()
	}
	rate, _ := c.windowRate()
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		State:               c.state,
		Generation:          c.generation,
		Seen:                c.seen.Load(),
		Reservoir:           reservoir,
		BuildCPR:            c.buildCPR,
		RecentCPR:           rate,
		Rebuilds:            c.rebuilds,
		Aborts:              c.aborts,
		Degraded:            c.degraded,
		ConsecutiveFailures: c.consecFails,
		LastError:           c.lastErr,
		NextRetryAt:         c.nextRetryAt,
	}
}

// BeginBuild moves Sampling/Steady → Building. Exactly one caller wins;
// losers get an error naming the state that blocked them.
func (c *Controller) BeginBuild() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.state != Sampling && c.state != Steady {
		return fmt.Errorf("lifecycle: cannot start a build while %v", c.state)
	}
	c.serving = c.state
	c.state = Building
	return nil
}

// BeginMigration moves Building → Migrating.
func (c *Controller) BeginMigration() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.state != Building {
		return fmt.Errorf("lifecycle: cannot start migrating while %v", c.state)
	}
	c.state = Migrating
	return nil
}

// Cutover completes a rebuild: Building or Migrating → Steady (a build
// may cut over directly when the index was empty and there was nothing to
// migrate). buildCPR is the new dictionary's compression rate on its own
// build sample — the drift baseline until the next cutover. The reservoir
// and the rolling window reset so the next rebuild reflects only
// post-cutover traffic.
func (c *Controller) Cutover(buildCPR float64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.state != Building && c.state != Migrating {
		return fmt.Errorf("lifecycle: cannot cut over while %v", c.state)
	}
	c.state = Steady
	c.generation++
	c.buildCPR = buildCPR
	c.rebuilds++
	// A successful cutover is health restored: the failure streak ends,
	// the breaker closes, and the backoff clears.
	c.consecFails = 0
	c.degraded = false
	c.lastErr = nil
	c.nextRetryAt = time.Time{}
	for _, st := range c.stripes {
		st.mu.Lock()
		st.sampler.Reset()
		st.mu.Unlock()
		st.window.Reset()
	}
	c.seen.Store(0)
	return nil
}

// Abort rolls a failed build or migration back to the serving state the
// rebuild started from (Sampling before the first cutover, Steady after).
// The reservoir and window are kept: the traffic they describe is still
// the traffic being served.
func (c *Controller) Abort() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.state != Building && c.state != Migrating {
		return fmt.Errorf("lifecycle: cannot abort while %v", c.state)
	}
	c.state = c.serving
	c.aborts++
	return nil
}
