// Package fault is a seeded, deterministic fault-injection layer for the
// simulated hybrid-memory machine. It models what real tiering kernels
// survive in production and a clean simulation never exercises: transient
// migrate_pages() failures (pinned pages, allocation denial on the target
// node), Optane media-slowdown windows that multiply PM access latency,
// daemon passes that overrun their scheduling interval, and allocation
// failure storms when a node is already near its watermarks.
//
// Every fault decision is a Bernoulli draw from the injector's own split
// RNG stream, so a given (seed, rate) produces the same fault sequence on
// every run — chaos runs are as reproducible as clean ones. A nil *Injector
// is valid everywhere and injects nothing, and a Config with all rates zero
// builds no injector at all, so the fault-free path is byte-for-byte the
// pre-injection simulator.
package fault

import (
	"fmt"
	"strconv"
	"strings"

	"multiclock/internal/sim"
)

// Kind names one injectable fault class.
type Kind uint8

const (
	// MigratePinned fails a migration as if the page were transiently
	// pinned (get_user_pages, DMA): the page cannot move this attempt but
	// remains usable in place.
	MigratePinned Kind = iota
	// MigrateTargetDenied fails the destination-node frame allocation of a
	// migration even though free frames exist (kernel: __alloc_pages
	// failure on the target node under concurrent pressure).
	MigrateTargetDenied
	// AllocStorm opens a window during which ordinary (non-emergency)
	// allocations fail on nodes already near their watermarks, forcing the
	// tier-fallback and emergency-reserve paths.
	AllocStorm
	// PMSlowdown opens a media-slowdown window during which PM accesses
	// cost a multiple of their normal latency (Optane's tail-latency
	// spikes under write-pending-queue pressure).
	PMSlowdown
	// DaemonOverrun makes one daemon pass exceed its wakeup interval: the
	// next wakeup is postponed by the overrun and the time is charged as
	// daemon interference.
	DaemonOverrun
	// NumKinds is the number of fault classes.
	NumKinds
)

var kindNames = [NumKinds]string{
	"migrate-pinned", "migrate-target-denied", "alloc-storm", "pm-slowdown", "daemon-overrun",
}

// String returns the fault class name used in reports.
func (k Kind) String() string {
	if k >= NumKinds {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return kindNames[k]
}

// Config describes an injection campaign. The zero value injects nothing.
type Config struct {
	// Seed drives the injector's private RNG stream; equal seeds give
	// identical fault sequences for identical workloads.
	Seed uint64

	// Rates is the per-opportunity injection probability of each kind in
	// [0,1]. An opportunity is one migration attempt, one near-watermark
	// allocation, one PM access outside a slowdown window, or one daemon
	// pass respectively.
	Rates [NumKinds]float64
}

// The shape of the injected windows and overruns.
const (
	// pmSlowdownFactor multiplies slow-media access latency inside a
	// slowdown window: the order of Optane's observed tail spikes.
	pmSlowdownFactor = 4
	// pmSlowdownWindow is the virtual duration of one media-slowdown window.
	pmSlowdownWindow = 5 * sim.Millisecond
	// stormWindow is the virtual duration of one allocation-failure storm.
	stormWindow = 2 * sim.Millisecond
	// overrunFactor sizes a daemon overrun as a multiple of the daemon's
	// interval.
	overrunFactor = 1.5
)

// Enabled reports whether any fault kind has a positive rate.
func (c Config) Enabled() bool {
	for _, r := range c.Rates {
		if r > 0 {
			return true
		}
	}
	return false
}

// UniformRate returns a Config injecting every fault kind at the same rate —
// the shape behind the CLIs' "-chaos seed,rate" flag.
func UniformRate(seed uint64, rate float64) Config {
	c := Config{Seed: seed}
	for k := range c.Rates {
		c.Rates[k] = rate
	}
	return c
}

// ParseSpec parses the CLI fault specification "seed,rate" (e.g. "42,0.01")
// into a uniform-rate Config. The empty string parses to a disabled Config.
func ParseSpec(s string) (Config, error) {
	if s == "" {
		return Config{}, nil
	}
	parts := strings.Split(s, ",")
	if len(parts) != 2 {
		return Config{}, fmt.Errorf("fault: spec %q is not seed,rate", s)
	}
	seed, err := strconv.ParseUint(strings.TrimSpace(parts[0]), 10, 64)
	if err != nil {
		return Config{}, fmt.Errorf("fault: bad seed in %q: %v", s, err)
	}
	rate, err := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
	if err != nil {
		return Config{}, fmt.Errorf("fault: bad rate in %q: %v", s, err)
	}
	if !(rate >= 0 && rate <= 1) { // NaN parses, and compares false both ways
		return Config{}, fmt.Errorf("fault: rate %v outside [0,1]", rate)
	}
	return UniformRate(seed, rate), nil
}

// Counters tallies injected faults per kind.
type Counters struct {
	Injected [NumKinds]int64
}

// Total returns the number of injected faults across all kinds.
func (c *Counters) Total() int64 {
	var t int64
	for _, n := range c.Injected {
		t += n
	}
	return t
}

// String renders the tallies as one report line.
func (c *Counters) String() string {
	var b strings.Builder
	b.WriteString("faults injected:")
	for k := Kind(0); k < NumKinds; k++ {
		fmt.Fprintf(&b, " %s=%d", k, c.Injected[k])
	}
	return b.String()
}

// Injector draws fault decisions on behalf of the memory system, the
// machine and the tiering daemons. All methods are nil-safe: a nil receiver
// injects nothing, so consumers thread the pointer through unconditionally.
type Injector struct {
	cfg   Config
	rng   *sim.RNG
	clock *sim.Clock

	// Counters reports what was injected (read by tests and CLIs).
	Counters Counters

	slowUntil  sim.Time // end of the active PM slowdown window, if any
	stormUntil sim.Time // end of the active allocation storm, if any

	// Opt-in window log (EnableWindowLog): every opened degradation window,
	// for trace export. Off by default so metrics-only runs carry no extra
	// state; recording is passive either way (never advances the clock or
	// perturbs the RNG stream).
	logMax         int
	windows        []Window
	windowsDropped int64
}

// Window is one logged degradation interval: between Start and End (virtual
// time, end exclusive) the injector applied Kind to every opportunity.
type Window struct {
	Kind  Kind
	Start sim.Time
	End   sim.Time
}

// DefaultWindowLogCap bounds the window log when EnableWindowLog is given a
// non-positive cap.
const DefaultWindowLogCap = 4096

// EnableWindowLog turns on degradation-window recording, keeping at most max
// windows (DefaultWindowLogCap when max <= 0); later windows are dropped and
// counted. Nil-safe no-op.
func (f *Injector) EnableWindowLog(max int) {
	if f == nil {
		return
	}
	if max <= 0 {
		max = DefaultWindowLogCap
	}
	f.logMax = max
}

// Windows returns the logged degradation windows in open order (nil when
// logging is off or nothing opened).
func (f *Injector) Windows() []Window {
	if f == nil {
		return nil
	}
	return f.windows
}

// WindowsDropped reports how many windows the log's cap discarded.
func (f *Injector) WindowsDropped() int64 {
	if f == nil {
		return 0
	}
	return f.windowsDropped
}

// logWindow appends one opened window when logging is enabled.
func (f *Injector) logWindow(k Kind, start, end sim.Time) {
	if f.logMax == 0 {
		return
	}
	if len(f.windows) >= f.logMax {
		f.windowsDropped++
		return
	}
	f.windows = append(f.windows, Window{Kind: k, Start: start, End: end})
}

// New builds an injector on the given virtual clock. The RNG stream is
// split from the seed so it never correlates with workload randomness.
func New(clock *sim.Clock, cfg Config) *Injector {
	return &Injector{cfg: cfg, rng: sim.NewRNG(cfg.Seed).Split(0xfa07), clock: clock}
}

// roll draws one Bernoulli trial for kind k, counting a hit. Disabled kinds
// consume no randomness, so enabling one kind does not shift another's
// sequence.
func (f *Injector) roll(k Kind) bool {
	if f == nil {
		return false
	}
	r := f.cfg.Rates[k]
	if r <= 0 || f.rng.Float64() >= r {
		return false
	}
	f.Counters.Injected[k]++
	return true
}

// MigrationPinned reports whether this migration attempt should fail as a
// transiently pinned page.
func (f *Injector) MigrationPinned() bool { return f.roll(MigratePinned) }

// TargetDenied reports whether this migration's destination-frame
// allocation should be denied despite available frames.
func (f *Injector) TargetDenied() bool { return f.roll(MigrateTargetDenied) }

// AllocDenied reports whether an ordinary allocation should fail.
// nearWatermark is supplied by the caller (free frames below the low
// watermark); storms only strike — and only persist — near watermarks,
// where real allocation failure lives. Each denial is counted.
func (f *Injector) AllocDenied(nearWatermark bool) bool {
	if f == nil || !nearWatermark || f.cfg.Rates[AllocStorm] <= 0 {
		return false
	}
	now := f.clock.Now()
	if now < f.stormUntil {
		f.Counters.Injected[AllocStorm]++
		return true
	}
	if f.roll(AllocStorm) {
		f.stormUntil = now + sim.Time(stormWindow)
		f.logWindow(AllocStorm, now, f.stormUntil)
		return true
	}
	return false
}

// AccessDelay returns the extra latency one slow-media access pays: each
// access outside a slowdown window may open one (counted once per window);
// every access inside the window costs (factor−1)× its base latency extra.
// belowFastest — the access landed on any tier below the fastest — gates
// the draw, so fastest-tier accesses consume no randomness.
func (f *Injector) AccessDelay(belowFastest bool, base sim.Duration) sim.Duration {
	if f == nil || !belowFastest || f.cfg.Rates[PMSlowdown] <= 0 {
		return 0
	}
	if f.clock.Now() >= f.slowUntil {
		if !f.roll(PMSlowdown) {
			return 0
		}
		now := f.clock.Now()
		f.slowUntil = now + sim.Time(pmSlowdownWindow)
		f.logWindow(PMSlowdown, now, f.slowUntil)
	}
	return sim.Duration(float64(base) * (pmSlowdownFactor - 1))
}

// Overrun returns the extra virtual time this daemon pass took beyond its
// budget, or zero. The caller postpones the daemon's next wakeup by the
// returned overrun and charges it as interference.
func (f *Injector) Overrun(interval sim.Duration) sim.Duration {
	if !f.roll(DaemonOverrun) {
		return 0
	}
	return sim.Duration(float64(interval) * overrunFactor)
}
