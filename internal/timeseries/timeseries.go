// Package timeseries implements the windowed occupancy sampler behind the
// Fig. 6 and Fig. 9 curves: a fixed-period virtual-time schedule that, at
// each window boundary, snapshots every node's LRU list populations and
// free-frame headroom and differences the machine's vmstat counters over
// the window (promotion/demotion/retry flow, per-tier traffic).
//
// The sampler is purely observational. It re-arms itself with plain
// clock.Schedule calls — not a sim.Daemon, so it neither shows up in
// daemon-pass telemetry nor changes how policy daemons interleave — and a
// cancelled pending sample can never advance the clock (Drain skips
// cancelled events). Scheduling extra events does not perturb the relative
// order of the simulation's own events, so an instrumented run's timeline
// is identical to an uninstrumented one.
package timeseries

import (
	"multiclock/internal/lru"
	"multiclock/internal/machine"
	"multiclock/internal/mem"
	"multiclock/internal/metrics"
	"multiclock/internal/sim"
)

// DefaultMaxWindows bounds the recorded series (~65k windows; at the
// paper's 1 s scan interval that is 18 virtual hours of 1 s windows).
const DefaultMaxWindows = 1 << 16

// Sampler records one machine's windowed time series.
type Sampler struct {
	m          *machine.Machine
	window     sim.Duration
	maxWindows int

	windows []metrics.WindowExport
	dropped int64

	// start and base are the current window's opening time and counter
	// snapshot; ev is the pending boundary event.
	start sim.Time
	base  mem.Counters
	ev    *sim.Event
}

// New starts sampling m every window of virtual time (maxWindows <= 0
// takes DefaultMaxWindows). The first window opens at the current virtual
// time. Call Stop before draining the clock if the series should end
// earlier.
func New(m *machine.Machine, window sim.Duration, maxWindows int) *Sampler {
	if window <= 0 {
		panic("timeseries: non-positive window")
	}
	if maxWindows <= 0 {
		maxWindows = DefaultMaxWindows
	}
	s := &Sampler{
		m:          m,
		window:     window,
		maxWindows: maxWindows,
		start:      m.Clock.Now(),
		base:       m.Mem.Counters.Clone(),
	}
	s.ev = m.Clock.Schedule(window, s.tick)
	return s
}

// tick closes the current window and re-arms the next boundary.
func (s *Sampler) tick() {
	now := s.m.Clock.Now()
	s.close(now)
	s.start = now
	s.base = s.m.Mem.Counters.Clone()
	s.ev = s.m.Clock.Schedule(s.window, s.tick)
}

// close records the window [s.start, end) against the current machine
// state without touching the sampler's baseline.
func (s *Sampler) close(end sim.Time) {
	if len(s.windows) >= s.maxWindows {
		s.dropped++
		return
	}
	s.windows = append(s.windows, s.snapshot(end))
}

// snapshot builds the wire-format window for [s.start, end).
func (s *Sampler) snapshot(end sim.Time) metrics.WindowExport {
	c := &s.m.Mem.Counters
	w := metrics.WindowExport{
		Index: len(s.windows),
		Start: int64(s.start),
		End:   int64(end),

		ReadsDRAM:    c.Reads[0] - s.base.Reads[0],
		WritesDRAM:   c.Writes[0] - s.base.Writes[0],
		Promotions:   c.Promotions - s.base.Promotions,
		Demotions:    c.Demotions - s.base.Demotions,
		MigrateFails: c.MigrateFails - s.base.MigrateFails,
		SwapOuts:     c.SwapOuts - s.base.SwapOuts,
		SwapIns:      c.SwapIns - s.base.SwapIns,
		PagesScanned: c.PagesScanned - s.base.PagesScanned,
	}
	// The lower-tier traffic columns aggregate every tier below the fastest
	// (the PM tier in the default hierarchy, CXL+PM+… in deeper ones).
	for t := 1; t < len(c.Reads); t++ {
		w.ReadsPM += c.Reads[t] - s.base.Reads[t]
		w.WritesPM += c.Writes[t] - s.base.Writes[t]
	}
	for _, n := range s.m.Mem.Nodes {
		vec := s.m.Vecs[n.ID]
		free := n.FreeFrames()
		w.Nodes = append(w.Nodes, metrics.NodeSample{
			Node:         int(n.ID),
			Tier:         s.m.Mem.TierName(n.Tier),
			Free:         free,
			LowDistance:  free - n.WM.Low,
			AnonInactive: vec.Len(lru.InactiveAnon),
			AnonActive:   vec.Len(lru.ActiveAnon),
			AnonPromote:  vec.Len(lru.PromoteAnon),
			FileInactive: vec.Len(lru.InactiveFile),
			FileActive:   vec.Len(lru.ActiveFile),
			FilePromote:  vec.Len(lru.PromoteFile),
			Unevictable:  vec.Len(lru.Unevictable),
		})
	}
	return w
}

// Stop cancels the pending boundary event. The clock's Drain skips
// cancelled events, so a stopped sampler can never advance virtual time.
func (s *Sampler) Stop() { s.ev.Cancel() }

// Export snapshots the series as the wire-format section, synthesizing a
// trailing partial window up to the current virtual instant when time has
// passed since the last boundary. Export does not mutate the sampler and
// may be called repeatedly.
func (s *Sampler) Export() *metrics.SeriesExport {
	out := &metrics.SeriesExport{
		WindowNS:       int64(s.window),
		DroppedWindows: s.dropped,
		Windows:        append([]metrics.WindowExport(nil), s.windows...),
	}
	if now := s.m.Clock.Now(); now > s.start && len(s.windows) < s.maxWindows {
		out.Windows = append(out.Windows, s.snapshot(now))
	}
	return out
}
