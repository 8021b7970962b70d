package machine

import (
	"multiclock/internal/lru"
	"multiclock/internal/mem"
	"multiclock/internal/sim"
)

// Policy is a tiering policy: it decides where pages are born, what an
// access costs, and how pages move between tiers over time (via daemons it
// installs in Attach). Implementations: MULTI-CLOCK (internal/core) and the
// baselines (internal/policy). Every policy checkpoints and stops: the
// contract is the type, so no caller recovers either method at run time.
type Policy interface {
	Checkpointer
	Stopper

	// Name identifies the policy in reports.
	Name() string

	// Attach wires the policy to its machine and starts its daemons.
	// Called exactly once, from New.
	Attach(m *Machine)

	// AllocOrder is the tier fallback order for page birth.
	AllocOrder() []mem.Tier

	// PageFreed runs before a page's frame is released.
	PageFreed(pg *mem.Page)

	// HintFault runs when an application access trips a poisoned PTE
	// (software-fault access tracking). Only fault-based policies poison
	// pages, so most implementations never see this call.
	HintFault(pg *mem.Page, write bool)

	// Access returns the device latency for one application access to pg.
	// Most policies return the tier's base cost; Memory-mode replaces it
	// with its cache model.
	Access(pg *mem.Page, write bool) sim.Duration

	// Pressure notifies the policy that node fell below its low watermark
	// after an allocation (the kswapd wakeup path).
	Pressure(node mem.NodeID)

	// DirectReclaim synchronously frees at least n frames anywhere in the
	// machine when allocation has failed everywhere, returning the number
	// actually freed. Zero means OOM.
	DirectReclaim(n int) int
}

// Stopper is what tearing a system down needs of its policy: Stop halts the
// policy's daemons so abandoned machines cost nothing. Every policy
// embedding Base has it.
type Stopper interface {
	Stop()
}

// Base is the machinery every policy shares, so that a policy is its
// selection rule plus a state struct: fastest-tier-first birth, base tier
// latency, swap-based direct reclaim from the lowest tier, and the whole
// daemon lifecycle (start, overrun faults, stop). Embed it and
// override what differs.
type Base struct {
	M *Machine

	// daemons are the policy's scanning threads in start order — the order
	// the clock section and the metrics events serialise them in.
	daemons []*sim.Daemon

	// reclaimBuf is reused across DirectReclaim calls so repeated direct
	// reclaim under sustained pressure does not allocate. SwapOut never
	// re-enters reclaim, so one buffer is safe.
	reclaimBuf []*mem.Page
}

// Attach stores the machine reference. Policies embedding Base should call
// this from their own Attach before installing daemons.
func (b *Base) Attach(m *Machine) { b.M = m }

// StartDaemon starts one periodic policy daemon. Injected daemon-overrun
// faults are applied after every body, so no policy can escape them by
// forgetting to ask.
func (b *Base) StartDaemon(name string, interval sim.Duration, body func(d *sim.Daemon)) {
	var d *sim.Daemon
	d = b.M.Clock.StartDaemon(name, interval, func(sim.Time) {
		body(d)
		b.M.FinishDaemonPass(d)
	})
	b.daemons = append(b.daemons, d)
}

// StartNodeDaemons starts one daemon per memory node, in node order: the
// kernel prototype's one-scanning-thread-per-node design (§IV).
func (b *Base) StartNodeDaemons(name string, interval sim.Duration, body func(node mem.NodeID, d *sim.Daemon)) {
	for _, n := range b.M.Mem.Nodes {
		node := n.ID
		b.StartDaemon(name, interval, func(d *sim.Daemon) { body(node, d) })
	}
}

// Daemons returns the policy's daemons in start order.
func (b *Base) Daemons() []*sim.Daemon { return b.daemons }

// Stop halts every daemon (used by experiments that rebuild machines).
func (b *Base) Stop() {
	for _, d := range b.daemons {
		d.Stop()
	}
}

// QueueDepth reports the number of promotion candidates a scanning pass
// found to the telemetry sink, when one is attached.
func (b *Base) QueueDepth(n int) {
	if b.M.Metrics != nil {
		b.M.Metrics.QueueDepth(n, b.M.Clock.Now())
	}
}

// AllocOrder births pages in the fastest tier while it lasts, then each
// slower tier in turn (§II-A).
func (b *Base) AllocOrder() []mem.Tier { return b.M.Mem.BirthOrder() }

// PageFreed is a no-op.
func (b *Base) PageFreed(pg *mem.Page) {}

// HintFault is a no-op: reference-bit policies never poison PTEs.
func (b *Base) HintFault(pg *mem.Page, write bool) {}

// Access charges the base latency of the page's tier.
func (b *Base) Access(pg *mem.Page, write bool) sim.Duration {
	return b.M.Mem.Lat.AccessCost(b.M.Mem.Tier(pg), write)
}

// Pressure is a no-op: static tiering does not react to watermarks.
func (b *Base) Pressure(node mem.NodeID) {}

// DirectReclaim swaps cold pages out of the lowest tier (and, failing
// that, any tier), the shared last-resort eviction path (§III-C). Several
// aging rounds may be needed: the first pass over recently-touched pages
// only spends their reference bits (second chance).
func (b *Base) DirectReclaim(n int) int {
	freed := 0
	for round := 0; round < 4 && freed < n; round++ {
		for t := b.M.Mem.NumTiers() - 1; t >= 0 && freed < n; t-- {
			for _, id := range b.M.Mem.TierNodes(mem.Tier(t)) {
				vec := b.M.Vecs[id]
				// Push active pages toward inactive so sustained
				// pressure always makes progress.
				vec.BalanceActive(0, n-freed)
				victims := vec.AppendDemoteCandidates(b.reclaimBuf[:0], n-freed)
				for _, pg := range victims {
					b.M.SwapOut(pg)
					freed++
				}
				b.reclaimBuf = victims[:0]
				if freed >= n {
					break
				}
			}
		}
	}
	return freed
}

// ScanTax charges the daemon-side cost of one scanning wakeup — the fixed
// wakeup disturbance plus per-page examination — to the machine's
// interference account.
func (b *Base) ScanTax(stats lru.ScanStats) {
	b.M.Mem.Counters.PagesScanned += int64(stats.Scanned)
	b.M.ChargeTax(b.M.Mem.Lat.DaemonWakeup +
		sim.Duration(stats.Scanned)*b.M.Mem.Lat.DaemonScanPage)
}
