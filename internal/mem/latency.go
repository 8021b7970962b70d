package mem

import "multiclock/internal/sim"

// LatencyModel gives the virtual-time cost of every memory-system operation.
// The defaults are calibrated to published DRAM vs. Intel Optane DCPMM
// measurements: PM byte-addressable latency "within an order of magnitude of
// DRAM" (§I) with asymmetric reads and writes (§VII). Absolute values do not
// need to match the authors' testbed — only the ratios shape the results.
type LatencyModel struct {
	// Read and Write are per-tier access latencies for one page-granular
	// application access (a cache-missing load or store), indexed by Tier
	// and sized to the system's topology.
	Read  []sim.Duration
	Write []sim.Duration

	// PageCopy is the topology-sized cost matrix of migrating one page
	// from tier src to tier dst: allocation, 4 KiB copy, and remapping
	// (migrate_pages).
	PageCopy [][]sim.Duration

	// MigrationTax is the portion of a migration charged to the
	// application timeline (TLB shootdown, page-table locking) even when
	// the copy itself runs on a daemon.
	MigrationTax sim.Duration

	// MinorFault is the cost of a first-touch fault allocating a page.
	MinorFault sim.Duration

	// HintFault is the cost of a software hint page fault used by
	// PTE-poisoning access trackers (AutoTiering/Thermostat-style); the
	// paper names this overhead as those systems' key weakness (§II-D).
	HintFault sim.Duration

	// SwapOut is the cost of writing a page to backing storage when the
	// lowest tier itself is under pressure (§III-C last resort).
	SwapOut sim.Duration

	// SwapIn is the major-fault cost of reading a swapped page back from
	// backing storage.
	SwapIn sim.Duration

	// DaemonScanPage is the daemon-side CPU cost of examining one page
	// during a list scan; it bounds how much scanning a wakeup can do.
	DaemonScanPage sim.Duration

	// DaemonWakeup is the fixed cost of one daemon wakeup (scheduling,
	// cache disturbance, LRU lock acquisition). Frequent wakeups pay it
	// often — the "excessive context switches" the paper warns about
	// when kpromoted is scheduled too aggressively (§III-B).
	DaemonWakeup sim.Duration

	// PTEPoison is the application-side cost of poisoning one PTE for a
	// hint-fault access tracker (AutoTiering, Thermostat): the TLB
	// shootdown whose IPIs disturb the running application.
	PTEPoison sim.Duration

	// Writeback is the cost of writing one dirty page-cache page back to
	// storage, paid by the flusher daemon.
	Writeback sim.Duration

	// DiskRead is the cost of filling a page-cache miss from storage.
	DiskRead sim.Duration

	// CacheHit is the cost of an access the modelled CPU cache serves
	// (machine.Config.CPUCachePages), per cache line.
	CacheHit sim.Duration
}

// scalarLatency returns the tier-independent calibrated costs; a System's
// model is its topology's per-tier costs over these (Topology.Latency). The
// builtin dram and pm tier specs give the default pair DRAM 80/90 ns, PM
// 300/450 ns, and page copies of 1.2 µs DRAM↔DRAM and 3 µs touching PM —
// 4 KiB over the slower end's bandwidth plus fixed remap overhead.
func scalarLatency() LatencyModel {
	var m LatencyModel
	// Migrating a mapped page interrupts the application for page-table
	// locking and TLB shootdown IPIs on every core — microseconds of
	// application time per page, which is why unselective promotion is
	// expensive (the paper's §V-D observation, and Nimble's own
	// motivation).
	m.MigrationTax = 2 * sim.Microsecond
	m.MinorFault = 1500 * sim.Nanosecond
	m.HintFault = 2500 * sim.Nanosecond
	m.SwapOut = 25 * sim.Microsecond
	m.SwapIn = 60 * sim.Microsecond // NVMe-SSD major fault
	m.DaemonScanPage = 150 * sim.Nanosecond
	m.DaemonWakeup = 20 * sim.Microsecond
	m.PTEPoison = 300 * sim.Nanosecond
	m.Writeback = 10 * sim.Microsecond
	m.DiskRead = 50 * sim.Microsecond
	m.CacheHit = 20 * sim.Nanosecond
	return m
}

// AccessCost returns the latency of one application access to tier t.
func (m *LatencyModel) AccessCost(t Tier, write bool) sim.Duration {
	if write {
		return m.Write[t]
	}
	return m.Read[t]
}
