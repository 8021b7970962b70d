package machine

// The daemon kit in Base: what every policy's scanning threads get without
// writing it — per-node start in node order, stop, and injected overruns
// applied behind the body's back.

import (
	"testing"

	"multiclock/internal/fault"
	"multiclock/internal/mem"
	"multiclock/internal/sim"
	"multiclock/internal/snapcodec"
)

// kitPolicy starts one counting daemon per node from Attach, like every
// scanning policy does.
type kitPolicy struct {
	Base
	interval sim.Duration
	runs     map[mem.NodeID]int
}

func (*kitPolicy) Name() string                                     { return "kit" }
func (*kitPolicy) Checkpoint(*snapcodec.Codec, *PageRegistry) error { return nil }

func (p *kitPolicy) Attach(m *Machine) {
	p.Base.Attach(m)
	p.runs = make(map[mem.NodeID]int)
	p.StartNodeDaemons("kit-scan", p.interval, func(node mem.NodeID, d *sim.Daemon) { p.runs[node]++ })
}

func kitMachine(fcfg fault.Config) (*Machine, *kitPolicy) {
	cfg := DefaultConfig()
	cfg.Mem.DRAMNodes = []int{64, 64}
	cfg.Mem.PMNodes = []int{256}
	cfg.OpCost = 0
	cfg.Faults = fcfg
	p := &kitPolicy{interval: 10 * sim.Millisecond}
	return New(cfg, p), p
}

func TestStartNodeDaemonsOnePerNodeInNodeOrder(t *testing.T) {
	m, p := kitMachine(fault.Config{})
	ds := p.Daemons()
	if len(ds) != len(m.Mem.Nodes) {
		t.Fatalf("%d daemons for %d nodes", len(ds), len(m.Mem.Nodes))
	}
	for i, d := range ds {
		if d.Name != "kit-scan" || d.Interval != p.interval {
			t.Errorf("daemon %d is %q every %v", i, d.Name, d.Interval)
		}
		// The clock serialises daemons in its own start order; the kit's
		// must be the same, node by node.
		if m.Clock.Daemons()[i] != d {
			t.Errorf("daemon %d is not the clock's daemon %d", i, i)
		}
	}
	m.Compute(35 * sim.Millisecond)
	for _, n := range m.Mem.Nodes {
		if p.runs[n.ID] != 3 {
			t.Errorf("node %d daemon ran %d times in 35ms at 10ms, want 3", n.ID, p.runs[n.ID])
		}
	}
}

func TestStopHaltsEveryDaemon(t *testing.T) {
	m, p := kitMachine(fault.Config{})
	m.Compute(15 * sim.Millisecond)
	p.Stop()
	m.Compute(100 * sim.Millisecond)
	for node, n := range p.runs {
		if n != 1 {
			t.Errorf("node %d daemon ran %d times, want 1 (before Stop)", node, n)
		}
	}
}

// TestInjectedOverrunPostponesKitDaemons: with every pass overrunning by
// 1.5 intervals, a kit-started daemon wakes every 25 ms instead of every
// 10 — and its body called nothing to make that happen.
func TestInjectedOverrunPostponesKitDaemons(t *testing.T) {
	var fcfg fault.Config
	fcfg.Rates[fault.DaemonOverrun] = 1
	m, p := kitMachine(fcfg)
	m.Compute(100 * sim.Millisecond) // wakeups at 10, 35, 60, 85 ms
	for node, n := range p.runs {
		if n != 4 {
			t.Errorf("node %d daemon ran %d times in 100ms under constant overrun, want 4", node, n)
		}
	}
	if got := m.Faults.Counters.Injected[fault.DaemonOverrun]; got != int64(4*len(m.Mem.Nodes)) {
		t.Errorf("%d overruns injected, want one per pass (%d)", got, 4*len(m.Mem.Nodes))
	}
}
