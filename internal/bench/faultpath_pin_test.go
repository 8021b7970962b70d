package bench

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"multiclock/internal/fault"
	"multiclock/internal/mem"
	"multiclock/internal/pagecache"
	"multiclock/internal/pagetable"
	"multiclock/internal/sim"
	"multiclock/internal/snapcodec"
)

// The fault-path pin is a fingerprint of one small oversubscribed run per
// policy and machine variant — anonymous, file-backed and huge-page memory
// together on a machine a third the size of what is touched, so faults evict,
// huge pages split and swap residency turns over constantly. It was recorded
// at the commit before page descriptors were recycled, swap residency became a
// bitset and the buddy free lists became bitmaps; those structures carry host
// state only, so every line here — virtual time, counters, the Fig. 9
// re-access share and a hash over the mem, LRU, machine and policy checkpoint
// sections — must reproduce byte for byte.
//
// Regenerate (only for intentional behaviour changes) with:
//
//	go test ./internal/bench -run TestFaultPathPinned -update-golden
var faultPathVariants = []struct {
	name  string
	tiers string
	chaos fault.Config
}{
	{"plain", "", fault.Config{}},
	{"chaos", "", fault.UniformRate(7, 0.01)},
	{"three-tier", "dram:256,cxl:512,pm:1024", fault.Config{}},
}

// faultPathFingerprint runs the pinned scenario and renders its report.
func faultPathFingerprint(t *testing.T, policy, tiers string, chaos fault.Config) string {
	t.Helper()
	rc := RunConfig{
		Policy: policy, DRAMPages: 256, PMPages: 1536, Tiers: tiers,
		Interval: 5 * sim.Millisecond, Seed: 21, Chaos: chaos,
	}
	m, err := rc.Machine()
	if err != nil {
		t.Fatal(err)
	}
	p := m.Policy
	tracker := NewPromotionTracker(m, 50*sim.Millisecond)
	m.Attach(tracker)

	const anonPages, filePages, hugeRegions = 1400, 900, 2
	as := m.NewSpace()
	anon := as.Mmap(anonPages, false, "anon")
	huge := as.MmapHuge(hugeRegions*pagetable.HugePages, "thp")
	pc := pagecache.New(m)
	pc.StartFlusher(20 * sim.Millisecond)
	file := pc.Open("data", filePages)
	scratch := pc.Open("scratch", 64)

	rng := sim.NewRNG(rc.Seed ^ 0xfa17)
	// The huge regions fault first, while aligned blocks still exist.
	for r := 0; r < hugeRegions; r++ {
		m.Access(as, huge.Start+pagetable.VPN(r*pagetable.HugePages+rng.Intn(pagetable.HugePages)), true)
		m.EndOp()
	}
	for i := 0; i < 30_000; i++ {
		switch k := rng.Intn(32); {
		case k == 0:
			m.Unmap(as, anon.Start+pagetable.VPN(rng.Intn(anonPages)))
		case k == 1:
			m.Compute(sim.Duration(rng.Intn(12)) * sim.Millisecond)
		case k == 2:
			scratch.Write(rng.Intn(scratch.Pages))
			if rng.Intn(8) == 0 {
				scratch.Drop()
			}
		case k < 10:
			if rng.Intn(5) == 0 {
				file.Write(rng.Intn(filePages))
			} else {
				file.Read(rng.Intn(filePages))
			}
		case k < 14:
			// A refault into a split, partly swapped region used to ask for
			// a whole huge page over live PTEs and panic (it takes one base
			// page now, machine.TestHugeRefaultIntoSplitRegion); the golden
			// was cut with the scenario stepping around it, and keeps to it:
			// touch what is resident, and fault only a region that is
			// entirely gone.
			// The last region is touched rarely enough to go cold and split.
			region := 0
			if rng.Intn(200) == 0 {
				region = hugeRegions - 1
			}
			vpn, write := huge.Start+pagetable.VPN(region*pagetable.HugePages+rng.Intn(pagetable.HugePages)), rng.Intn(4) == 0
			base := vpn - vpn%pagetable.HugePages
			resident := 0
			as.Walk(base, base+pagetable.HugePages, func(pagetable.VPN, *mem.Page) { resident++ })
			if as.Lookup(vpn) != nil || resident == 0 {
				m.Access(as, vpn, write)
			}
		default:
			idx := rng.Intn(anonPages)
			if rng.Intn(10) < 6 {
				idx = rng.Intn(150)
			}
			m.Access(as, anon.Start+pagetable.VPN(idx), rng.Intn(3) == 0)
		}
		m.EndOp()
	}
	pc.StopFlusher()
	p.Stop()
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("%s: %v", policy, err)
	}

	c := snapcodec.NewWriter()
	for _, err := range []error{
		m.Mem.Checkpoint(c),
		m.CheckpointLRU(c, nil),
		m.CheckpointMachine(c, nil),
		p.Checkpoint(c, nil),
	} {
		if err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
	}
	h := fnv.New64a()
	h.Write(c.Bytes())

	var b strings.Builder
	m.Mem.Counters.Each(func(name string, v int64) { fmt.Fprintf(&b, "%s=%d ", name, v) })
	fmt.Fprintf(&b, "\nelapsed=%v ops=%d\n", m.Elapsed(), m.Ops)
	for _, n := range m.Mem.Nodes {
		fmt.Fprintf(&b, "node%d free=%d blocks=%v\n", n.ID, n.FreeFrames(), n.FreeBlocks())
	}
	for _, sp := range m.Spaces() {
		fmt.Fprintf(&b, "space%d mapped=%d swapped=%d\n", sp.ID, sp.Mapped(), sp.Swapped())
	}
	fmt.Fprintf(&b, "file misses=%d flushed=%d promotions=%d reaccess=%.4f%%\n",
		file.CacheMisses+scratch.CacheMisses, pc.FlushedPages, tracker.TotalPromotions(), tracker.MeanReaccessPercent())
	fmt.Fprintf(&b, "checkpoint %d bytes fnv64a=%016x\n", len(c.Bytes()), h.Sum64())
	if m.Faults != nil {
		fmt.Fprintf(&b, "%s\n", m.Faults.Counters.String())
	}
	return b.String()
}

func TestFaultPathPinned(t *testing.T) {
	var b strings.Builder
	swapped := false
	for _, v := range faultPathVariants {
		for _, policy := range PolicyNames() {
			out := faultPathFingerprint(t, policy, v.tiers, v.chaos)
			swapped = swapped || !strings.Contains(out, " swap_ins=0 ")
			fmt.Fprintf(&b, "== %s / %s ==\n%s", policy, v.name, out)
		}
	}
	if !swapped {
		t.Fatal("scenario never swapped: the pin does not reach the eviction path")
	}
	checkGolden(t, "golden_fault_path.txt", []byte(b.String()))
}
