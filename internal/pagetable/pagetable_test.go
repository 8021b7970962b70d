package pagetable

import (
	"sort"
	"testing"
	"testing/quick"

	"multiclock/internal/mem"
	"multiclock/internal/sim"
)

func TestVPNRoundTrip(t *testing.T) {
	va := uint64(0x12345000)
	vpn := VPNOf(va)
	if vpn.Addr() != va {
		t.Fatalf("round trip: %#x -> %v -> %#x", va, vpn, vpn.Addr())
	}
	if VPNOf(va+100) != vpn {
		t.Fatal("intra-page offset changed VPN")
	}
}

func TestMmapLayout(t *testing.T) {
	as := New(1)
	a := as.Mmap(10, false, "heap")
	b := as.Mmap(5, true, "file")
	if a.Pages() != 10 || b.Pages() != 5 {
		t.Fatal("VMA sizes")
	}
	if b.Start <= a.End-1 {
		t.Fatal("VMAs overlap")
	}
	if b.Start == a.End {
		t.Fatal("missing guard page")
	}
	if !a.Contains(a.Start) || a.Contains(a.End) {
		t.Fatal("Contains bounds")
	}
	if as.FindVMA(a.Start+3) != a || as.FindVMA(b.Start) != b {
		t.Fatal("FindVMA")
	}
	if as.FindVMA(a.End) != nil {
		t.Fatal("guard page has a VMA")
	}
	if len(as.VMAs()) != 2 {
		t.Fatal("VMAs()")
	}
}

func TestMmapZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New(1).Mmap(0, false, "")
}

func TestInstallLookupUnmap(t *testing.T) {
	as := New(7)
	v := as.Mmap(100, false, "x")
	pg := &mem.Page{}
	as.Install(v.Start+5, pg)
	if as.Mapped() != 1 {
		t.Fatal("Mapped count")
	}
	if pg.Space != 7 || pg.VA != (v.Start+5).Addr() {
		t.Fatal("reverse mapping not recorded")
	}
	if as.Lookup(v.Start+5) != pg {
		t.Fatal("Lookup")
	}
	if as.Lookup(v.Start+6) != nil {
		t.Fatal("empty PTE returned a page")
	}
	got := as.Unmap(v.Start + 5)
	if got != pg || as.Mapped() != 0 || pg.Space != -1 {
		t.Fatal("Unmap")
	}
	if as.Unmap(v.Start+5) != nil {
		t.Fatal("double unmap returned a page")
	}
	if as.Unmap(MaxVPN) != nil {
		t.Fatal("unmap of never-touched region")
	}
}

func TestInstallDoubleMapPanics(t *testing.T) {
	as := New(1)
	v := as.Mmap(1, false, "")
	as.Install(v.Start, &mem.Page{})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on double map")
		}
	}()
	as.Install(v.Start, &mem.Page{})
}

func TestWalkOrderAndBounds(t *testing.T) {
	as := New(1)
	v := as.Mmap(2000, false, "big") // spans multiple leaves
	for i := 0; i < 2000; i += 3 {
		as.Install(v.Start+VPN(i), &mem.Page{})
	}
	var visited []VPN
	as.WalkVMA(v, func(vpn VPN, pg *mem.Page) {
		visited = append(visited, vpn)
	})
	if len(visited) != (2000+2)/3 {
		t.Fatalf("visited %d, want %d", len(visited), (2000+2)/3)
	}
	for i := 1; i < len(visited); i++ {
		if visited[i] <= visited[i-1] {
			t.Fatal("walk not ascending")
		}
	}
	// Sub-range walk.
	var sub []VPN
	as.Walk(v.Start+10, v.Start+20, func(vpn VPN, pg *mem.Page) { sub = append(sub, vpn) })
	for _, vpn := range sub {
		if vpn < v.Start+10 || vpn >= v.Start+20 {
			t.Fatalf("walk out of range: %v", vpn)
		}
	}
}

func TestWalkAllowsUnmap(t *testing.T) {
	as := New(1)
	v := as.Mmap(50, false, "")
	for i := 0; i < 50; i++ {
		as.Install(v.Start+VPN(i), &mem.Page{})
	}
	as.WalkVMA(v, func(vpn VPN, pg *mem.Page) { as.Unmap(vpn) })
	if as.Mapped() != 0 {
		t.Fatalf("Mapped = %d after unmapping walk", as.Mapped())
	}
}

func TestTouchSetsBits(t *testing.T) {
	pg := &mem.Page{}
	Touch(pg, false)
	if !pg.Accessed || pg.HWDirty {
		t.Fatal("read touch")
	}
	Touch(pg, true)
	if !pg.HWDirty || !pg.Flags.Has(mem.FlagDirty) {
		t.Fatal("write touch must dirty the page")
	}
}

func TestPoisonUnpoison(t *testing.T) {
	pg := &mem.Page{}
	Poison(pg)
	if !pg.Flags.Has(mem.FlagPoisoned) {
		t.Fatal("Poison")
	}
	Unpoison(pg)
	if pg.Flags.Has(mem.FlagPoisoned) {
		t.Fatal("Unpoison")
	}
}

// Property: Install/Lookup/Unmap behave like a map[VPN]*Page.
func TestPageTableMapEquivalence(t *testing.T) {
	f := func(keys []uint32, unmapEvery uint8) bool {
		as := New(1)
		model := map[VPN]*mem.Page{}
		step := int(unmapEvery%5) + 2
		for i, k := range keys {
			vpn := VPN(k) & MaxVPN
			if i%step == 0 {
				got := as.Unmap(vpn)
				want := model[vpn]
				if got != want {
					return false
				}
				delete(model, vpn)
				continue
			}
			if model[vpn] == nil {
				pg := &mem.Page{}
				as.Install(vpn, pg)
				model[vpn] = pg
			}
		}
		if as.Mapped() != len(model) {
			return false
		}
		for vpn, pg := range model {
			if as.Lookup(vpn) != pg {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestSwapBitsetAgainstMap drives swap residency — mark, take, re-mark, the
// count and the ascending listing — against a map, over VPNs chosen at the
// bitset's word and growth boundaries and at both ends of the address space.
func TestSwapBitsetAgainstMap(t *testing.T) {
	as := New(1)
	model := map[VPN]bool{}
	check := func(when string) {
		t.Helper()
		if as.Swapped() != len(model) {
			t.Fatalf("%s: Swapped() = %d, model %d", when, as.Swapped(), len(model))
		}
		want := make([]VPN, 0, len(model))
		for v := range model {
			want = append(want, v)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		got := as.SwappedVPNs()
		if len(got) != len(want) {
			t.Fatalf("%s: SwappedVPNs lists %d pages, model %d", when, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: SwappedVPNs[%d] = %#x, model %#x (must ascend)", when, i, got[i], want[i])
			}
		}
	}
	if as.TakeSwapped(0) || as.TakeSwapped(MaxVPN) || as.TakeSwapped(MaxVPN+(1<<20)) {
		t.Fatal("an empty space reported swap residency")
	}
	check("empty")

	// Word edges, the doubling steps of a set that grows from nothing, and
	// the last page of the address space (which sizes the set to its limit).
	edges := []VPN{0, 1, 62, 63, 64, 65, 127, 128, 129, 4095, 4096, 4097, 8191, 8192, 70_000, 1 << 20, MaxVPN - 64, MaxVPN - 1, MaxVPN}
	for _, v := range edges {
		as.MarkSwapped(v)
		model[v] = true
		check("mark edge")
	}
	as.MarkSwapped(64) // re-marking a resident page counts it once
	check("re-mark")
	for _, v := range edges[:8] {
		if !as.TakeSwapped(v) || as.TakeSwapped(v) {
			t.Fatalf("TakeSwapped(%#x) must report the page exactly once", v)
		}
		delete(model, v)
		check("take edge")
	}

	rng := sim.NewRNG(9)
	for step := 0; step < 20_000; step++ {
		v := VPN(rng.Intn(3000))
		if rng.Intn(8) == 0 {
			v = edges[rng.Intn(len(edges))]
		}
		if rng.Intn(2) == 0 {
			as.MarkSwapped(v)
			model[v] = true
		} else {
			if got := as.TakeSwapped(v); got != model[v] {
				t.Fatalf("step %d: TakeSwapped(%#x) = %v, model %v", step, v, got, model[v])
			}
			delete(model, v)
		}
		if step%500 == 0 {
			check("random")
		}
	}
	check("end")

	defer func() {
		if recover() == nil {
			t.Fatal("marking a page past the address space did not panic")
		}
	}()
	as.MarkSwapped(MaxVPN + 1)
}
