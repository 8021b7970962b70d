package kvstore

import (
	"errors"
	"testing"
	"testing/quick"

	"multiclock/internal/machine"
	"multiclock/internal/policy"
)

func newStore(items int) (*machine.Machine, *Store) {
	cfg := machine.DefaultConfig()
	cfg.Mem.DRAMNodes = []int{2048}
	cfg.Mem.PMNodes = []int{8192}
	cfg.OpCost = 0
	cfg.CPUCachePages = 0
	m := machine.New(cfg, policy.NewStatic())
	return m, New(m, DefaultConfig(items))
}

// itemOf returns key's item reference, zero when absent.
func itemOf(s *Store, key uint64) itemRef {
	if w := s.items.get(hash(key), key); w != 0 {
		return unpack(w)
	}
	return itemRef{}
}

func TestGetMissThenHit(t *testing.T) {
	m, s := newStore(1000)
	if s.Get(42) {
		t.Fatal("hit on empty store")
	}
	s.Insert(42, 1000)
	if !s.Get(42) {
		t.Fatal("miss after insert")
	}
	if s.Stats.Gets != 2 || s.Stats.GetHits != 1 || s.Stats.Inserts != 1 {
		t.Fatalf("stats: %+v", s.Stats)
	}
	if s.Items() != 1 {
		t.Fatal("item count")
	}
	_ = m
}

func TestAccessesAreSimulated(t *testing.T) {
	m, s := newStore(1000)
	before := m.Mem.Counters.TotalAccesses()
	s.Insert(1, 500)
	s.Get(1)
	delta := m.Mem.Counters.TotalAccesses() - before
	// Insert: bucket write + item write (+ faults count as accesses via
	// Touch on the same access) = 2; Get: bucket read + item read = 2.
	if delta != 4 {
		t.Fatalf("accesses = %d, want 4", delta)
	}
}

func TestSetOverwritesInPlace(t *testing.T) {
	_, s := newStore(1000)
	s.Insert(7, 900)
	mapped := s.Space().Mapped()
	s.Set(7, 800) // same 1024 class: in place
	if s.Space().Mapped() != mapped {
		t.Fatal("in-place set allocated")
	}
	if s.Items() != 1 {
		t.Fatal("item duplicated")
	}
}

func TestSetGrowsClass(t *testing.T) {
	_, s := newStore(1000)
	s.Insert(7, 100) // class 128
	s.Set(7, 3000)   // class 4096: reallocates
	if !s.Get(7) {
		t.Fatal("lost item after grow")
	}
}

func TestSetAbsentInserts(t *testing.T) {
	_, s := newStore(1000)
	s.Set(9, 100)
	if !s.Get(9) || s.Items() != 1 {
		t.Fatal("set-absent did not insert")
	}
}

func TestDelete(t *testing.T) {
	_, s := newStore(1000)
	s.Insert(1, 100)
	if !s.Delete(1) {
		t.Fatal("delete miss on present key")
	}
	if s.Delete(1) {
		t.Fatal("delete hit on absent key")
	}
	if s.Get(1) {
		t.Fatal("get after delete")
	}
}

func TestSlabReuseAfterDelete(t *testing.T) {
	_, s := newStore(1000)
	s.Insert(1, 100)
	ref1 := itemOf(s, 1)
	s.Delete(1)
	s.Insert(2, 100)
	if itemOf(s, 2).vpn != ref1.vpn {
		t.Fatal("freed chunk not reused")
	}
}

func TestReadModifyWrite(t *testing.T) {
	m, s := newStore(1000)
	s.Insert(5, 1000)
	before := m.Mem.Counters.TotalAccesses()
	if !s.ReadModifyWrite(5) {
		t.Fatal("rmw miss")
	}
	if got := m.Mem.Counters.TotalAccesses() - before; got != 3 {
		t.Fatalf("rmw accesses = %d, want 3 (bucket, read, write)", got)
	}
	if s.ReadModifyWrite(999) {
		t.Fatal("rmw hit on absent key")
	}
}

func TestScanUnsupported(t *testing.T) {
	_, s := newStore(1000)
	if err := s.Scan(0, 10); !errors.Is(err, ErrNoScan) {
		t.Fatalf("Scan error = %v", err)
	}
	if s.Stats.ScanRejects != 1 {
		t.Fatal("scan reject not counted")
	}
}

func TestLargeItemsSpanPages(t *testing.T) {
	_, s := newStore(1000)
	s.Insert(1, 3*4096+10)
	ref := itemOf(s, 1)
	if ref.npages != 4 || ref.class != -1 {
		t.Fatalf("large item ref: %+v", ref)
	}
	if !s.Get(1) {
		t.Fatal("large item get")
	}
	mapped := s.Space().Mapped()
	s.Delete(1)
	if s.Space().Mapped() != mapped-4 {
		t.Fatal("large item pages not released")
	}
}

func TestSlabPacking(t *testing.T) {
	_, s := newStore(1000)
	// 64-byte items: 64 fit per page.
	for i := uint64(0); i < 64; i++ {
		s.Insert(i, 60)
	}
	first := itemOf(s, 0).vpn
	for i := uint64(1); i < 64; i++ {
		if itemOf(s, i).vpn != first {
			t.Fatalf("item %d not packed on first page", i)
		}
	}
	s.Insert(64, 60)
	if itemOf(s, 64).vpn == first {
		t.Fatal("65th item packed on full page")
	}
}

func TestClassFor(t *testing.T) {
	cases := map[int]int{1: 0, 64: 0, 65: 1, 1024: 4, 4096: 6, 4097: -1}
	for size, want := range cases {
		if got := classFor(size); got != want {
			t.Errorf("classFor(%d) = %d, want %d", size, got, want)
		}
	}
}

func TestManyKeysNoCollisionLoss(t *testing.T) {
	_, s := newStore(10000)
	const n = 5000
	for i := uint64(0); i < n; i++ {
		s.Insert(i, 100+int(i%900))
	}
	if s.Items() != n {
		t.Fatalf("items = %d, want %d", s.Items(), n)
	}
	for i := uint64(0); i < n; i++ {
		if !s.Get(i) {
			t.Fatalf("key %d lost", i)
		}
	}
}

// Property: the store behaves like a map under arbitrary op sequences.
func TestStoreMapEquivalence(t *testing.T) {
	type op struct {
		Kind uint8
		Key  uint8
		Size uint16
	}
	f := func(ops []op) bool {
		_, s := newStore(1000)
		model := map[uint64]bool{}
		for _, o := range ops {
			key := uint64(o.Key % 32)
			size := int(o.Size%5000) + 1
			switch o.Kind % 4 {
			case 0:
				s.Insert(key, size)
				model[key] = true
			case 1:
				s.Set(key, size)
				model[key] = true
			case 2:
				if s.Delete(key) != model[key] {
					return false
				}
				delete(model, key)
			case 3:
				if s.Get(key) != model[key] {
					return false
				}
			}
		}
		if s.Items() != len(model) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultConfigFloor(t *testing.T) {
	cfg := DefaultConfig(10)
	if cfg.Buckets < bucketsPerPage {
		t.Fatal("bucket floor")
	}
}

func TestHugeArenaStore(t *testing.T) {
	cfg := machine.DefaultConfig()
	cfg.Mem.DRAMNodes = []int{4096}
	cfg.Mem.PMNodes = []int{8192}
	cfg.OpCost = 0
	cfg.CPUCachePages = 0
	m := machine.New(cfg, policy.NewStatic())
	scfg := DefaultConfig(2000)
	scfg.HugeArena = true
	s := New(m, scfg)
	for i := uint64(0); i < 2000; i++ {
		s.Insert(i, 1000)
	}
	for i := uint64(0); i < 2000; i++ {
		if !s.Get(i) {
			t.Fatalf("key %d lost in huge arena", i)
		}
	}
	// Item memory is huge-backed: far fewer faults than pages.
	if m.Mem.Counters.MinorFaults > 100 {
		t.Fatalf("minor faults = %d; huge arena should fault per region", m.Mem.Counters.MinorFaults)
	}
	// Large (page-spanning) items work and their frees do not unmap.
	s.Insert(9999, 3*4096)
	mapped := s.Space().Mapped()
	s.Delete(9999)
	if s.Space().Mapped() != mapped {
		t.Fatal("huge arena free unmapped pages out of a shared region")
	}
}
