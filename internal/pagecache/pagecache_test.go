package pagecache

import (
	"testing"

	"multiclock/internal/core"
	"multiclock/internal/lru"
	"multiclock/internal/machine"
	"multiclock/internal/mem"
	"multiclock/internal/sim"
)

func newMachine(dram, pm int) (*machine.Machine, *core.MultiClock) {
	mc := core.New(core.Config{ScanInterval: 10 * sim.Millisecond})
	cfg := machine.DefaultConfig()
	cfg.Mem.DRAMNodes = []int{dram}
	cfg.Mem.PMNodes = []int{pm}
	cfg.OpCost = 0
	cfg.CPUCachePages = 0
	return machine.New(cfg, mc), mc
}

func TestOpenAndReopen(t *testing.T) {
	m, _ := newMachine(256, 1024)
	c := New(m)
	f := c.Open("data.db", 100)
	if f.Pages != 100 || f.Name != "data.db" {
		t.Fatal("open")
	}
	if c.Open("data.db", 100) != f {
		t.Fatal("reopen returned a different file")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("size mismatch not caught")
		}
	}()
	c.Open("data.db", 200)
}

func TestOpenValidation(t *testing.T) {
	m, _ := newMachine(64, 64)
	c := New(m)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	c.Open("empty", 0)
}

func TestReadFillsCache(t *testing.T) {
	m, _ := newMachine(256, 1024)
	c := New(m)
	f := c.Open("f", 10)
	if f.Cached(0) {
		t.Fatal("cold file has resident pages")
	}
	before := m.Clock.Now()
	f.Read(0)
	if !f.Cached(0) || f.Resident() != 1 {
		t.Fatal("read did not populate the cache")
	}
	if f.CacheMisses != 1 {
		t.Fatal("miss not counted")
	}
	// Miss costs a disk fill.
	if sim.Duration(m.Clock.Now()-before) < m.Mem.Lat.DiskRead {
		t.Fatal("disk fill not charged")
	}
	// Second read is a hit: cheap.
	before = m.Clock.Now()
	f.Read(0)
	if sim.Duration(m.Clock.Now()-before) >= m.Mem.Lat.DiskRead {
		t.Fatal("cache hit paid disk latency")
	}
	if f.CacheMisses != 1 {
		t.Fatal("hit counted as miss")
	}
}

func TestFilePagesAreFileBacked(t *testing.T) {
	m, _ := newMachine(256, 1024)
	c := New(m)
	f := c.Open("f", 4)
	f.Read(2)
	pg := c.Space().Lookup(f.page(2))
	if pg == nil || !pg.IsFile() {
		t.Fatal("page not file-backed")
	}
	// Supervised access advanced the file LRU immediately.
	if !pg.Flags.Has(mem.FlagReferenced) {
		t.Fatal("supervised read did not mark the page")
	}
}

// TestHotFilePagesClimbToFilePromoteList: repeated syscall reads must walk
// a file page up the ladder onto the *file* promote list — the supervised
// path needs no scanner.
func TestHotFilePagesClimbToFilePromoteList(t *testing.T) {
	m, _ := newMachine(256, 1024)
	c := New(m)
	f := c.Open("hot", 1)
	for i := 0; i < 4; i++ {
		f.Read(0)
	}
	pg := c.Space().Lookup(f.page(0))
	if !pg.Flags.Has(mem.FlagPromote) {
		t.Fatalf("hot file page not on promote list (flags %b)", pg.Flags)
	}
	if m.Vecs[pg.Node].Len(lru.PromoteFile) != 1 {
		t.Fatal("file promote list empty")
	}
}

// TestHotFilePagesPromoteAcrossTiers: a file page resident in PM that gets
// hot must be migrated to DRAM like any anonymous page (§VI: "a complete
// solution").
func TestHotFilePagesPromoteAcrossTiers(t *testing.T) {
	m, _ := newMachine(128, 1024)
	c := New(m)
	// Fill DRAM with a big cold file, pushing later files to PM.
	cold := c.Open("cold", 200)
	cold.ReadRange(0, 200)
	hot := c.Open("hot", 8)
	hot.ReadRange(0, 8)
	var pmPages int
	for i := 0; i < 8; i++ {
		if pg := c.Space().Lookup(hot.page(i)); m.Mem.Tier(pg) == mem.TierPM {
			pmPages++
		}
	}
	if pmPages == 0 {
		t.Skip("hot file landed entirely in DRAM")
	}
	for round := 0; round < 8; round++ {
		hot.ReadRange(0, 8)
		m.Compute(11 * sim.Millisecond)
	}
	inDRAM := 0
	for i := 0; i < 8; i++ {
		if pg := c.Space().Lookup(hot.page(i)); pg != nil && m.Mem.Tier(pg) == mem.TierDRAM {
			inDRAM++
		}
	}
	if inDRAM != 8 {
		t.Fatalf("only %d/8 hot file pages promoted to DRAM", inDRAM)
	}
	if m.Mem.Counters.Promotions == 0 {
		t.Fatal("no promotions counted")
	}
}

func TestWriteDirtiesAndWritebackCleans(t *testing.T) {
	m, _ := newMachine(256, 1024)
	c := New(m)
	f := c.Open("f", 10)
	f.Write(3)
	f.Write(7)
	pg := c.Space().Lookup(f.page(3))
	if !pg.Flags.Has(mem.FlagDirty) {
		t.Fatal("write did not dirty")
	}
	before := m.Clock.Now()
	if n := f.Writeback(); n != 2 {
		t.Fatalf("writeback cleaned %d pages, want 2", n)
	}
	if pg.Flags.Has(mem.FlagDirty) {
		t.Fatal("page still dirty")
	}
	if m.Clock.Now() == before {
		t.Fatal("writeback cost no time")
	}
	if f.Writeback() != 0 {
		t.Fatal("second writeback found dirty pages")
	}
	if f.WritebackBytes != 2*mem.PageSize {
		t.Fatal("writeback accounting")
	}
}

func TestDropEvicts(t *testing.T) {
	m, _ := newMachine(256, 1024)
	c := New(m)
	f := c.Open("f", 10)
	f.ReadRange(0, 10)
	used := m.Mem.Nodes[0].UsedFrames()
	f.Drop()
	if f.Resident() != 0 {
		t.Fatal("pages still resident after drop")
	}
	if m.Mem.Nodes[0].UsedFrames() >= used {
		t.Fatal("frames not released")
	}
	// Re-read misses again.
	misses := f.CacheMisses
	f.Read(0)
	if f.CacheMisses != misses+1 {
		t.Fatal("re-read after drop did not miss")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	m, _ := newMachine(64, 64)
	c := New(m)
	f := c.Open("f", 4)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	f.Read(4)
}

func TestBackgroundFlusher(t *testing.T) {
	m, _ := newMachine(256, 1024)
	c := New(m)
	f := c.Open("log", 16)
	c.StartFlusher(5 * sim.Millisecond)
	for i := 0; i < 16; i++ {
		f.Write(i)
	}
	m.Compute(6 * sim.Millisecond)
	if c.FlushedPages != 16 {
		t.Fatalf("flusher cleaned %d pages, want 16", c.FlushedPages)
	}
	pg := c.Space().Lookup(f.page(0))
	if pg.Flags.Has(mem.FlagDirty) {
		t.Fatal("page still dirty after flush interval")
	}
	// Re-dirty and verify periodic behaviour.
	f.Write(3)
	m.Compute(6 * sim.Millisecond)
	if c.FlushedPages != 17 {
		t.Fatalf("second flush count = %d", c.FlushedPages)
	}
	c.StopFlusher()
	f.Write(5)
	m.Compute(20 * sim.Millisecond)
	if c.FlushedPages != 17 {
		t.Fatal("stopped flusher kept cleaning")
	}
	// Double start is a programming error.
	c.StartFlusher(5 * sim.Millisecond)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on double start")
		}
	}()
	c.StartFlusher(5 * sim.Millisecond)
}
