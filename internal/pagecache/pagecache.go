// Package pagecache models file-backed memory: files whose pages enter the
// machine's page cache on read/write and ride the *file* LRU lists. This
// exercises the supervised access path (§III-A.1 — the kernel calls
// mark_page_accessed itself on syscall I/O) and the file promote lists;
// MULTI-CLOCK manages "all types of pages, anonymous and file-backed"
// (§VI), which distinguishes it from NUMA-balancing-based tiering that
// handles anonymous pages only.
package pagecache

import (
	"fmt"

	"multiclock/internal/machine"
	"multiclock/internal/mem"
	"multiclock/internal/pagetable"
	"multiclock/internal/sim"
)

// File is one simulated file whose cached pages live on the machine.
type File struct {
	Name  string
	Pages int

	m   *machine.Machine
	as  *pagetable.AddressSpace
	vma *pagetable.VMA

	// Stats
	Reads, Writes   int64
	CacheMisses     int64
	WritebackBytes  int64
	readDiskLatency sim.Duration
}

// Cache is a set of files sharing one address space (the kernel's page
// cache is global; one space models it).
type Cache struct {
	m  *machine.Machine
	as *pagetable.AddressSpace

	// files holds the open files in Open order, the order the flusher
	// cleans them in (a map's would differ from run to run).
	files []*File

	flusher *sim.Daemon
	// FlushedPages counts pages cleaned by the background flusher.
	FlushedPages int64
}

// New creates a page cache on the machine.
func New(m *machine.Machine) *Cache {
	return &Cache{m: m, as: m.NewSpace()}
}

// StartFlusher installs a background writeback daemon (the kernel's
// flusher threads): every interval it cleans all dirty resident pages,
// charging storage-write time as daemon interference. Demoting or evicting
// a clean page is cheaper than a dirty one, so flushing interacts with
// tiering exactly as writeback interacts with reclaim.
func (c *Cache) StartFlusher(interval sim.Duration) {
	if c.flusher != nil {
		panic("pagecache: flusher already running")
	}
	c.flusher = c.m.Clock.StartDaemon("flusher", interval, func(now sim.Time) {
		for _, f := range c.files {
			n := f.flush()
			c.FlushedPages += int64(n)
			c.m.ChargeTax(sim.Duration(n) * c.m.Mem.Lat.Writeback)
		}
	})
}

// StopFlusher halts the daemon.
func (c *Cache) StopFlusher() {
	if c.flusher != nil {
		c.flusher.Stop()
		c.flusher = nil
	}
}

// Space returns the cache's address space.
func (c *Cache) Space() *pagetable.AddressSpace { return c.as }

// Open creates (or returns) a file of the given size in pages.
func (c *Cache) Open(name string, pages int) *File {
	for _, f := range c.files {
		if f.Name != name {
			continue
		}
		if f.Pages != pages {
			panic(fmt.Sprintf("pagecache: %q reopened with different size", name))
		}
		return f
	}
	if pages <= 0 {
		panic("pagecache: file needs at least one page")
	}
	f := &File{
		Name:            name,
		Pages:           pages,
		m:               c.m,
		as:              c.as,
		vma:             c.as.Mmap(pages, true, "file:"+name),
		readDiskLatency: c.m.Mem.Lat.DiskRead,
	}
	c.files = append(c.files, f)
	return f
}

// page returns the VPN of page index i.
func (f *File) page(i int) pagetable.VPN {
	if i < 0 || i >= f.Pages {
		panic(fmt.Sprintf("pagecache: %q page %d out of [0,%d)", f.Name, i, f.Pages))
	}
	return f.vma.Start + pagetable.VPN(i)
}

// Cached reports whether page i is resident.
func (f *File) Cached(i int) bool { return f.as.Lookup(f.page(i)) != nil }

// touch performs one supervised access, charging a disk fill on a cache
// miss (the page was not resident).
func (f *File) touch(i int, write bool) *mem.Page {
	vpn := f.page(i)
	if f.as.Lookup(vpn) == nil {
		f.CacheMisses++
		f.m.Compute(f.readDiskLatency)
	}
	return f.m.SupervisedAccess(f.as, vpn, write)
}

// Read performs a syscall-style read of page i.
func (f *File) Read(i int) {
	f.Reads++
	f.touch(i, false)
}

// Write performs a syscall-style write of page i, dirtying it.
func (f *File) Write(i int) {
	f.Writes++
	f.touch(i, true)
}

// ReadRange reads pages [lo, hi).
func (f *File) ReadRange(lo, hi int) {
	for i := lo; i < hi; i++ {
		f.Read(i)
	}
}

// flush cleans dirty pages without charging the caller's timeline (daemon
// context); it returns the count.
func (f *File) flush() int {
	n := 0
	f.as.Walk(f.vma.Start, f.vma.End, func(vpn pagetable.VPN, pg *mem.Page) {
		if pg.Flags.Has(mem.FlagDirty) {
			pg.ClearFlags(mem.FlagDirty)
			pg.HWDirty = false
			n++
		}
	})
	f.WritebackBytes += int64(n) * mem.PageSize
	return n
}

// Writeback synchronously cleans all resident dirty pages (fsync),
// charging storage-write time to the caller, and returns how many pages
// were written.
func (f *File) Writeback() int {
	n := f.flush()
	f.m.Compute(sim.Duration(n) * f.m.Mem.Lat.Writeback)
	return n
}

// Drop evicts every resident page of the file (echo 1 >
// /proc/sys/vm/drop_caches for one file).
func (f *File) Drop() {
	f.as.Walk(f.vma.Start, f.vma.End, func(vpn pagetable.VPN, pg *mem.Page) {
		f.m.Unmap(f.as, vpn)
	})
}

// Resident returns the number of cached pages.
func (f *File) Resident() int {
	n := 0
	f.as.Walk(f.vma.Start, f.vma.End, func(pagetable.VPN, *mem.Page) { n++ })
	return n
}
