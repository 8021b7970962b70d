package mem

import (
	"fmt"
	"math/bits"
)

// MaxOrder is the largest buddy block: 2^9 frames = 2 MiB, the huge-page
// size on x86 — the granularity a THP extension would allocate at.
const MaxOrder = 9

// buddy is a binary-buddy frame allocator for one node, the analogue of
// the kernel's zone free lists in mm/page_alloc.c: per-order free sets,
// block splitting on allocation and buddy coalescing on free.
type buddy struct {
	frames int
	free   [MaxOrder + 1]blockSet
	// state[f] encodes frame f's role: stateAllocated, or order+1 when f
	// heads a free block of that order, or stateTail when f is inside a
	// free block headed elsewhere.
	state    []uint8
	nfree    int
	perOrder [MaxOrder + 1]int
}

const (
	stateAllocated uint8 = 0
	stateTail      uint8 = 0xff
)

// blockSet is one order's free blocks as a bitmap: bit i stands for the block
// at frame i<<order, and bit w of summary says word w of bits is non-zero —
// one summary word per 4 096 blocks — so the lowest free block is two
// find-first-set steps away and membership changes are single bit writes.
type blockSet struct {
	bits    []uint64
	summary []uint64
}

func newBlockSet(blocks int) blockSet {
	words := (blocks + 63) / 64
	return blockSet{bits: make([]uint64, words), summary: make([]uint64, (words+63)/64)}
}

func (s *blockSet) has(i int) bool { return s.bits[i>>6]&(1<<(i&63)) != 0 }

func (s *blockSet) set(i int) {
	w := i >> 6
	s.bits[w] |= 1 << (i & 63)
	s.summary[w>>6] |= 1 << (w & 63)
}

func (s *blockSet) clear(i int) {
	w := i >> 6
	if s.bits[w] &^= 1 << (i & 63); s.bits[w] == 0 {
		s.summary[w>>6] &^= 1 << (w & 63)
	}
}

// popMin removes and returns the lowest member of a set that has one.
func (s *blockSet) popMin() int {
	for i, sw := range s.summary {
		if sw != 0 {
			w := i<<6 | bits.TrailingZeros64(sw)
			m := w<<6 | bits.TrailingZeros64(s.bits[w])
			s.clear(m)
			return m
		}
	}
	panic("mem: popMin of an empty block set")
}

// each visits the members in ascending order.
func (s *blockSet) each(fn func(i int)) {
	for w, word := range s.bits {
		for ; word != 0; word &= word - 1 {
			fn(w<<6 | bits.TrailingZeros64(word))
		}
	}
}

func (s *blockSet) reset() {
	clear(s.bits)
	clear(s.summary)
}

// newBuddy covers [0, frames) greedily with maximal aligned blocks.
func newBuddy(frames int) *buddy {
	b := &buddy{frames: frames, state: make([]uint8, frames)}
	for o := range b.free {
		b.free[o] = newBlockSet(frames >> o)
	}
	for i := range b.state {
		b.state[i] = stateTail
	}
	f := 0
	for f < frames {
		o := MaxOrder
		for o > 0 && (f&(1<<o-1) != 0 || f+(1<<o) > frames) {
			o--
		}
		b.insert(FrameID(f), o)
		f += 1 << o
	}
	b.nfree = frames
	return b
}

// insert adds a free block without coalescing. Only the head's state is
// written: the caller has already left the rest of the block marked as tails.
func (b *buddy) insert(f FrameID, order int) {
	b.free[order].set(int(f) >> order)
	b.state[f] = uint8(order) + 1
	b.perOrder[order]++
}

// removeFrom deletes block f from the order's free set.
func (b *buddy) removeFrom(f FrameID, order int) {
	i := int(f) >> order
	if !b.free[order].has(i) {
		panic(fmt.Sprintf("mem: buddy block %d missing from order-%d free set", f, order))
	}
	b.free[order].clear(i)
	b.perOrder[order]--
}

// Alloc returns the first frame of a 2^order block, or NoFrame.
func (b *buddy) Alloc(order int) FrameID {
	if order < 0 || order > MaxOrder {
		panic("mem: buddy order out of range")
	}
	o := order
	for o <= MaxOrder && b.perOrder[o] == 0 {
		o++
	}
	if o > MaxOrder {
		return NoFrame
	}
	// Pop the lowest-addressed block for deterministic, kernel-like
	// low-memory-first behaviour.
	f := FrameID(b.free[o].popMin() << o)
	b.perOrder[o]--

	// Split down to the requested order, returning upper halves.
	for o > order {
		o--
		b.insert(f+FrameID(1<<o), o)
	}
	for i := int(f); i < int(f)+(1<<order); i++ {
		b.state[i] = stateAllocated
	}
	b.nfree -= 1 << order
	return f
}

// Free returns a 2^order block and coalesces with free buddies.
func (b *buddy) Free(f FrameID, order int) {
	if order < 0 || order > MaxOrder {
		panic("mem: buddy order out of range")
	}
	if int(f)&(1<<order-1) != 0 {
		panic(fmt.Sprintf("mem: freeing misaligned order-%d block at %d", order, f))
	}
	if int(f)+(1<<order) > b.frames {
		panic("mem: freeing past end of node")
	}
	if b.state[f] != stateAllocated {
		panic(fmt.Sprintf("mem: double free of frame %d", f))
	}
	b.nfree += 1 << order
	for i := int(f) + 1; i < int(f)+(1<<order); i++ {
		b.state[i] = stateTail
	}
	for order < MaxOrder {
		bud := f ^ FrameID(1<<order)
		if int(bud)+(1<<order) > b.frames || b.state[bud] != uint8(order)+1 {
			break
		}
		b.removeFrom(bud, order)
		// The upper half's head becomes a tail of the merged block.
		if bud < f {
			f, bud = bud, f
		}
		b.state[bud] = stateTail
		order++
	}
	b.insert(f, order)
}

// FreeFrames reports free frames.
func (b *buddy) FreeFrames() int { return b.nfree }

// FreeBlocks reports free block counts per order (diagnostics and
// fragmentation tests).
func (b *buddy) FreeBlocks() [MaxOrder + 1]int { return b.perOrder }
