package mem

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"testing"

	"multiclock/internal/sim"
	"multiclock/internal/snapcodec"
)

// refBuddy is the reference allocator the bitmap buddy is checked against:
// per-order sets of free block heads and nothing derived — "allocate" is the
// minimum of a set found by looking at every member, "free" asks the set
// whether the buddy is in it. It is the specification; keep it naive.
type refBuddy struct {
	frames int
	free   [MaxOrder + 1]map[FrameID]bool
}

func newRefBuddy(frames int) *refBuddy {
	r := &refBuddy{frames: frames}
	for o := range r.free {
		r.free[o] = map[FrameID]bool{}
	}
	for f := 0; f < frames; {
		o := MaxOrder
		for o > 0 && (f&(1<<o-1) != 0 || f+(1<<o) > frames) {
			o--
		}
		r.free[o][FrameID(f)] = true
		f += 1 << o
	}
	return r
}

func (r *refBuddy) alloc(order int) FrameID {
	o := order
	for o <= MaxOrder && len(r.free[o]) == 0 {
		o++
	}
	if o > MaxOrder {
		return NoFrame
	}
	f := NoFrame
	for head := range r.free[o] {
		if f == NoFrame || head < f {
			f = head
		}
	}
	delete(r.free[o], f)
	for o > order {
		o--
		r.free[o][f+FrameID(1<<o)] = true
	}
	return f
}

func (r *refBuddy) release(f FrameID, order int) {
	for order < MaxOrder {
		bud := f ^ FrameID(1<<order)
		if int(bud)+(1<<order) > r.frames || !r.free[order][bud] {
			break
		}
		delete(r.free[order], bud)
		if bud < f {
			f = bud
		}
		order++
	}
	r.free[order][f] = true
}

func (r *refBuddy) blocks() (out [MaxOrder + 1]int) {
	for o := range r.free {
		out[o] = len(r.free[o])
	}
	return out
}

// snapshot is the checkpoint encoding by its definition: per order, the
// count, then the block heads ascending.
func (r *refBuddy) snapshot() []byte {
	enc := snapcodec.NewEncoder()
	for o := range r.free {
		heads := make([]int, 0, len(r.free[o]))
		for f := range r.free[o] {
			heads = append(heads, int(f))
		}
		sort.Ints(heads)
		enc.Int(len(heads))
		for _, f := range heads {
			enc.U32(uint32(f))
		}
	}
	return enc.Bytes()
}

// checkStructure verifies everything the allocator derives from its free
// sets: block placement, the per-frame state codes, the summary words and
// the counts.
func (b *buddy) checkStructure() error {
	want := make([]uint8, b.frames) // stateAllocated unless covered below
	nfree := 0
	for o := range b.free {
		s, n := &b.free[o], 0
		var err error
		s.each(func(i int) {
			n++
			f := i << o
			if f+(1<<o) > b.frames && err == nil {
				err = fmt.Errorf("order-%d block %d runs past frame %d", o, f, b.frames)
				return
			}
			for j := f; j < f+(1<<o); j++ {
				if want[j] != stateAllocated && err == nil {
					err = fmt.Errorf("frame %d is in two free blocks", j)
				}
				want[j] = stateTail
			}
			want[f] = uint8(o) + 1
		})
		if err != nil {
			return err
		}
		if n != b.perOrder[o] {
			return fmt.Errorf("order %d holds %d blocks, perOrder says %d", o, n, b.perOrder[o])
		}
		nfree += n << o
		for w, word := range s.bits {
			if summarised := s.summary[w>>6]&(1<<(w&63)) != 0; summarised != (word != 0) {
				return fmt.Errorf("order %d summary bit %d is %v over word %#x", o, w, summarised, word)
			}
		}
	}
	if nfree != b.nfree {
		return fmt.Errorf("free sets cover %d frames, nfree says %d", nfree, b.nfree)
	}
	for f := range want {
		if b.state[f] != want[f] {
			return fmt.Errorf("state[%d] = %#x, want %#x", f, b.state[f], want[f])
		}
	}
	return nil
}

// buddyBytes is b's checkpoint.
func buddyBytes(b *buddy) []byte {
	c := snapcodec.NewWriter()
	b.checkpoint(c)
	return c.Bytes()
}

// agree compares the allocator with the model: inventory, structure and
// checkpoint bytes.
func agree(b *buddy, r *refBuddy) error {
	if b.FreeBlocks() != r.blocks() {
		return fmt.Errorf("FreeBlocks %v, model %v", b.FreeBlocks(), r.blocks())
	}
	if err := b.checkStructure(); err != nil {
		return err
	}
	if !bytes.Equal(buddyBytes(b), r.snapshot()) {
		return fmt.Errorf("snapshot bytes differ from the model's")
	}
	return nil
}

type heldBlock struct {
	f     FrameID
	order int
}

// TestBuddyAgainstModel drives random Alloc/Free over every order on node
// sizes on both sides of word, summary-word and block boundaries, and requires
// the frame sequence, the inventory and the checkpoint bytes of the model. A
// checkpoint round trip mid-run must leave the continuation identical.
func TestBuddyAgainstModel(t *testing.T) {
	for _, frames := range []int{1, 2, 63, 64, 65, 511, 512, 513, 1000, 1536, 4095, 4096, 4097, 9000} {
		t.Run(fmt.Sprint(frames), func(t *testing.T) {
			b, r := newBuddy(frames), newRefBuddy(frames)
			if err := agree(b, r); err != nil {
				t.Fatalf("fresh: %v", err)
			}
			rng := sim.NewRNG(uint64(frames))
			var held []heldBlock
			for step := 0; step < 3000; step++ {
				// Phases fill the node, drain it, and hover in between.
				fill := []int{8, 2, 5}[step/1000]
				if len(held) == 0 || rng.Intn(10) < fill {
					order := rng.Intn(MaxOrder + 1)
					if rng.Intn(3) > 0 {
						order = rng.Intn(3) // mostly small blocks, as in a run
					}
					f, want := b.Alloc(order), r.alloc(order)
					if f != want {
						t.Fatalf("step %d: Alloc(%d) = %d, model %d", step, order, f, want)
					}
					if f != NoFrame {
						held = append(held, heldBlock{f, order})
					}
				} else {
					i := rng.Intn(len(held))
					b.Free(held[i].f, held[i].order)
					r.release(held[i].f, held[i].order)
					held[i] = held[len(held)-1]
					held = held[:len(held)-1]
				}
				if frames <= 1536 || step%16 == 0 {
					if err := agree(b, r); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
				}
				if step == 1500 {
					snap := buddyBytes(b)
					b = newBuddy(frames)
					if err := b.checkpoint(snapcodec.NewReader(snap)); err != nil {
						t.Fatalf("restore: %v", err)
					}
				}
			}
			for _, h := range held {
				b.Free(h.f, h.order)
				r.release(h.f, h.order)
			}
			if err := agree(b, r); err != nil {
				t.Fatalf("drained: %v", err)
			}
			if b.FreeFrames() != frames {
				t.Fatalf("drained node has %d of %d frames free", b.FreeFrames(), frames)
			}
		})
	}
}

// TestBuddyBadFreesPanic: the frees a bug could issue still stop the run.
func TestBuddyBadFreesPanic(t *testing.T) {
	for _, c := range []struct {
		name string
		fn   func(b *buddy)
		want string
	}{
		{"double free", func(b *buddy) { f := b.Alloc(0); b.Free(f, 0); b.Free(f, 0) }, "double free"},
		{"double free after coalescing", func(b *buddy) { f := b.Alloc(3); b.Free(f, 3); b.Free(f, 3) }, "double free"},
		{"free of a frame inside a free block", func(b *buddy) { b.Alloc(0); b.Free(5, 0) }, "double free"},
		{"free of a never-allocated block", func(b *buddy) { b.Free(64, 4) }, "double free"},
		{"misaligned", func(b *buddy) { b.Alloc(2); b.Free(2, 2) }, "misaligned"},
		{"past the end", func(b *buddy) { b.Free(96, 3) }, "past end"},
		{"order out of range", func(b *buddy) { b.Free(0, MaxOrder+1) }, "order out of range"},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, c.want) {
					t.Fatalf("panic %q, want one about %q", msg, c.want)
				}
			}()
			c.fn(newBuddy(100))
		})
	}
}

// fuzzFrames is the node size the fuzz targets use: not a power of two, more
// than one bitmap word at order 0, with a ragged tail of small blocks.
const fuzzFrames = 1100

// FuzzBuddyRestore: no checkpoint bytes may panic the decoder; whatever it
// accepts is a well-formed allocator that re-encodes to a canonical form.
func FuzzBuddyRestore(f *testing.F) {
	valid := func(prepare func(b *buddy)) []byte {
		b := newBuddy(fuzzFrames)
		prepare(b)
		return buddyBytes(b)
	}
	fresh := valid(func(*buddy) {})
	f.Add(fresh)
	f.Add(valid(func(b *buddy) {
		for i := 0; i < 300; i++ {
			b.Alloc(i % 4)
		}
		b.Free(8, 2)
		b.Free(64, 0)
	}))
	f.Add(fresh[:len(fresh)-3])
	lists := func(order0 ...uint32) []byte {
		enc := snapcodec.NewEncoder()
		enc.Int(len(order0))
		for _, v := range order0 {
			enc.U32(v)
		}
		for o := 1; o <= MaxOrder; o++ {
			enc.Int(0)
		}
		return enc.Bytes()
	}
	f.Add(lists(7, 7))        // one frame twice
	f.Add(lists(0xffff_fe00)) // a frame number that is negative as a FrameID
	f.Add(lists(fuzzFrames))  // first frame past the node
	f.Add(lists()[:4])        // truncated count
	f.Add(snapcodec.NewEncoder().Bytes())
	huge := snapcodec.NewEncoder()
	huge.Int(1 << 40) // claims more blocks than the node has frames
	f.Add(huge.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		b := newBuddy(fuzzFrames)
		if err := b.checkpoint(snapcodec.NewReader(data)); err != nil {
			return
		}
		if err := b.checkStructure(); err != nil {
			t.Fatalf("accepted a malformed allocator: %v", err)
		}
		snap := buddyBytes(b)
		again := newBuddy(fuzzFrames)
		if err := again.checkpoint(snapcodec.NewReader(snap)); err != nil {
			t.Fatalf("re-encoded state does not restore: %v", err)
		}
		if !bytes.Equal(snap, buddyBytes(again)) {
			t.Fatal("snapshot of a restored allocator is not a fixed point")
		}
	})
}

// FuzzBuddyOps decodes bytes into valid operations on a two-node System —
// block allocations of every order straight from the allocator (emergency, so
// no watermark decides), frees of what is held — and requires, after every
// step, the System's invariants, the model's frame (lowest block first) and
// inventory, and a newborn descriptor that carries nothing of its last life.
func FuzzBuddyOps(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1, 0, 1, 0})
	f.Add([]byte{36, 0, 36, 0, 36, 0, 1, 1, 1, 0, 36, 0})
	f.Add(bytes.Repeat([]byte{0, 0, 2, 0, 0, 0, 1, 3}, 64))
	f.Add(bytes.Repeat([]byte{38, 9, 6, 1, 1, 7}, 40))

	f.Fuzz(func(t *testing.T, data []byte) {
		sizes := []int{300, fuzzFrames}
		s := NewSystem(sim.NewClock(), Config{DRAMNodes: sizes[:1], PMNodes: sizes[1:]})
		refs := []*refBuddy{newRefBuddy(sizes[0]), newRefBuddy(sizes[1])}
		var held []*Page
		var lastSeq uint64
		for step := 0; step+1 < len(data); step += 2 {
			op, arg := data[step], data[step+1]
			node := NodeID(op >> 1 & 1)
			if op&1 == 0 || len(held) == 0 {
				order := int(op>>2) % (MaxOrder + 1)
				pg := s.AllocBlockOn(node, order, true)
				want := refs[node].alloc(order)
				if (pg == nil) != (want == NoFrame) || pg != nil && pg.Frame != want {
					t.Fatalf("step %d: AllocBlockOn(%d, %d) = %v, model frame %d", step, node, order, pg, want)
				}
				if pg != nil {
					if pg.Seq < lastSeq || pg.Flags != 0 || pg.Hist != 0 || pg.HasShadow() || pg.OnList() || pg.Space != -1 {
						t.Fatalf("step %d: newborn descriptor is not clean: %+v", step, *pg)
					}
					lastSeq = pg.Seq + 1
					pg.Flags, pg.Hist = FlagDirty|FlagReferenced, uint8(step)|1 // what a life leaves behind
					held = append(held, pg)
				}
			} else {
				i := int(arg) % len(held)
				pg := held[i]
				node = pg.Node
				refs[node].release(pg.Frame, int(pg.Order))
				s.Free(pg)
				held[i] = held[len(held)-1]
				held = held[:len(held)-1]
			}
			if err := s.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			if err := agree(s.Nodes[node].alloc, refs[node]); err != nil {
				t.Fatalf("step %d: node %d: %v", step, node, err)
			}
		}
	})
}
