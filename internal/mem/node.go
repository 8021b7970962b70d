package mem

import "fmt"

// Watermarks are the per-node free-memory thresholds that drive proactive
// reclaim, following the kernel's min/low/high scheme (§III-C: "a tier is
// marked under memory pressure proactively when it reaches specific
// watermark levels ... calculated according to the amount of memory in the
// tier"). Values are in frames.
type Watermarks struct {
	// Min is the emergency reserve; ordinary allocations below it fail
	// over to other nodes (or trigger direct reclaim).
	Min int
	// Low wakes the reclaim daemon.
	Low int
	// High is where reclaim stops.
	High int
}

// The watermarks as fractions of a node's frames, in the kernel's rough
// proportions.
const (
	wmMinFrac  = 0.005
	wmLowFrac  = 0.0125
	wmHighFrac = 0.025
)

// watermarks computes the thresholds of a node with the given frame count.
func watermarks(frames int) Watermarks {
	w := Watermarks{
		Min:  int(float64(frames) * wmMinFrac),
		Low:  int(float64(frames) * wmLowFrac),
		High: int(float64(frames) * wmHighFrac),
	}
	// Guarantee a sane ordering even on tiny nodes.
	if w.Min < 1 {
		w.Min = 1
	}
	if w.Low <= w.Min {
		w.Low = w.Min + 1
	}
	if w.High <= w.Low {
		w.High = w.Low + 1
	}
	return w
}

// Node is one NUMA node: a bank of frames belonging to a single tier,
// managed by a binary-buddy allocator like a kernel zone. The DAX-KMEM
// driver in the paper hot-plugs PM as new nodes and tags them; here the
// tag is the Tier field.
type Node struct {
	ID     NodeID
	Tier   Tier
	Frames int

	WM Watermarks

	alloc *buddy

	// PhysicalSocket optionally records which socket the node's DIMMs
	// live on; PM nodes get a node ID distinct from their socket (§IV).
	PhysicalSocket int
}

func newNode(id NodeID, tier Tier, frames int, socket int) *Node {
	return &Node{
		ID:             id,
		Tier:           tier,
		Frames:         frames,
		WM:             watermarks(frames),
		alloc:          newBuddy(frames),
		PhysicalSocket: socket,
	}
}

// FreeFrames returns the number of unallocated frames on the node.
func (n *Node) FreeFrames() int { return n.alloc.FreeFrames() }

// UsedFrames returns the number of allocated frames on the node.
func (n *Node) UsedFrames() int { return n.Frames - n.alloc.FreeFrames() }

// FreeBlocks reports the buddy allocator's per-order free block counts
// (fragmentation diagnostics; order MaxOrder blocks are what a THP
// allocation would need).
func (n *Node) FreeBlocks() [MaxOrder + 1]int { return n.alloc.FreeBlocks() }

// UnderLow reports whether free memory has dropped below the low watermark,
// i.e. the node should be marked under memory pressure and reclaim should
// run.
func (n *Node) UnderLow() bool { return n.FreeFrames() < n.WM.Low }

// UnderHigh reports whether free memory is still below the high watermark,
// i.e. reclaim, once started, should continue.
func (n *Node) UnderHigh() bool { return n.FreeFrames() < n.WM.High }

// UnderMin reports whether only the emergency reserve remains.
func (n *Node) UnderMin() bool { return n.FreeFrames() < n.WM.Min }

// Allocated reports whether frame f is held by an allocation (restore checks
// that every page it rebuilds sits on allocated frames).
func (n *Node) Allocated(f FrameID) bool { return n.alloc.state[f] == stateAllocated }

func (n *Node) String() string {
	return fmt.Sprintf("node%d(%s, %d/%d free)", n.ID, n.Tier, n.FreeFrames(), n.Frames)
}
