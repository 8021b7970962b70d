package mem

import (
	"fmt"
	"strconv"
	"strings"

	"multiclock/internal/sim"
)

// TierSpec describes one tier of a memory hierarchy: its canonical name,
// the frame count of each NUMA node backing it, calibrated per-access
// latencies (asymmetric reads and writes), and the per-page migration cost
// when a copy touches the tier. The Durable flag marks a storage-backed
// last tier that subsumes the swap path: it has no frame-backed nodes, and
// "demoting" a page into it is a swap-out (its Write latency) while
// touching a page resident there is a major fault (its Read latency).
type TierSpec struct {
	// Name is the canonical lower-case tier label ("dram", "cxl", "pm",
	// "ssd"); reports display it upper-cased and metrics use it verbatim.
	Name string
	// Nodes gives the frame count of each NUMA node in the tier. A durable
	// tier has none.
	Nodes []int
	// Read and Write are the per-access latencies of the tier (for a
	// durable tier: the major-fault and swap-out costs).
	Read  sim.Duration
	Write sim.Duration
	// CopyCost is the per-page migration cost when a copy touches this
	// tier; the cost of moving a page between two tiers is the slower of
	// the two ends (see Topology.Latency).
	CopyCost sim.Duration
	// Durable marks the storage-backed last tier (see the type comment).
	Durable bool
}

// Topology is an ordered memory hierarchy, fastest tier first. Tier t of a
// System built from it is Tiers[t]; all tier-relative navigation
// (Above/Below, PickNodeBelow) walks this order.
type Topology struct {
	Tiers []TierSpec
}

// BuiltinTiers lists the tier names the -tiers spec accepts, in their
// canonical fast-to-slow order.
var BuiltinTiers = []string{"dram", "cxl", "pm", "ssd"}

// BuiltinTierSpec returns the calibrated spec for a known tier name (with
// no nodes attached yet). The dram and pm numbers are the two-tier
// defaults the whole evaluation is calibrated against; cxl models
// CXL-attached DRAM at ~2.5× local latency (interposed between DRAM and
// PM); ssd is the durable swap tier, whose read/write costs are exactly
// the default model's major-fault and swap-out costs.
func BuiltinTierSpec(name string) (TierSpec, bool) {
	switch name {
	case "dram":
		return TierSpec{Name: "dram", Read: 80 * sim.Nanosecond, Write: 90 * sim.Nanosecond,
			CopyCost: 1200 * sim.Nanosecond}, true
	case "cxl":
		return TierSpec{Name: "cxl", Read: 200 * sim.Nanosecond, Write: 250 * sim.Nanosecond,
			CopyCost: 2 * sim.Microsecond}, true
	case "pm":
		return TierSpec{Name: "pm", Read: 300 * sim.Nanosecond, Write: 450 * sim.Nanosecond,
			CopyCost: 3 * sim.Microsecond}, true
	case "ssd":
		return TierSpec{Name: "ssd", Read: 60 * sim.Microsecond, Write: 25 * sim.Microsecond,
			CopyCost: 25 * sim.Microsecond, Durable: true}, true
	}
	return TierSpec{}, false
}

// DefaultTopology returns the calibrated two-tier hierarchy (one DRAM node
// over one PM node) every legacy Config maps onto.
func DefaultTopology(dramNodes, pmNodes []int) Topology {
	dram, _ := BuiltinTierSpec("dram")
	pm, _ := BuiltinTierSpec("pm")
	dram.Nodes = dramNodes
	pm.Nodes = pmNodes
	return Topology{Tiers: []TierSpec{dram, pm}}
}

// Validate checks the structural rules of a hierarchy: at least one
// frame-backed tier, unique non-empty names, positive frame counts, and a
// durable tier only in last position (with no frame-backed nodes).
func (top Topology) Validate() error {
	if len(top.Tiers) == 0 {
		return fmt.Errorf("topology has no tiers")
	}
	seen := make(map[string]bool, len(top.Tiers))
	frameBacked := 0
	for i, ts := range top.Tiers {
		if ts.Name == "" {
			return fmt.Errorf("tier %d has no name", i)
		}
		if seen[ts.Name] {
			return fmt.Errorf("duplicate tier %q", ts.Name)
		}
		seen[ts.Name] = true
		if ts.Durable {
			if i != len(top.Tiers)-1 {
				return fmt.Errorf("durable tier %q must be the last tier", ts.Name)
			}
			if len(ts.Nodes) != 0 {
				return fmt.Errorf("durable tier %q cannot have frame-backed nodes", ts.Name)
			}
			continue
		}
		if len(ts.Nodes) == 0 {
			return fmt.Errorf("tier %q has no nodes", ts.Name)
		}
		for _, f := range ts.Nodes {
			if f <= 0 {
				return fmt.Errorf("tier %q needs a positive frame count", ts.Name)
			}
		}
		frameBacked++
	}
	if frameBacked == 0 {
		return fmt.Errorf("topology has no frame-backed tier")
	}
	if top.Tiers[0].Durable {
		return fmt.Errorf("fastest tier %q cannot be durable", top.Tiers[0].Name)
	}
	return nil
}

// Spec renders the topology in the -tiers syntax ("dram:1024,pm:4096",
// durable tiers as "ssd:*"); multi-node tiers repeat the name per node.
// ParseTopology reads it back.
func (top Topology) Spec() string {
	var b strings.Builder
	for _, ts := range top.Tiers {
		if ts.Durable {
			if b.Len() > 0 {
				b.WriteByte(',')
			}
			b.WriteString(ts.Name + ":*")
			continue
		}
		for _, f := range ts.Nodes {
			if b.Len() > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%s:%d", ts.Name, f)
		}
	}
	return b.String()
}

// ParseTopology parses the -tiers syntax, the exact inverse of Spec:
// comma-separated name:frames entries, fastest tier first, e.g.
// "dram:1024,cxl:2048,pm:8192,ssd:*". Repeating a name in consecutive
// entries adds another NUMA node to that tier ("dram:512,dram:512" is a
// two-node DRAM tier); "*" in place of a frame count is only valid for the
// durable tier, which has no frames. Tier names come from BuiltinTiers.
// An accepted topology has passed Validate.
func ParseTopology(spec string) (Topology, error) {
	var top Topology
	if strings.TrimSpace(spec) == "" {
		return top, fmt.Errorf("empty spec; want name:frames pairs like %q", "dram:1024,pm:4096")
	}
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		name, frames, ok := strings.Cut(entry, ":")
		if !ok || name == "" || frames == "" {
			return top, fmt.Errorf("entry %q must be name:frames (or name:* for the durable tier)", entry)
		}
		ts, known := BuiltinTierSpec(name)
		if !known {
			return top, fmt.Errorf("unknown tier %q (have %s)", name, strings.Join(BuiltinTiers, ", "))
		}
		if frames == "*" {
			if !ts.Durable {
				return top, fmt.Errorf("tier %q needs a frame count; \"*\" is only for the durable tier", name)
			}
		} else {
			if ts.Durable {
				return top, fmt.Errorf("durable tier %q has no frames; write %s:*", name, name)
			}
			n, err := strconv.Atoi(frames)
			if err != nil || n <= 0 {
				return top, fmt.Errorf("tier %q needs a positive frame count, got %q", name, frames)
			}
			ts.Nodes = []int{n}
		}
		// A repeat of the previous entry's name grows that tier by one node.
		if last := len(top.Tiers) - 1; last >= 0 && top.Tiers[last].Name == name {
			top.Tiers[last].Nodes = append(top.Tiers[last].Nodes, ts.Nodes...)
			continue
		}
		top.Tiers = append(top.Tiers, ts)
	}
	return top, top.Validate()
}

// Latency builds a latency model for the hierarchy: per-tier read/write
// arrays and the topology-sized page-copy matrix from the specs (the cost
// of a copy is the slower of its two ends), with every scalar cost taken
// from base. A durable last tier additionally overrides the swap costs:
// swap-out is its write, the major fault its read.
func (top Topology) Latency(base LatencyModel) LatencyModel {
	m := base
	n := len(top.Tiers)
	m.Read = make([]sim.Duration, n)
	m.Write = make([]sim.Duration, n)
	m.PageCopy = make([][]sim.Duration, n)
	for i, ts := range top.Tiers {
		m.Read[i] = ts.Read
		m.Write[i] = ts.Write
		m.PageCopy[i] = make([]sim.Duration, n)
		for j, other := range top.Tiers {
			c := ts.CopyCost
			if other.CopyCost > c {
				c = other.CopyCost
			}
			m.PageCopy[i][j] = c
		}
		if ts.Durable {
			m.SwapOut = ts.Write
			m.SwapIn = ts.Read
		}
	}
	return m
}
