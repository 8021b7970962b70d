package metrics

import (
	"fmt"

	"multiclock/internal/snapcodec"
)

// Checkpoint serialization for one machine's registry. Instruments are
// written sorted by name (the registry maps are only ever iterated sorted, at
// export, so the canonical order is behaviorally exact) and restored with
// get-or-create semantics: instruments pre-resolved by the restore target's
// construction path keep their pointers and receive the snapshot values in
// place.

// Checkpoint codes every instrument and the event ring. Reading, the
// registry is built with the same trace capacity.
func (r *Registry) Checkpoint(c *snapcodec.Codec) error {
	err := snapcodec.Entries(c, sortedNames(r.counters), func(name *string) error {
		c.String(name)
		if c.Err() != nil {
			return c.Err()
		}
		snapcodec.I64(c, &r.Counter(*name).v)
		return nil
	})
	if err != nil {
		return err
	}
	err = snapcodec.Entries(c, sortedNames(r.gauges), func(name *string) error {
		c.String(name)
		if c.Err() != nil {
			return c.Err()
		}
		g := r.Gauge(*name)
		snapcodec.I64(c, &g.last)
		snapcodec.I64(c, &g.max)
		c.Bool(&g.any)
		return nil
	})
	if err != nil {
		return err
	}
	err = snapcodec.Entries(c, sortedNames(r.hists), func(name *string) error {
		c.String(name)
		if c.Err() != nil {
			return c.Err()
		}
		h := r.Histogram(*name)
		for k := range h.counts {
			snapcodec.I64(c, &h.counts[k])
		}
		for _, p := range []*int64{&h.n, &h.sum, &h.min, &h.max} {
			snapcodec.I64(c, p)
		}
		return nil
	})
	if err != nil {
		return err
	}
	hasTrace := r.events != nil
	c.Bool(&hasTrace)
	if c.Err() != nil {
		return c.Err()
	}
	if hasTrace != (r.events != nil) {
		return fmt.Errorf("metrics: snapshot trace presence %v, registry %v", hasTrace, r.events != nil)
	}
	if !hasTrace {
		return nil
	}
	t := r.events
	capacity, live := t.Capacity(), t.n
	snapcodec.I64(c, &capacity)
	snapcodec.I64(c, &t.dropped)
	snapcodec.I64(c, &live)
	if c.Err() != nil {
		return c.Err()
	}
	if capacity != t.Capacity() {
		return fmt.Errorf("metrics: snapshot trace capacity %d, registry %d", capacity, t.Capacity())
	}
	if live < 0 || live > capacity {
		return fmt.Errorf("metrics: snapshot trace holds %d of %d events", live, capacity)
	}
	if c.Reading() {
		t.start, t.n = 0, live
	}
	for i := 0; i < live; i++ {
		ev := &t.buf[(t.start+i)%len(t.buf)]
		snapcodec.I64(c, &ev.At)
		snapcodec.U8(c, &ev.Kind)
		snapcodec.I64(c, &ev.From)
		snapcodec.I64(c, &ev.To)
		snapcodec.I64(c, &ev.Pages)
		snapcodec.U64(c, &ev.VA)
		snapcodec.I64(c, &ev.Work)
		c.String(&ev.Name)
	}
	return c.Err()
}
