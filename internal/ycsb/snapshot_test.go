package ycsb

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"multiclock/internal/sim"
	"multiclock/internal/snapcodec"
)

// restoreRecords is the loaded key space of the clients runs are restored onto.
const restoreRecords = 200

// chooserLen is the encoded size of a chooser: its tag, a record count for
// all but a bare zipfian, and a zipfian's two counts and five floats.
func chooserLen(tag uint8) int {
	switch tag {
	case chooserUniform:
		return 1 + 8
	case chooserZipfian:
		return 1 + 7*8
	}
	return 1 + 8 + 7*8
}

// runSnapshot returns the checkpoint of a run of w on a freshly loaded client,
// taken after steps operations.
func runSnapshot(tb testing.TB, w Workload, steps int) []byte {
	tb.Helper()
	_, c := newClient(restoreRecords)
	c.Load()
	r := c.StartRun(w, 1000)
	for i := 0; i < steps; i++ {
		r.Step()
	}
	out := snapcodec.NewWriter()
	if err := r.Checkpoint(out); err != nil {
		tb.Fatal(err)
	}
	return out.Bytes()
}

// withChooser returns snap, a checkpoint of a scrambled-zipfian run, with its
// chooser replaced by tag, n (unless tag is a bare zipfian) and z.
func withChooser(snap []byte, tag uint8, n int64, z *Zipfian) []byte {
	out := append([]byte(nil), snap[:len(snap)-chooserLen(chooserScrambled)]...)
	enc := snapcodec.NewEncoder()
	enc.U8(tag)
	if tag != chooserZipfian {
		enc.I64(n)
	}
	out = append(out, enc.Bytes()...)
	if z != nil {
		out = append(out, zipfianBytes(z)...)
	}
	return out
}

// drawInRange draws a few hundred keys from r and fails on one outside the
// client's records.
func drawInRange(t *testing.T, c *Client, r *Run) {
	t.Helper()
	rng := sim.NewRNG(5)
	for i := 0; i < 300; i++ {
		if k := r.chooser.Next(rng); k < 0 || k >= c.records {
			t.Fatalf("draw %d: key %d outside [0, %d)", i, k, c.records)
		}
	}
}

// TestRestoreRunRejectsImpossibleChoosers is the regression test for a
// decoder that took any chooser state: a scrambled chooser over zero records
// divided by zero on its first draw, a uniform one over none panicked in
// Int63n, record counts that disagreed with the zipfian or the client drew
// keys outside the store, and a zeta count or float constants no zipfian
// reaches sent Grow and the formula outside their ranges. Each must be a
// *ChooserError; the unmutated snapshots must still restore.
func TestRestoreRunRejectsImpossibleChoosers(t *testing.T) {
	snap := runSnapshot(t, WorkloadA, 10)
	zipf := func(mutate func(z *Zipfian)) *Zipfian {
		z := NewZipfian(restoreRecords)
		mutate(z)
		return z
	}
	good := zipf(func(*Zipfian) {})
	nan := math.NaN()
	cases := []struct {
		name string
		tag  uint8
		n    int64
		z    *Zipfian
	}{
		{"scrambled over zero records", chooserScrambled, 0, good},
		{"scrambled over more records than items", chooserScrambled, restoreRecords + 1, good},
		{"latest over fewer records than items", chooserLatest, restoreRecords - 1, good},
		{"uniform over zero records", chooserUniform, 0, nil},
		{"uniform over negative records", chooserUniform, -5, nil},
		{"uniform past the client's records", chooserUniform, restoreRecords + 1, nil},
		{"zipfian over no items", chooserZipfian, 0, zipf(func(z *Zipfian) { z.items, z.countForZeta = 0, 0 })},
		{"zipfian past the client's records", chooserZipfian, 0, NewZipfian(restoreRecords + 1)},
		{"zeta summed elsewhere", chooserZipfian, 0, zipf(func(z *Zipfian) { z.countForZeta = -1 << 40 })},
		{"theta NaN", chooserZipfian, 0, zipf(func(z *Zipfian) { z.theta = nan })},
		{"theta one", chooserZipfian, 0, zipf(func(z *Zipfian) { z.theta = 1 })},
		{"alpha infinite", chooserZipfian, 0, zipf(func(z *Zipfian) { z.alpha = math.Inf(1) })},
		{"alpha not from theta", chooserZipfian, 0, zipf(func(z *Zipfian) { z.alpha = math.Nextafter(z.alpha, 0) })},
		{"zeta(2) NaN", chooserZipfian, 0, zipf(func(z *Zipfian) { z.zeta2t = nan })},
		{"zetan NaN", chooserZipfian, 0, zipf(func(z *Zipfian) { z.zetan = nan })},
		{"zetan above items", chooserZipfian, 0, zipf(func(z *Zipfian) { z.zetan = restoreRecords + 1 })},
		{"zetan below one", chooserZipfian, 0, zipf(func(z *Zipfian) { z.zetan = 0.5 })},
		{"eta NaN", chooserZipfian, 0, zipf(func(z *Zipfian) { z.eta = nan })},
		{"eta above one", chooserZipfian, 0, zipf(func(z *Zipfian) { z.eta = 2 })},
		{"unknown tag", 9, 0, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, c := newClient(restoreRecords)
			c.Load()
			r, err := c.RestoreRun(snapcodec.NewReader(withChooser(snap, tc.tag, tc.n, tc.z)))
			var ce *ChooserError
			if errors.As(err, &ce) {
				return
			}
			if err == nil {
				drawInRange(t, c, r)
			}
			t.Fatalf("restored with error %v, want a *ChooserError", err)
		})
	}

	for _, w := range []Workload{WorkloadA, WorkloadD, WorkloadE} {
		_, c := newClient(restoreRecords)
		c.Load()
		if _, err := c.RestoreRun(snapcodec.NewReader(runSnapshot(t, w, 0))); err != nil {
			t.Fatalf("workload %s: %v", w.Name, err)
		}
	}
	for _, n := range []int64{1, 2, 3, restoreRecords} {
		_, c := newClient(restoreRecords)
		c.Load()
		r, err := c.RestoreRun(snapcodec.NewReader(withChooser(snap, chooserScrambled, n, NewZipfian(n))))
		if err != nil {
			t.Fatalf("scrambled over %d records: %v", n, err)
		}
		drawInRange(t, c, r)
	}
}

// FuzzRestoreRun feeds RestoreRun arbitrary payloads: it must reject with an
// error or accept, never panic, and an accepted run must step on a small store
// drawing only keys the store holds. The corpus is a valid checkpoint of each
// chooser kind and, for each, every chooser field set to a value no chooser
// holds or nudged by one.
func FuzzRestoreRun(f *testing.F) {
	for _, seed := range []struct {
		tag  uint8
		snap []byte
	}{
		{chooserScrambled, runSnapshot(f, WorkloadA, 10)},
		{chooserLatest, runSnapshot(f, WorkloadD, 0)},
		{chooserUniform, runSnapshot(f, WorkloadE, 0)},
		{chooserZipfian, withChooser(runSnapshot(f, WorkloadC, 10), chooserZipfian, 0, NewZipfian(restoreRecords))},
	} {
		snap := seed.snap
		f.Add(snap)
		for at := len(snap) - chooserLen(seed.tag) + 1; at < len(snap); at += 8 {
			v := binary.LittleEndian.Uint64(snap[at:])
			for _, m := range []uint64{0, 1 << 63, 0x7ff8000000000001, 0x7ff0000000000000, v + 1, v - 1} {
				bad := append([]byte(nil), snap...)
				binary.LittleEndian.PutUint64(bad[at:], m)
				f.Add(bad)
			}
		}
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		_, c := newClient(restoreRecords)
		c.Load()
		r, err := c.RestoreRun(snapcodec.NewReader(payload))
		if err != nil {
			return
		}
		if r == nil {
			t.Fatal("no run and no error")
		}
		for i := 0; i < 300; i++ {
			r.Step()
		}
		if st := c.store.Stats; c.store.Items() != int(c.records) || st.GetHits != st.Gets {
			t.Fatalf("store holds %d items for %d records, %d of %d Gets hit", c.store.Items(), c.records, st.GetHits, st.Gets)
		}
		drawInRange(t, c, r)
	})
}
