package main

import (
	"strings"
	"testing"

	"multiclock/internal/bench"
	"multiclock/internal/mem"
)

// tiersMachine sends spec through mcsim's -tiers path: parse the flag, Validate it, ApplyTo a recipe sized for the
// default 64/256-frame pair, and build that recipe's machine. It returns the
// hierarchy the machine was built with.
func tiersMachine(t *testing.T, spec string) (mem.Topology, error) {
	t.Helper()
	f := parseFlags(t, "-tiers", spec)
	if err := f.Validate(); err != nil {
		return mem.Topology{}, err
	}
	rc := bench.RunConfig{Policy: "multiclock", DRAMPages: 64, PMPages: 256}
	f.ApplyTo(&rc)
	m, err := rc.Machine()
	if err != nil {
		t.Fatalf("-tiers %q passed Validate but the recipe did not build: %v", spec, err)
	}
	return m.Mem.Top, nil
}

// TestParseTierSpec pins the -tiers flag through the CLI layer: a bad spec
// is refused by Validate with the parser's message behind a "-tiers: "
// prefix, and a good one reaches the machine as that hierarchy. An empty
// flag leaves the default DRAM/PM pair.
func TestParseTierSpec(t *testing.T) {
	cases := []struct {
		name    string
		spec    string
		wantErr string   // substring of the error, "" for success
		tiers   []string // expected tier names in order
		nodes   [][]int  // expected per-tier node frame counts
	}{
		{
			name: "default pair", spec: "dram:1024,pm:4096",
			tiers: []string{"dram", "pm"}, nodes: [][]int{{1024}, {4096}},
		},
		{
			name: "three tier", spec: "dram:1024,cxl:2048,pm:8192",
			tiers: []string{"dram", "cxl", "pm"}, nodes: [][]int{{1024}, {2048}, {8192}},
		},
		{
			name: "four tier with durable", spec: "dram:1024,cxl:2048,pm:8192,ssd:*",
			tiers: []string{"dram", "cxl", "pm", "ssd"}, nodes: [][]int{{1024}, {2048}, {8192}, nil},
		},
		{
			name: "multi-node tier", spec: "dram:512,dram:512,pm:4096",
			tiers: []string{"dram", "pm"}, nodes: [][]int{{512, 512}, {4096}},
		},
		{
			name: "spaces tolerated", spec: " dram:64 , pm:256 ",
			tiers: []string{"dram", "pm"}, nodes: [][]int{{64}, {256}},
		},
		{
			name: "empty", spec: "",
			tiers: []string{"dram", "pm"}, nodes: [][]int{{64}, {256}},
		},
		{name: "blank", spec: "   ", wantErr: "empty spec"},
		{name: "missing colon", spec: "dram1024", wantErr: `entry "dram1024" must be name:frames`},
		{name: "missing count", spec: "dram:", wantErr: "must be name:frames"},
		{name: "unknown tier", spec: "dram:64,hbm:64", wantErr: `unknown tier "hbm" (have dram, cxl, pm, ssd)`},
		{name: "zero frames", spec: "dram:0,pm:64", wantErr: `tier "dram" needs a positive frame count, got "0"`},
		{name: "negative frames", spec: "dram:-5,pm:64", wantErr: "positive frame count"},
		{name: "garbage frames", spec: "dram:abc,pm:64", wantErr: `got "abc"`},
		{name: "star on frame tier", spec: "dram:*,pm:64", wantErr: `"*" is only for the durable tier`},
		{name: "count on durable", spec: "dram:64,ssd:25", wantErr: `durable tier "ssd" has no frames`},
		{name: "duplicate tier", spec: "dram:64,pm:64,dram:64", wantErr: `duplicate tier "dram"`},
		{name: "durable not last", spec: "dram:64,ssd:*,pm:64", wantErr: `durable tier "ssd" must be the last tier`},
		{name: "durable only", spec: "ssd:*", wantErr: "no frame-backed tier"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			top, err := tiersMachine(t, c.spec)
			if c.wantErr != "" {
				if err == nil {
					t.Fatalf("-tiers %q built %+v, want error containing %q", c.spec, top, c.wantErr)
				}
				if !strings.Contains(err.Error(), c.wantErr) {
					t.Fatalf("-tiers %q error = %q, want substring %q", c.spec, err, c.wantErr)
				}
				if !strings.HasPrefix(err.Error(), "-tiers: ") {
					t.Fatalf("-tiers %q error %q not prefixed with -tiers:", c.spec, err)
				}
				return
			}
			if err != nil {
				t.Fatalf("-tiers %q: %v", c.spec, err)
			}
			if len(top.Tiers) != len(c.tiers) {
				t.Fatalf("got %d tiers, want %d (%+v)", len(top.Tiers), len(c.tiers), top)
			}
			for i, ts := range top.Tiers {
				if ts.Name != c.tiers[i] {
					t.Errorf("tier %d = %q, want %q", i, ts.Name, c.tiers[i])
				}
				if len(ts.Nodes) != len(c.nodes[i]) {
					t.Errorf("tier %q has %d nodes, want %d", ts.Name, len(ts.Nodes), len(c.nodes[i]))
					continue
				}
				for j, f := range ts.Nodes {
					if f != c.nodes[i][j] {
						t.Errorf("tier %q node %d = %d frames, want %d", ts.Name, j, f, c.nodes[i][j])
					}
				}
			}
		})
	}
}

// TestParseTierSpecRoundTrip pins that the machine a -tiers flag builds
// spells its hierarchy back as the flag, for every shape the flag accepts:
// the spec a snapshot carries rebuilds the same machine.
func TestParseTierSpecRoundTrip(t *testing.T) {
	for _, spec := range []string{
		"dram:1024,pm:4096",
		"dram:512,dram:512,pm:4096",
		"dram:1024,cxl:2048,pm:8192,ssd:*",
	} {
		top, err := tiersMachine(t, spec)
		if err != nil {
			t.Fatalf("-tiers %q: %v", spec, err)
		}
		if got := top.Spec(); got != spec {
			t.Errorf("round trip: %q -> %q", spec, got)
		}
	}
}

// FuzzParseTierSpec feeds the -tiers flag arbitrary text: Validate never
// panics, and what it says is exactly what mem.ParseTopology says behind
// the "-tiers: " prefix, so mcsim and the library agree on every spec. An accepted spec reaches the recipe verbatim. An empty flag selects
// the default pair and is always accepted.
func FuzzParseTierSpec(f *testing.F) {
	for _, spec := range []string{
		"dram:1024,pm:4096", "dram:512,dram:512,pm:4096", "dram:1024,cxl:2048,pm:8192,ssd:*",
		"", " , ", "dram", "dram:", ":7", "dram:*", "ssd:*", "ssd:9", "pm:4096,ssd:*,dram:1",
		"dram:0", "dram:-3", "dram:+5", "dram:99999999999999999999", "dram:1,ssd:*,ssd:*", "dram:1,pm:2,dram:3",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		fl := parseFlags(t, "-tiers", spec)
		got := ""
		if err := fl.Validate(); err != nil {
			got = err.Error()
		}
		want := ""
		if _, err := mem.ParseTopology(spec); err != nil && spec != "" {
			want = "-tiers: " + err.Error()
		}
		if got != want {
			t.Fatalf("-tiers %q: Validate() = %q, want %q", spec, got, want)
		}
		if got == "" {
			var rc bench.RunConfig
			fl.ApplyTo(&rc)
			if rc.Tiers != spec {
				t.Fatalf("-tiers %q reached the recipe as %q", spec, rc.Tiers)
			}
		}
	})
}
