package mem

import (
	"reflect"
	"strings"
	"testing"
)

func TestParseTopology(t *testing.T) {
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
		{name: "empty", spec: "", wantErr: "empty spec"},
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
			top, err := ParseTopology(c.spec)
			if c.wantErr != "" {
				if err == nil {
					t.Fatalf("ParseTopology(%q) = %+v, want error containing %q", c.spec, top, c.wantErr)
				}
				if !strings.Contains(err.Error(), c.wantErr) {
					t.Fatalf("ParseTopology(%q) error = %q, want substring %q", c.spec, err, c.wantErr)
				}
				if strings.HasPrefix(err.Error(), "-") {
					t.Fatalf("ParseTopology(%q) error %q names a flag; the CLI adds that", c.spec, err)
				}
				return
			}
			if err != nil {
				t.Fatalf("ParseTopology(%q): %v", c.spec, err)
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

// TestParseTopologyRoundTrip pins Spec and ParseTopology as inverses for
// every shape the -tiers flag accepts.
func TestParseTopologyRoundTrip(t *testing.T) {
	for _, spec := range []string{
		"dram:1024,pm:4096",
		"dram:512,dram:512,pm:4096",
		"dram:1024,cxl:2048,pm:8192,ssd:*",
	} {
		top, err := ParseTopology(spec)
		if err != nil {
			t.Fatalf("ParseTopology(%q): %v", spec, err)
		}
		if got := top.Spec(); got != strings.ReplaceAll(spec, " ", "") {
			t.Errorf("round trip: %q -> %q", spec, got)
		}
	}
}

// FuzzParseTopology feeds the -tiers grammar arbitrary text: nothing panics,
// an accepted topology validates, and its canonical spelling parses back to
// the same topology.
func FuzzParseTopology(f *testing.F) {
	for _, spec := range []string{
		"dram:1024,pm:4096", "dram:512,dram:512,pm:4096", "dram:1024,cxl:2048,pm:8192,ssd:*",
		"", " , ", "dram", "dram:", ":7", "dram:*", "ssd:*", "ssd:9", "pm:4096,ssd:*,dram:1",
		"dram:0", "dram:-3", "dram:+5", "dram:99999999999999999999", "dram:1,ssd:*,ssd:*", "dram:1,pm:2,dram:3",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		top, err := ParseTopology(spec)
		if err != nil {
			return
		}
		if err := top.Validate(); err != nil {
			t.Fatalf("ParseTopology(%q) accepted a topology that does not validate: %v", spec, err)
		}
		again, err := ParseTopology(top.Spec())
		if err != nil || !reflect.DeepEqual(again, top) {
			t.Fatalf("ParseTopology(%q) = %+v, but its spelling %q parses to %+v, %v", spec, top, top.Spec(), again, err)
		}
	})
}
