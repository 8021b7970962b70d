package policy

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"sort"
	"strings"
	"testing"
)

// settableConfigFields is every exported field of a *Config struct in the
// policy layer, the machine beneath it, the workload layer above it and the
// run layer (bench.RunConfig) on top, each with the callers that give it
// different values. A setting exists only when two non-test callers need
// different values (benchmarks/ counts as a caller; tests and examples do
// not); a value with one caller is a constant (DESIGN.md, "Knobs").
var settableConfigFields = map[string]string{
	"core.Config.ScanInterval": "-interval and the fig10 sweep vary it",
	"core.Config.ScanBatch":    "ablation-batch varies it",
	"core.Config.PromoteMax":   "ablation-write caps it at 16; every other run promotes all",
	"core.Config.WriteBias":    "ablation-write compares both values",
	"core.Config.Gate":         "the -gated variants set it",

	"fault.Config.Seed":  "-chaos seed",
	"fault.Config.Rates": "-chaos rate",

	"lifecycle.Config.SampleMod": "-lifecycle N; benchmarks/ sets it",

	"mem.Config.DRAMNodes": "every run's -dram sizing; benchmarks/ sets it",
	"mem.Config.PMNodes":   "every run's -pm sizing; benchmarks/ sets it",
	"mem.Config.Topology":  "-tiers sets it",

	"machine.Config.Mem":           "the memory layout above",
	"machine.Config.Seed":          "-seed; benchmarks/ sets it",
	"machine.Config.OpCost":        "the evaluation's 1 µs, the facade's OpCost; benchmarks/ sets it",
	"machine.Config.Faults":        "-chaos sets it",
	"machine.Config.CPUCachePages": "benchmarks/ sets it",

	"ycsb.ClientConfig.Records": "every run's -records; benchmarks/ sets it",
	"ycsb.ClientConfig.Seed":    "runs derive it from -seed; the facade keeps the default",

	"kvstore.Config.Buckets":     "DefaultConfig sizes it from the record count",
	"kvstore.Config.ItemTouches": "the evaluation's 8 (bench, benchmarks/), the facade's 1",
	"kvstore.Config.HugeArena":   "ablation-thp compares both values",

	"graph.GenConfig.Vertices":  "-vertices and the scale's graph size; benchmarks/ sets it",
	"graph.GenConfig.Degree":    "-degree and the scale's degree; benchmarks/ sets it",
	"graph.GenConfig.Kronecker": "true at every caller, but benchmarks/ sets it: a constant once the benchmark changes",
	"graph.GenConfig.Seed":      "-seed; benchmarks/ sets it",

	"bench.RunConfig.Policy":      "mcsim -policy and each experiment cell's system; benchmarks/ sets it",
	"bench.RunConfig.Workloads":   "mcsim -workload/-sequence, the soak's paper sequence; benchmarks/ sets it",
	"bench.RunConfig.Records":     "mcsim -records, the scale's sizing and fig7's 4x footprint; benchmarks/ sets it",
	"bench.RunConfig.Ops":         "mcsim -ops and the scale's op count; benchmarks/ sets it",
	"bench.RunConfig.DRAMPages":   "mcsim -dram, the scale's sizing, ablation-ratio and the graph machines; benchmarks/ sets it",
	"bench.RunConfig.PMPages":     "mcsim -pm, the scale's sizing, ablation-ratio and the graph machines; benchmarks/ sets it",
	"bench.RunConfig.Tiers":       "-tiers",
	"bench.RunConfig.Interval":    "mcsim -interval, the scale's operating interval and the fig10 sweep; benchmarks/ sets it",
	"bench.RunConfig.Seed":        "-seed; benchmarks/ sets it",
	"bench.RunConfig.Chaos":       "-chaos",
	"bench.RunConfig.Metrics":     "-metrics and the facade's EnableMetrics",
	"bench.RunConfig.TraceEvents": "-trace-events (-trace-out's default ring) and the facade's EnableMetrics ring",
	"bench.RunConfig.Sinks":       "-series, -lifecycle, -slo and -trace-out",
}

// TestConfigFieldsHaveCallers keeps single-value knobs from growing back:
// every exported field of a struct type named *Config in the non-test
// sources of the policy layer, the machine, the workload layer and the run
// layer must be
// allow-listed above with the reason it is settable, and every entry must
// still name a field.
func TestConfigFieldsHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	seen := map[string]bool{}
	for _, dir := range []string{"../core", ".", "../fault", "../lifecycle", "../mem", "../machine", "../ycsb", "../kvstore", "../graph", "../bench"} {
		pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, 0)
		if err != nil {
			t.Fatal(err)
		}
		for name, pkg := range pkgs {
			files := make([]*ast.File, 0, len(pkg.Files))
			for _, f := range pkg.Files {
				files = append(files, f)
			}
			tpkg, err := conf.Check("multiclock/internal/"+name, fset, files, nil)
			if err != nil {
				t.Fatalf("type-checking %s: %v", dir, err)
			}
			scope := tpkg.Scope()
			for _, tname := range scope.Names() {
				obj, ok := scope.Lookup(tname).(*types.TypeName)
				// An alias (bench.SoakConfig) is another name for a
				// struct already checked under its own.
				if !ok || obj.IsAlias() || !strings.HasSuffix(tname, "Config") {
					continue
				}
				st, ok := obj.Type().Underlying().(*types.Struct)
				if !ok {
					continue
				}
				for i := 0; i < st.NumFields(); i++ {
					f := st.Field(i)
					if !f.Exported() {
						continue
					}
					key := name + "." + tname + "." + f.Name()
					seen[key] = true
					if _, ok := settableConfigFields[key]; !ok {
						t.Errorf("%s: %s is settable but has no allow-list entry; make a value with one caller a constant, or list the callers that set it",
							fset.Position(f.Pos()), key)
					}
				}
			}
		}
	}
	var stale []string
	for key := range settableConfigFields {
		if !seen[key] {
			stale = append(stale, key)
		}
	}
	sort.Strings(stale)
	for _, key := range stale {
		t.Errorf("allow-list entry %s names no config field", key)
	}
}
