// Command benchmarks is the repository's one benchmark: four workloads that
// separate the simulator's layers, end-to-end metrics on both clocks (what
// the modelled machine took, exactly; what the simulator took, with spread),
// and a traced pass that attributes host time to layers from outside.
//
//	go run -C benchmarks . -seed 1 -out result.json     the whole suite
//	go run -C benchmarks . -workload ycsb-a -trace 0    one end-to-end pass
//	go run -C benchmarks . -workload ycsb-a -trace 1    one traced pass
//	go run -C benchmarks . -compare A.json B.json       judge B against A
//
// See README.md beside this file for what every number means.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its inputs and outputs as parameters. It returns the
// exit code: 0 success, 1 a failed check or a "worse" verdict, 2 usage.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmarks", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workloadName  = fs.String("workload", "", "run only this workload (default: all four)")
		seedText      = fs.String("seed", "1", "seed every generated input derives from")
		seconds       = fs.Float64("seconds", 0, "measured host time per end-to-end pass; repetitions are fixed work and at least three run (default 16, divided like the work at -scale smoke)")
		trace         = fs.String("trace", "", "0: only the end-to-end pass; 1: only the traced pass; either ends the output with one JSON object (needs -workload)")
		scaleName     = fs.String("scale", "full", "full, or smoke for ~1/100 of the work")
		outPath       = fs.String("out", "", "write the result file here, and the spans to <out>.trace.json")
		compare       = fs.Bool("compare", false, "compare two result files given as arguments: A.json B.json")
		printManifest = fs.Bool("manifest", false, "print BENCHMARK.json as the metric tables define it")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "benchmarks: "+format+"\n", a...)
		return 2
	}

	switch {
	case *printManifest:
		data, err := manifest()
		if err != nil {
			fmt.Fprintln(stderr, "benchmarks:", err)
			return 1
		}
		stdout.Write(data)
		return 0
	case *compare:
		if fs.NArg() != 2 {
			return usage("-compare needs two result files")
		}
		return runCompare(fs.Arg(0), fs.Arg(1), stdout, stderr)
	case fs.NArg() != 0:
		return usage("unexpected argument %q", fs.Arg(0))
	}

	seed, err := strconv.ParseUint(*seedText, 10, 64)
	if err != nil {
		return usage("bad -seed %q: want a whole number", *seedText)
	}
	var sc scale
	switch *scaleName {
	case scaleFull.name:
		sc = scaleFull
	case scaleSmoke.name:
		sc = scaleSmoke
	default:
		return usage("unknown -scale %q (have full, smoke)", *scaleName)
	}
	if *seconds < 0 {
		return usage("-seconds must be positive")
	}
	if *seconds == 0 {
		*seconds = runSeconds / float64(sc.work)
	}
	selected := workloads
	if *workloadName != "" {
		w, ok := workloadByName(*workloadName)
		if !ok {
			var names []string
			for _, w := range workloads {
				names = append(names, w.name)
			}
			return usage("unknown -workload %q (have %s)", *workloadName, strings.Join(names, ", "))
		}
		selected = []workload{w}
	}
	if *trace != "" && (*trace != "0" && *trace != "1" || len(selected) != 1) {
		return usage("-trace takes 0 or 1 and needs -workload")
	}

	rf := resultFile{Schema: resultSchema, Env: currentEnvironment(), Seed: seed, Scale: sc.name}
	spans := map[string][]span{}
	failed := false
	for _, w := range selected {
		res := workloadResult{Name: w.name, Why: w.why}
		if *trace != "1" {
			e, err := runEndToEnd(w, sc, seed, *seconds)
			if err != nil {
				fmt.Fprintln(stderr, "benchmarks:", err)
				return 1
			}
			res.addEndToEnd(e)
		}
		if *trace != "0" {
			t, err := runTraced(w, sc, seed)
			if err != nil {
				fmt.Fprintln(stderr, "benchmarks:", err)
				return 1
			}
			// The traced pass does less work than the end-to-end pass, so its
			// digest stands in only when it is the only pass; runTraced itself
			// checks traced against untraced at its own scale.
			if res.SimDigest == "" {
				res.SimDigest = fmt.Sprintf("%016x", t.digest)
			}
			res.addTraced(t)
			spans[w.name] = t.spans
		}
		res.checkFinite()
		printWorkload(stdout, res)
		failed = failed || res.OpsFailed > 0
		rf.Workloads = append(rf.Workloads, res)
	}

	if *outPath != "" {
		data, err := json.MarshalIndent(rf, "", "  ")
		if err == nil {
			err = os.WriteFile(*outPath, append(data, '\n'), 0o644)
		}
		if err == nil && len(spans) > 0 {
			err = writeTrace(*outPath+".trace.json", spans)
		}
		if err != nil {
			fmt.Fprintln(stderr, "benchmarks:", err)
			return 1
		}
	}
	if *trace != "" {
		line, err := json.Marshal(contractOf(rf.Workloads[0], *trace == "1"))
		if err != nil {
			fmt.Fprintln(stderr, "benchmarks:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	if failed {
		return 1
	}
	return 0
}

// checkFinite counts every emitted number that is not finite as a failed
// check, and zeroes it so the result still encodes.
func (w *workloadResult) checkFinite() {
	var c checks
	for name, m := range w.EndToEnd {
		ok := finite(m.Value) && finite(m.Median) && finite(m.Q1) && finite(m.Q3)
		c.expect(ok, "%s: %s is not finite", w.Name, name)
		if !ok {
			m.summary = summary{}
			w.EndToEnd[name] = m
		}
	}
	for name, m := range w.PerLayer {
		c.expect(finite(m.Value), "%s: %s is not finite", w.Name, name)
		if !finite(m.Value) {
			m.Value = 0
			w.PerLayer[name] = m
		}
	}
	w.addChecks(c)
}

func contractOf(w workloadResult, traced bool) contractLine {
	line := contractLine{Correct: w.OpsFailed == 0, Attempted: w.OpsAttempted, Failed: w.OpsFailed, Metrics: map[string]contractValue{}}
	if traced {
		for name, m := range w.PerLayer {
			line.Metrics[name] = contractValue{m.Value, m.Unit}
		}
	} else {
		for name, m := range w.EndToEnd {
			line.Metrics[name] = contractValue{m.Value, m.Unit}
		}
	}
	return line
}

func runCompare(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readResult(pathA)
	if err != nil {
		fmt.Fprintln(stderr, "benchmarks:", err)
		return 2
	}
	b, err := readResult(pathB)
	if err != nil {
		fmt.Fprintln(stderr, "benchmarks:", err)
		return 2
	}
	if worse := printCompare(stdout, compareResults(a, b)); worse > 0 {
		fmt.Fprintf(stderr, "benchmarks: %d worse\n", worse)
		return 1
	}
	return 0
}
