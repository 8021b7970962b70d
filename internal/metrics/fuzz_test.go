package metrics

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"testing"
)

// goldenSections are the keys of the run sections the golden export carries.
var goldenSections = []string{"counters", "vmstat", "gauges", "histograms", "series", "lifecycle", "faults", "slo"}

// FuzzReadExport: ReadExport is how mcmetrics reads user files. No input may
// panic; every rejection is a *ParseError or the error Validate gives the
// decoded document; every accepted document re-exports canonically to bytes
// that are accepted again and stable. Seeds: the mcmetrics golden export,
// and copies with one section truncated or one of its numbers negated.
func FuzzReadExport(f *testing.F) {
	golden, err := os.ReadFile("../../cmd/mcmetrics/testdata/golden.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	for _, key := range goldenSections {
		i := bytes.Index(golden, []byte(`"`+key+`":`))
		if i < 0 {
			f.Fatalf("golden export has no %q section", key)
		}
		f.Add(golden[:i+len(key)+40])
		if d := bytes.IndexAny(golden[i:], "123456789"); d >= 0 {
			mutated := append(append(append([]byte(nil), golden[:i+d]...), '-'), golden[i+d:]...)
			f.Add(mutated)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ex, err := ReadExport(data)
		if err != nil {
			var pe *ParseError
			if errors.As(err, &pe) {
				return
			}
			var doc Export
			if json.Unmarshal(data, &doc) != nil {
				t.Fatalf("undecodable input rejected without a *ParseError: %v", err)
			}
			if verr := doc.Validate(); verr == nil || verr.Error() != err.Error() {
				t.Fatalf("rejection %q is not the document's validation error (%v)", err, verr)
			}
			return
		}
		canon, err := ExportJSON(ex.Runs...)
		if err != nil {
			t.Fatalf("accepted export does not re-export: %v", err)
		}
		again, err := ReadExport(canon)
		if err != nil {
			t.Fatalf("canonical re-export of an accepted document is rejected: %v", err)
		}
		if twice, _ := ExportJSON(again.Runs...); !bytes.Equal(twice, canon) {
			t.Fatal("canonical re-export is not stable")
		}
	})
}
