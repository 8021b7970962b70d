package snapshot

import (
	"bufio"
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"
)

const goodAuditLine = `{"op":2000,"vtime_ns":8123400,"hashes":{"clock":"6d2af2d4bc439d27","mem":"2ef274de1c1eff8f"}}`

// TestReadAuditRejectsBadLines: every malformed line is an *AuditError
// naming it; blank lines are skipped.
func TestReadAuditRejectsBadLines(t *testing.T) {
	recs, err := ReadAudit(strings.NewReader(goodAuditLine + "\n\n  \n" + goodAuditLine + "\n"))
	if err != nil || len(recs) != 2 || recs[1].Op != 2000 || recs[1].Hashes["mem"] != "2ef274de1c1eff8f" {
		t.Fatalf("good trail: %+v, %v", recs, err)
	}
	for _, tc := range []struct{ name, line string }{
		{"malformed", `{"op":1,`},
		{"null", `null`},
		{"array", `[]`},
		{"number", `7`},
		{"trailing object", goodAuditLine + `{}`},
		{"trailing bracket", goodAuditLine + `]`},
		{"unknown field", `{"op":1,"vtime_ns":1,"hashes":{},"extra":1}`},
		{"fractional op", `{"op":1.5,"vtime_ns":1,"hashes":{}}`},
		{"negative op", `{"op":-1,"vtime_ns":1,"hashes":{}}`},
		{"negative vtime", `{"op":1,"vtime_ns":-1,"hashes":{}}`},
		{"no hashes", `{"op":1,"vtime_ns":1}`},
		{"null hashes", `{"op":1,"vtime_ns":1,"hashes":null}`},
		{"number hash", `{"op":1,"vtime_ns":1,"hashes":{"mem":7}}`},
		{"over the line limit", strings.Repeat(" ", maxAuditLine) + goodAuditLine},
	} {
		_, err := ReadAudit(strings.NewReader(goodAuditLine + "\n" + tc.line + "\n"))
		var ae *AuditError
		if !errors.As(err, &ae) || ae.Line != 2 {
			t.Errorf("%s: got %v, want an *AuditError on line 2", tc.name, err)
		}
	}
	_, err = ReadAudit(strings.NewReader(strings.Repeat("x", maxAuditLine+1)))
	var ae *AuditError
	if !errors.As(err, &ae) || !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("over-long first line: %v", err)
	}
}

// FuzzReadAudit: no input panics, every rejection is an *AuditError, and an
// accepted trail re-written by AuditWriter reads back equal.
func FuzzReadAudit(f *testing.F) {
	for _, seed := range []string{
		"", "\n", goodAuditLine, goodAuditLine + "\n" + goodAuditLine + "\n",
		`{"op":0,"vtime_ns":0,"hashes":{}}`, `null`, `{"op":1}`, `{"op":1,"vtime_ns":1,"hashes":{"a":"b"}} x`,
		`{"op":9223372036854775807,"vtime_ns":1,"hashes":{"a":""}}`, "\xff\xfe",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := ReadAudit(bytes.NewReader(data))
		if err != nil {
			var ae *AuditError
			if !errors.As(err, &ae) || ae.Line < 1 {
				t.Fatalf("untyped rejection %T: %v", err, err)
			}
			return
		}
		var buf bytes.Buffer
		w := NewAuditWriter(&buf)
		for _, rec := range recs {
			if rec.Op < 0 || rec.VTime < 0 || rec.Hashes == nil {
				t.Fatalf("accepted an invalid record %+v", rec)
			}
			if err := w.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		again, err := ReadAudit(&buf)
		if err != nil {
			t.Fatalf("re-written trail rejected: %v\n%s", err, buf.Bytes())
		}
		if len(again) != len(recs) || (len(recs) > 0 && !reflect.DeepEqual(again, recs)) {
			t.Fatalf("trail does not round-trip:\n%+v\n%+v", recs, again)
		}
	})
}
