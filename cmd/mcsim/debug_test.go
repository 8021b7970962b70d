package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
)

// TestStartDebugStopsCleanly pins the -http endpoint lifecycle: it serves
// while running, a clean end-of-run stop is not counted as a serve
// failure, and the listener is actually released — the pre-fix code leaked
// it for the life of the process.
func TestStartDebugStopsCleanly(t *testing.T) {
	addr, stop, err := StartDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(fmt.Sprintf("http://%s/debug/vars", addr))
	if err != nil {
		stop()
		t.Fatalf("endpoint not serving: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		stop()
		t.Fatalf("/debug/vars: status %d", resp.StatusCode)
	}

	before := debugServeFailures.Value()
	stop() // blocks until the serve loop has exited
	if got := debugServeFailures.Value(); got != before {
		t.Fatalf("clean stop was counted as a serve failure (%d -> %d)", before, got)
	}

	// The port must be free again immediately.
	ln, err := net.Listen("tcp", addr.String())
	if err != nil {
		t.Fatalf("listener leaked after stop: %v", err)
	}
	ln.Close()

	// And the endpoint must be restartable on the same address.
	_, stop2, err := StartDebug(addr.String())
	if err != nil {
		t.Fatalf("restart on %s: %v", addr, err)
	}
	stop2()
}

// TestDebugEndpoint proves -http is wired through every mode, including the
// stepped ones (checkpointing, invariant sweeps) and the experiments — the
// long runs the endpoint exists for: each runs a tiny job with the endpoint
// enabled, announces the bound address, and returns cleanly (the listener
// did not hold the run open).
func TestDebugEndpoint(t *testing.T) {
	dir := t.TempDir()
	ycsb := []string{"-policy", "static", "-workload", "C", "-records", "256", "-ops", "500"}
	for _, c := range []struct {
		name string
		args []string
	}{
		{"straight", ycsb},
		{"stepped", with(ycsb, "-invariants-every", "100")},
		{"checkpointed sequence", []string{"-policy", "static", "-sequence", "-records", "256", "-ops", "200",
			"-snapshot", filepath.Join(dir, "s.mcsnap"), "-snapshot-every", "300"}},
		{"experiment", []string{"-exp", "table1", "-quick"}},
	} {
		code, _, stderr := mcsim(with(c.args, "-http", "127.0.0.1:0")...)
		if code != 0 {
			t.Errorf("%s with -http exited %d\n%s", c.name, code, stderr)
		}
		if !strings.Contains(stderr, "mcsim: debug endpoint on http://") {
			t.Errorf("%s did not announce the debug endpoint:\n%s", c.name, stderr)
		}
	}
}
