package cliutil

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

	before := DebugServeFailures()
	stop() // blocks until the serve loop has exited
	if got := DebugServeFailures(); got != before {
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

// TestDebugEndpointOnBothBinaries proves -http is wired through both CLIs in
// every mode, including mcsim's stepped ones (checkpointing, invariant
// sweeps) — the long runs the endpoint exists for: each binary
// runs a tiny job with the endpoint enabled, announces the bound address, and
// exits cleanly (the listener did not hold the process open).
func TestDebugEndpointOnBothBinaries(t *testing.T) {
	if testing.Short() {
		t.Skip("builds both CLI binaries")
	}
	dir := t.TempDir()
	mcsim := buildCLI(t, dir, "multiclock/cmd/mcsim", "mcsim")
	mcbench := buildCLI(t, dir, "multiclock/cmd/mcbench", "mcbench")

	cases := []struct {
		name string
		bin  string
		args []string
	}{
		{"mcsim", mcsim, []string{"-policy", "static", "-workload", "C",
			"-records", "256", "-ops", "500", "-http", "127.0.0.1:0"}},
		{"mcbench", mcbench, []string{"-exp", "table1", "-quick", "-http", "127.0.0.1:0"}},
		{"mcsim stepped", mcsim, []string{"-policy", "static", "-workload", "C",
			"-records", "256", "-ops", "500", "-invariants-every", "100", "-http", "127.0.0.1:0"}},
		{"mcsim checkpointed sequence", mcsim, []string{"-policy", "static", "-sequence",
			"-records", "256", "-ops", "200", "-snapshot", filepath.Join(dir, "s.mcsnap"), "-snapshot-every", "300",
			"-http", "127.0.0.1:0"}},
	}
	for _, c := range cases {
		code, stderr := runCLI(t, c.bin, c.args...)
		if code != 0 {
			t.Errorf("%s with -http exited %d\n%s", c.name, code, stderr)
		}
		if !strings.Contains(stderr, "debug endpoint on http://") {
			t.Errorf("%s did not announce the debug endpoint:\n%s", c.name, stderr)
		}
	}
}
