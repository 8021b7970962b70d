package main

import (
	"errors"
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux
	"os"
	"time"
)

// Wall-clock counters exported on /debug/vars. These observe the host
// process only — the simulation itself is untouched, so enabling the
// endpoint cannot move a single virtual-time result.
var (
	debugStartUnixNano = expvar.NewInt("debug.start_unix_nano")
	// debugServeFailures counts post-bind serve failures of the debug
	// endpoint itself (distinct from the silent http.ErrServerClosed of a
	// clean end-of-run shutdown).
	debugServeFailures   = expvar.NewInt("debug.serve_failures")
	expExperimentsDone   = expvar.NewInt("mcsim.experiments_done")
	expExperimentsFailed = expvar.NewInt("mcsim.experiments_failed")
)

// StartDebug serves the expvar/pprof endpoint on addr in the background. It
// returns the bound address and a stop function that closes the listener and
// waits for the serve loop to exit. A serve failure after the bind is
// reported to stderr and counted on expvar, so a mid-run endpoint death is
// distinguishable from the clean end-of-run stop.
func StartDebug(addr string) (net.Addr, func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	// expvar and pprof both register on http.DefaultServeMux.
	srv := &http.Server{Handler: http.DefaultServeMux}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			debugServeFailures.Add(1)
			fmt.Fprintf(os.Stderr, "debug endpoint failed: %v\n", err)
		}
	}()
	stop := func() {
		srv.Close()
		<-done
	}
	return ln.Addr(), stop, nil
}

// ServeDebug starts the -http endpoint when the flag is set; the returned stop
// function (a no-op otherwise) closes it cleanly at end-of-run. Failure to
// bind is an error — a user who asked for the endpoint should not silently
// profile nothing.
func (f *RunFlags) ServeDebug(stderr io.Writer) (stop func(), err error) {
	if f.HTTP == "" {
		return func() {}, nil
	}
	debugStartUnixNano.Set(time.Now().UnixNano())
	bound, stop, err := StartDebug(f.HTTP)
	if err != nil {
		return nil, fmt.Errorf("mcsim: -http %s: %v", f.HTTP, err)
	}
	fmt.Fprintf(stderr, "mcsim: debug endpoint on http://%s/debug/pprof (expvar at /debug/vars)\n", bound)
	return stop, nil
}
