package multiclock

import (
	"errors"
	"os/exec"
	"strings"
	"testing"
)

// linksNetwork reports whether a package belongs to the network stack the
// -http debug endpoint brings: net/http, expvar and pprof, the TLS and
// resolver code below them, and cgo.
func linksNetwork(pkg string) bool {
	switch pkg {
	case "net", "crypto/tls", "expvar", "os/user", "runtime/cgo":
		return true
	}
	return strings.HasPrefix(pkg, "net/")
}

// TestLibraryLinksNoNetworkStack pins the layering cmd/* → bench → engine.
// The facade, internal/bench (which the benchmark binary links) and every
// example must not reach the network stack: those pages are mapped into every
// run of every program built on the library, and were the larger part of a
// short run's peak RSS. Only cmd/mcsim, which serves -http, links net/http
// (its flag handling is package main, which nothing can import), and the walk
// must find it from there, so an empty import graph cannot pass.
func TestLibraryLinksNoNetworkStack(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go command not found")
	}
	// One line per package in the closure: "*" marks a package the
	// patterns named, then its path and its direct imports.
	out, err := exec.Command("go", "list", "-deps",
		"-f", `{{if not .DepOnly}}*{{end}}{{.ImportPath}}{{range .Imports}} {{.}}{{end}}`,
		"multiclock", "multiclock/internal/bench", "./examples/...", "./cmd/mcsim").Output()
	if err != nil {
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			t.Fatalf("go list: %v\n%s", err, ee.Stderr)
		}
		t.Fatalf("go list: %v", err)
	}
	imports := map[string][]string{}
	var roots []string
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		f := strings.Fields(line)
		pkg, named := strings.CutPrefix(f[0], "*")
		for i, imp := range f[1:] {
			if imp == "C" { // cgo: the go command links runtime/cgo for it
				f[1+i] = "runtime/cgo"
			}
		}
		imports[pkg] = f[1:]
		if named {
			roots = append(roots, pkg)
		}
	}

	// chain returns the shortest import chain from root to a package
	// matching want, or nil.
	chain := func(root string, want func(string) bool) []string {
		from := map[string]string{root: ""}
		for queue := []string{root}; len(queue) > 0; queue = queue[1:] {
			pkg := queue[0]
			if want(pkg) {
				var c []string
				for p := pkg; p != ""; p = from[p] {
					c = append([]string{p}, c...)
				}
				return c
			}
			for _, imp := range imports[pkg] {
				if _, seen := from[imp]; !seen {
					from[imp] = pkg
					queue = append(queue, imp)
				}
			}
		}
		return nil
	}

	libraries := 0
	for _, root := range roots {
		if root == "multiclock/cmd/mcsim" {
			continue
		}
		libraries++
		if c := chain(root, linksNetwork); c != nil {
			t.Errorf("%s links %s: %s", root, c[len(c)-1], strings.Join(c, " → "))
		}
	}
	if libraries < 3 {
		t.Errorf("walked %d library packages (%v); want the facade, internal/bench and the examples", libraries, roots)
	}
	if chain("multiclock/cmd/mcsim", func(p string) bool { return p == "net/http" }) == nil {
		t.Error("the walk does not find net/http from cmd/mcsim, which serves -http; the import graph is incomplete")
	}
}
