package policy

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestNoHardcodedTierConstants pins the tier-relative API migration: policy
// sources — and the machine's access path and the fault injector, which
// decide what a slowdown fault hits — must navigate the hierarchy through
// FastestTier/Above/Below and friends, never by naming mem.TierDRAM or
// mem.TierPM directly. Test files are exempt — they legitimately pin
// two-tier placement expectations.
func TestNoHardcodedTierConstants(t *testing.T) {
	banned := regexp.MustCompile(`\bmem\.Tier(DRAM|PM)\b`)
	for _, dir := range []string{".", "../machine", "../fault"} {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			data, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			for i, line := range strings.Split(string(data), "\n") {
				if banned.MatchString(line) {
					t.Errorf("%s/%s:%d: hardcoded tier constant: %s",
						dir, name, i+1, strings.TrimSpace(line))
				}
			}
		}
	}
}

// sortedMapRanges are the only functions in the simulation packages that may
// range over a map: each collects the keys and sorts them before anything
// order-dependent happens (the page cache's only removes what it visits).
var sortedMapRanges = map[string]bool{
	"core.MultiClock.Checkpoint":      true, // lastDemote, node order
	"policy.AutoTiering.Checkpoint":   true, // at-scan cursors, space order
	"policy.Thermostat.sortedRegions": true, // regions, (space, base) order
	"machine.pageCache.Invalidate":    true, // drops every sub-frame entry of one page
}

// TestNoUnsortedMapRange pins the determinism contract at the source: Go
// randomizes map iteration, so a `for … range <map>` in the simulation
// packages makes a run irreproducible the moment the loop body is
// order-dependent (Thermostat's region loop was, under its DemoteBatch cap).
// Every such loop must live in an allow-listed function that sorts first.
func TestNoUnsortedMapRange(t *testing.T) {
	fset := token.NewFileSet()
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	for _, dir := range []string{"../sim", "../mem", "../lru", "../machine", "../core", ".",
		"../pagecache", "../pagetable", "../kvstore", "../fault"} {
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
			info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}}
			if _, err := conf.Check("multiclock/internal/"+name, fset, files, info); err != nil {
				t.Fatalf("type-checking %s: %v", dir, err)
			}
			for _, f := range files {
				for _, decl := range f.Decls {
					fn, ok := decl.(*ast.FuncDecl)
					if !ok {
						continue
					}
					fname := name + "."
					if fn.Recv != nil {
						recv := fn.Recv.List[0].Type
						if star, ok := recv.(*ast.StarExpr); ok {
							recv = star.X
						}
						fname += types.ExprString(recv) + "."
					}
					fname += fn.Name.Name
					if sortedMapRanges[fname] {
						continue
					}
					ast.Inspect(fn, func(n ast.Node) bool {
						if rs, ok := n.(*ast.RangeStmt); ok {
							if _, isMap := info.TypeOf(rs.X).Underlying().(*types.Map); isMap {
								t.Errorf("%s: %s ranges over a map; sort the keys first (and allow-list the function)",
									fset.Position(rs.Pos()), fname)
							}
						}
						return true
					})
				}
			}
		}
	}
}
