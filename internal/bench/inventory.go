package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Table2 reinterprets the paper's Table II (lines of kernel code modified,
// per file) as this repository's inventory: Go lines per package under
// root. The paper changed 673+30 lines of an existing kernel; a
// reproduction builds the substrate too, so the interesting number is the
// whole-system size.
func Table2(root string) (string, error) {
	counts := map[string]int{}
	var walk func(dir, rel string) error
	walk = func(dir, rel string) error {
		entries, err := os.ReadDir(dir)
		if err != nil {
			return err
		}
		for _, e := range entries {
			name := e.Name()
			if strings.HasPrefix(name, ".") {
				continue
			}
			if e.IsDir() {
				if err := walk(dir+"/"+name, rel+name+"/"); err != nil {
					return err
				}
				continue
			}
			if !strings.HasSuffix(name, ".go") {
				continue
			}
			data, err := os.ReadFile(dir + "/" + name)
			if err != nil {
				return err
			}
			pkg := strings.TrimSuffix(rel, "/")
			if pkg == "" {
				pkg = "(root)"
			}
			counts[pkg] += strings.Count(string(data), "\n")
		}
		return nil
	}
	if err := walk(root, ""); err != nil {
		return "", err
	}
	pkgs := make([]string, 0, len(counts))
	for p := range counts {
		pkgs = append(pkgs, p)
	}
	sort.Strings(pkgs)
	var b strings.Builder
	b.WriteString("Table II (reinterpreted) — Go lines per package in this reproduction\n")
	total := 0
	for _, p := range pkgs {
		fmt.Fprintf(&b, "%-28s %6d\n", p, counts[p])
		total += counts[p]
	}
	fmt.Fprintf(&b, "%-28s %6d\n", "TOTAL", total)
	b.WriteString("\n(the paper modified 673 new + 30 existing kernel lines — it got the\nrest of Linux for free; a reproduction builds the substrate too)\n")
	return b.String(), nil
}

// table2 renders Table2 for the module above the working directory.
func table2() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	root, err := FindModuleRoot(wd)
	if err != nil {
		return "", err
	}
	return Table2(root)
}

// FindModuleRoot walks up from dir to the directory containing go.mod.
func FindModuleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(abs, "go.mod")); err == nil {
			return abs, nil
		}
		parent := filepath.Dir(abs)
		if parent == abs {
			return "", fmt.Errorf("go.mod not found above %s", dir)
		}
		abs = parent
	}
}
