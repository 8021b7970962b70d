package policy

import (
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
