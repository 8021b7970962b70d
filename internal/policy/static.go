// Package policy implements the baseline tiering systems the paper
// evaluates against MULTI-CLOCK (§II-D, §V): static tiering, Nimble's
// recency-only page selection, AutoTiering-CPM/OPM with software
// hint-page-fault tracking, and persistent memory in Memory-mode. An
// AMP-style selector family (LRU/LFU/random) is provided as an extension.
package policy

import "multiclock/internal/machine"

// Static is static tiering: pages are born in DRAM until it fills, then in
// PM, and never move for the rest of their lifetime (§II-D). It is the
// normalization baseline of every figure in the paper's evaluation.
type Static struct {
	machine.Base
}

// NewStatic returns the static-tiering policy.
func NewStatic() *Static { return &Static{} }

// Name implements machine.Policy.
func (s *Static) Name() string { return "static" }
