package pagetable

import "math/bits"

// Checkpoint accessors. An address space's VMAs and bump-allocator position
// are fully determined by the workload's construction-time Mmap calls — the
// store pre-reserves its arena, so no VMA is created after construction and
// restore only needs to verify the geometry, not replay it. The PTE tree and
// mapped count are rebuilt by re-installing the restored LRU-resident pages;
// only the swap residency set carries state of its own.

// NextVPN returns the mmap bump-allocator position (checkpoint verification).
func (as *AddressSpace) NextVPN() VPN { return as.nextVPN }

// SwappedVPNs returns the swapped-out VPNs in ascending order.
func (as *AddressSpace) SwappedVPNs() []VPN {
	out := make([]VPN, 0, as.nswapped)
	for w, word := range as.swapped {
		for ; word != 0; word &= word - 1 {
			out = append(out, VPN(w<<6|bits.TrailingZeros64(word)))
		}
	}
	return out
}
