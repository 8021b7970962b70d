package fault

import "multiclock/internal/snapcodec"

// Checkpoint serialization. The injector's configuration is resolved
// deterministically at construction (New applies the same defaults for equal
// Configs), so only the mutable state travels: the private RNG stream, the
// open fault windows and the tallies.

// Checkpoint codes the injector's mutable state; reading, the injector is
// freshly constructed with the same configuration.
func (f *Injector) Checkpoint(c *snapcodec.Codec) error {
	f.rng.Checkpoint(c)
	snapcodec.I64(c, &f.slowUntil)
	snapcodec.I64(c, &f.stormUntil)
	for k := range f.Counters.Injected {
		snapcodec.I64(c, &f.Counters.Injected[k])
	}
	return c.Err()
}
