package uarch

import (
	"testing"

	"vertical3d/internal/config"
	"vertical3d/internal/mem"
	"vertical3d/internal/trace"
	"vertical3d/internal/workload"
)

// squashPair runs the same workload on both kernels under a (possibly
// shrunken) configuration and returns the stats, asserting bit-identity.
// The squash edge cases all reduce to "both kernels walked back the exact
// same in-flight state", which only Stats equality can witness.
func squashPair(t *testing.T, cfg config.Config, bench string, instrs uint64) Stats {
	t.Helper()
	run := func(k Kernel) Stats {
		p, err := workload.ByName(bench)
		if err != nil {
			t.Fatal(err)
		}
		h, err := mem.NewHierarchy(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c, err := NewCoreKernel(0, cfg, trace.NewGenerator(p, 13, 0), h, k)
		if err != nil {
			t.Fatal(err)
		}
		return c.Run(instrs)
	}
	ref, ev := run(KernelReference), run(KernelEvent)
	if ref != ev {
		t.Errorf("%s/%s: kernels diverge:\nref %+v\nevt %+v", cfg.Name, bench, ref, ev)
	}
	return ev
}

// TestSquashWithFullROB forces mispredict squashes to land while the ROB and
// IQ are saturated: a tiny window on a branchy workload. The event kernel
// must clear every popped slot from its ready set, wake wheel and consumer
// sets, or it would issue squashed work or wake a later occupant of the
// slot (caught as a Stats divergence).
func TestSquashWithFullROB(t *testing.T) {
	s := suite(t)
	cfg := s.Configs[config.Base]
	cfg.Core.ROBSize = 16
	cfg.Core.IQSize = 12
	st := squashPair(t, cfg, "Gobmk", 30_000)
	if st.StallROB == 0 {
		t.Error("shrunken ROB must produce ROB-full dispatch stalls")
	}
	if st.Mispredicts == 0 {
		t.Error("Gobmk must mispredict — the test needs squashes in flight")
	}
}

// TestSquashBTBMissOnlyRedirect exercises the redirect path taken by
// correctly predicted branches that nonetheless missed in the BTB: the
// squash triggers without a mispredict. Lbm's biased branches predict well,
// so its BTB misses dominate its redirects.
func TestSquashBTBMissOnlyRedirect(t *testing.T) {
	s := suite(t)
	st := squashPair(t, s.Configs[config.Base], "Lbm", 30_000)
	if st.BTBMisses == 0 {
		t.Error("expected BTB misses to exercise the btbMiss-only redirect")
	}
	if st.BTBMisses <= st.Mispredicts {
		t.Logf("note: BTBMisses %d <= Mispredicts %d (still exercises the path)", st.BTBMisses, st.Mispredicts)
	}
}

// TestSquashForwardingRecordsSurvive leans on a store-heavy, branchy
// workload so mispredict squashes regularly land with recently fetched
// stores in the program-order ring. Forwarding is decided at fetch from
// that ring, which is stream state: records deliberately survive squashes
// (the squashed instructions' addresses were on the correct path up to the
// redirect), so both kernels must keep forwarding identically across them —
// bit-identity plus a nonzero Forwards count pins the shared-probe design.
func TestSquashForwardingRecordsSurvive(t *testing.T) {
	s := suite(t)
	st := squashPair(t, s.Configs[config.Base], "Bzip2", 40_000)
	if st.Forwards == 0 {
		t.Error("Bzip2 must exercise store-to-load forwarding")
	}
	if st.Mispredicts == 0 {
		t.Error("Bzip2 must mispredict so squashes pop indexed stores")
	}
	if st.SQSearches == 0 {
		t.Error("loads must search the store queue")
	}
}
