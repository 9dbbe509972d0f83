package uarch

import (
	"testing"
	"testing/quick"

	"vertical3d/internal/config"
	"vertical3d/internal/mem"
	"vertical3d/internal/tech"
	"vertical3d/internal/trace"
	"vertical3d/internal/workload"
)

func suite(t testing.TB) *config.Suite {
	t.Helper()
	s, err := config.Derive(tech.N22())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func coreFor(t *testing.T, cfg config.Config, bench string, seed int64) (*Core, *mem.Hierarchy) {
	t.Helper()
	p, err := workload.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	gen := trace.NewGenerator(p, seed, 0)
	h, err := mem.NewHierarchy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCore(0, cfg, gen, h)
	if err != nil {
		t.Fatal(err)
	}
	return c, h
}

func TestRunRetiresExactly(t *testing.T) {
	s := suite(t)
	c, _ := coreFor(t, s.Configs[config.Base], "Hmmer", 1)
	st := c.Run(20_000)
	if st.Instrs < 20_000 || st.Instrs > 20_000+uint64(s.Configs[config.Base].Core.CommitWidth) {
		t.Errorf("retired %d instructions, want ≈20000", st.Instrs)
	}
	if st.Cycles == 0 || st.IPC() <= 0 {
		t.Error("cycles/IPC must be positive")
	}
}

func TestDeterministicExecution(t *testing.T) {
	s := suite(t)
	a, _ := coreFor(t, s.Configs[config.Base], "Gcc", 3)
	b, _ := coreFor(t, s.Configs[config.Base], "Gcc", 3)
	sa := a.Run(15_000)
	sb := b.Run(15_000)
	if sa != sb {
		t.Errorf("same seed must reproduce identical stats:\n%+v\n%+v", sa, sb)
	}
}

func TestIPCWithinPlausibleBounds(t *testing.T) {
	s := suite(t)
	for _, bench := range []string{"Hmmer", "Gamess", "Mcf"} {
		c, _ := coreFor(t, s.Configs[config.Base], bench, 1)
		c.Run(10_000) // warm
		st0 := c.Stats
		c.Run(40_000)
		ipc := float64(c.Stats.Instrs-st0.Instrs) / float64(c.Stats.Cycles-st0.Cycles)
		if ipc <= 0.01 || ipc > 4 {
			t.Errorf("%s IPC %.3f outside (0.01, 4]", bench, ipc)
		}
	}
}

func TestMemoryBoundSlowerThanCoreBound(t *testing.T) {
	s := suite(t)
	cb, _ := coreFor(t, s.Configs[config.Base], "Hmmer", 1)
	mb, _ := coreFor(t, s.Configs[config.Base], "Mcf", 1)
	cb.Run(30_000)
	mb.Run(30_000)
	if cb.Stats.IPC() <= mb.Stats.IPC() {
		t.Errorf("core-bound Hmmer (%.2f) must out-IPC memory-bound Mcf (%.2f)",
			cb.Stats.IPC(), mb.Stats.IPC())
	}
}

func TestShorterBranchPathHelpsBranchyCode(t *testing.T) {
	s := suite(t)
	base := s.Configs[config.Base]
	tsv := s.Configs[config.TSV3D] // same frequency, shorter 3D paths
	a, _ := coreFor(t, base, "Gobmk", 5)
	b, _ := coreFor(t, tsv, "Gobmk", 5)
	a.Run(60_000)
	b.Run(60_000)
	if b.Stats.Cycles >= a.Stats.Cycles {
		t.Errorf("shorter load-to-use/branch paths should save cycles: %d vs %d",
			b.Stats.Cycles, a.Stats.Cycles)
	}
}

func TestPredictorLearnsBiasedBranches(t *testing.T) {
	s := suite(t)
	c, _ := coreFor(t, s.Configs[config.Base], "Lbm", 2) // highly biased branches
	c.Run(60_000)                                        // Lbm is branch-poor: give the 2-bit counters time to train
	st0 := c.Stats
	c.Run(200_000)
	mr := float64(c.Stats.Mispredicts-st0.Mispredicts) /
		float64(c.Stats.Branches-st0.Branches)
	if mr > 0.08 {
		t.Errorf("Lbm-like biased branches should predict well, got %.1f%% mispredicts", mr*100)
	}
	c2, _ := coreFor(t, s.Configs[config.Base], "Gobmk", 2)
	c2.Run(60_000)
	if c2.Stats.MispredictRate() <= mr {
		t.Error("Gobmk must mispredict more than Lbm")
	}
}

func TestStoreForwarding(t *testing.T) {
	s := suite(t)
	c, _ := coreFor(t, s.Configs[config.Base], "Bzip2", 7)
	c.Run(50_000)
	if c.Stats.Forwards == 0 {
		t.Error("store-to-load forwarding should occur in a store-heavy workload")
	}
	if c.Stats.SQSearches < c.Stats.KindCount[trace.Load]/2 {
		t.Error("every issued load searches the store queue")
	}
}

func TestEventCountsConsistent(t *testing.T) {
	s := suite(t)
	c, _ := coreFor(t, s.Configs[config.Base], "Gamess", 9)
	st := c.Run(30_000)
	var kinds uint64
	for _, k := range st.KindCount {
		kinds += k
	}
	// Fetched (KindCount) ≥ committed (squashed entries fetch too).
	if kinds < st.Instrs {
		t.Errorf("fetched %d < committed %d", kinds, st.Instrs)
	}
	if kinds != st.Fetched {
		t.Errorf("KindCount sum %d != Fetched %d (same fetch-time population)", kinds, st.Fetched)
	}
	if st.RFWrites == 0 || st.RFReads == 0 || st.IQInserts < st.Instrs {
		t.Errorf("implausible event counts: %+v", st)
	}
	if st.Mispredicts > st.Branches {
		t.Error("more mispredicts than branches")
	}
}

func TestComplexDecodeCostsBandwidth(t *testing.T) {
	s := suite(t)
	cfgPlain := s.Configs[config.Base]
	cfgHet := cfgPlain
	cfgHet.Core.ComplexDecodeExtra = 4 // exaggerated for signal over noise

	p, err := workload.ByName("Hmmer") // frontend-sensitive, high IPC
	if err != nil {
		t.Fatal(err)
	}
	p.ComplexFrac = 0.8 // exaggerate to make the effect measurable
	mk := func(cfg config.Config) Stats {
		gen := trace.NewGenerator(p, 4, 0)
		h, err := mem.NewHierarchy(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c, err := NewCore(0, cfg, gen, h)
		if err != nil {
			t.Fatal(err)
		}
		return c.Run(30_000)
	}
	a := mk(cfgPlain)
	b := mk(cfgHet)
	if b.Cycles <= a.Cycles {
		t.Errorf("complex-decode penalty should cost cycles: %d vs %d", b.Cycles, a.Cycles)
	}
}

func TestNewCoreValidation(t *testing.T) {
	s := suite(t)
	if _, err := NewCore(0, s.Configs[config.Base], nil, nil); err == nil {
		t.Error("expected error for nil generator/backend")
	}
}

func TestPredictorUnit(t *testing.T) {
	p := NewPredictor(config.DefaultCore())
	pc, tgt := uint64(0x400100), uint64(0x400800)
	// Train taken.
	for i := 0; i < 16; i++ {
		p.Update(pc, true, tgt)
	}
	taken, target, hit := p.Predict(pc)
	if !taken || !hit || target != tgt {
		t.Errorf("predictor failed to learn an always-taken branch: %v %v %#x", taken, hit, target)
	}
	// Re-train not-taken.
	for i := 0; i < 16; i++ {
		p.Update(pc, false, tgt)
	}
	if taken, _, _ := p.Predict(pc); taken {
		t.Error("predictor failed to re-learn a not-taken branch")
	}
}

func TestPredictorAlternatingPattern(t *testing.T) {
	// The local history component should capture a strict alternation.
	p := NewPredictor(config.DefaultCore())
	pc := uint64(0x400204)
	correct := 0
	outcome := false
	for i := 0; i < 400; i++ {
		pred, _, _ := p.Predict(pc)
		if pred == outcome {
			correct++
		}
		p.Update(pc, outcome, 0x400900)
		outcome = !outcome
	}
	if frac := float64(correct) / 400; frac < 0.8 {
		t.Errorf("alternating branch predicted %.0f%%, local history should catch it", frac*100)
	}
}

func TestPropertyRunMonotoneCycles(t *testing.T) {
	s := suite(t)
	f := func(seed uint8) bool {
		c, _ := coreFor(t, s.Configs[config.Base], "Hmmer", int64(seed))
		st1 := c.Run(2000)
		cy1 := st1.Cycles
		st2 := c.Run(4000)
		return st2.Cycles > cy1 && st2.Instrs >= 4000
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}

func TestSquashRestoresResources(t *testing.T) {
	// After many mispredict squashes, structure occupancy accounting must
	// stay consistent: everything drains once the stream runs clean.
	s := suite(t)
	c, _ := coreFor(t, s.Configs[config.Base], "Gobmk", 13) // branchy
	c.Run(40_000)
	_, rob, iq, _ := c.DebugState()
	if iq > rob {
		t.Errorf("IQ occupancy %d cannot exceed ROB occupancy %d", iq, rob)
	}
	if rob < 0 || iq < 0 {
		t.Errorf("negative occupancy after squashes: rob=%d iq=%d", rob, iq)
	}
	if c.Stats.Mispredicts == 0 {
		t.Error("Gobmk run should contain mispredictions")
	}
}

func TestHigherFrequencySeesMoreMemoryCycles(t *testing.T) {
	// The paper's Section 6 mechanism: DRAM latency is fixed in nanoseconds,
	// so a faster core pays more cycles per miss and memory-bound work gains
	// sub-linearly with frequency.
	s := suite(t)
	base := s.Configs[config.Base]
	fast := s.Configs[config.M3DHet]
	a, _ := coreFor(t, base, "Mcf", 21)
	b, _ := coreFor(t, fast, "Mcf", 21)
	a.Run(30_000)
	b.Run(30_000)
	secA := float64(a.Stats.Cycles) / (base.FreqGHz * 1e9)
	secB := float64(b.Stats.Cycles) / (fast.FreqGHz * 1e9)
	speedup := secA / secB
	freqRatio := fast.FreqGHz / base.FreqGHz
	if speedup >= freqRatio {
		t.Errorf("memory-bound Mcf speedup %.3f should trail the frequency ratio %.3f", speedup, freqRatio)
	}
	if speedup < 0.9 {
		t.Errorf("M3D-Het should still not slow Mcf down: %.3f", speedup)
	}
}

func TestWiderIssueHelpsWhenBackendBound(t *testing.T) {
	s := suite(t)
	narrow := s.Configs[config.Base]
	wide := narrow
	wide.Core.IssueWidth = 1 // throttle issue: the same code must slow down
	a, _ := coreFor(t, narrow, "Hmmer", 3)
	b, _ := coreFor(t, wide, "Hmmer", 3)
	a.Run(20_000) // warm caches so issue bandwidth binds
	b.Run(20_000)
	a0, b0 := a.Stats.Cycles, b.Stats.Cycles
	a.Run(60_000)
	b.Run(60_000)
	if b.Stats.Cycles-b0 <= a.Stats.Cycles-a0 {
		t.Errorf("issue width 1 must be slower than 6: %d vs %d cycles",
			b.Stats.Cycles-b0, a.Stats.Cycles-a0)
	}
}

// TestRaisingFrequencyNeverSlows pins the frequency invariant behind the
// paper's 3D speedups: with DRAM latency fixed in nanoseconds, a faster
// clock pays more cycles per DRAM miss but never so many that the run takes
// longer in seconds. Every profile is checked on Base and on M3D-Het at
// 1.1x, 1.25x and 1.5x their frequency.
func TestRaisingFrequencyNeverSlows(t *testing.T) {
	s := suite(t)
	for _, d := range []config.Design{config.Base, config.M3DHet} {
		cfg := s.Configs[d]
		for _, bench := range workload.Names() {
			t.Run(cfg.Name+"/"+bench, func(t *testing.T) {
				t.Parallel()
				seconds := func(scale float64) float64 {
					c := cfg
					c.FreqGHz *= scale
					core, _ := coreFor(t, c, bench, 5)
					return float64(core.Run(30_000).Cycles) / (c.FreqGHz * 1e9)
				}
				base := seconds(1)
				for _, scale := range []float64{1.1, 1.25, 1.5} {
					if sec := seconds(scale); sec > base {
						t.Errorf("%.2fx clock: %.6g s > %.6g s at the design frequency", scale, sec, base)
					}
				}
			})
		}
	}
}
