package uarch

import (
	"testing"

	"vertical3d/internal/config"
	"vertical3d/internal/mem"
	"vertical3d/internal/trace"
	"vertical3d/internal/workload"
)

// TestTapeCoreMatchesInline is the probe tape's oracle: for every SPEC
// profile, on both kernels, an M3D-Het core replaying a tape recorded over
// the Base configuration must reach the Stats of an inline M3D-Het core
// probing its own hierarchy at the warmup and measure boundaries of a
// quick-sized cell (20k + 60k instructions), and the tape's counters at
// each boundary's fetch count must equal the live hierarchy's. A single
// diverging probe changes a fill level, a forwarding or prediction bit, or
// a counter, and fails here; the two designs' different fill latencies
// check that each core prices the recorded levels itself.
func TestTapeCoreMatchesInline(t *testing.T) {
	const warmup, measure = 20_000, 60_000
	s := suite(t)
	cfg := s.Configs[config.M3DHet]
	for _, prof := range workload.SPEC2006() {
		prof := prof
		t.Run(prof.Name, func(t *testing.T) {
			t.Parallel()
			rec := trace.Record(prof, 3, 0, warmup+measure)
			for _, k := range []Kernel{KernelEvent, KernelReference} {
				tp, err := NewTape(s.Configs[config.Base], trace.NewReplayer(rec))
				if err != nil {
					t.Fatal(err)
				}
				h, err := mem.NewHierarchy(cfg)
				if err != nil {
					t.Fatal(err)
				}
				inline, err := NewCoreKernel(0, cfg, trace.NewReplayer(rec), h, k)
				if err != nil {
					t.Fatal(err)
				}
				taped, err := NewTapeCore(cfg, tp, k)
				if err != nil {
					t.Fatal(err)
				}
				for _, n := range []uint64{warmup, warmup + measure} {
					want, got := inline.Run(n), taped.Run(n)
					if got != want {
						t.Fatalf("%v at %d: tape-fed Stats diverge:\ninline %+v\ntape   %+v", k, n, want, got)
					}
					if hs, live := tp.HierStats(got.Fetched), h.Stats(); hs != live {
						t.Fatalf("%v at %d: tape HierStats diverge:\nlive %+v\ntape %+v", k, n, live, hs)
					}
				}
			}
		})
	}
}

// TestTapeRefusals covers the cases a tape cannot serve: a core without a
// tape, fill latencies that cannot be told apart, and a tape-fed core
// asked to fast-forward or run sampled.
func TestTapeRefusals(t *testing.T) {
	s := suite(t)
	cfg := s.Configs[config.Base]
	if _, err := NewTapeCore(cfg, nil, KernelEvent); err == nil {
		t.Error("NewTapeCore accepted a nil tape")
	}
	flat := cfg
	flat.Core.L3.RTCycles = 0 // an L3 hit costs what an L2 hit does
	prof, err := workload.ByName("Mcf")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewTape(flat, trace.NewGenerator(prof, 1, 0)); err == nil {
		t.Error("NewTape accepted fill latencies that cannot be classified")
	}
	tp, err := NewTape(cfg, trace.NewGenerator(prof, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewTapeCore(flat, tp, KernelEvent); err == nil {
		t.Error("NewTapeCore accepted fill latencies that cannot be classified")
	}
	c, err := NewTapeCore(cfg, tp, KernelEvent)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunSampled(10_000, DefaultSampleParams(), nil); err == nil {
		t.Error("a tape-fed core ran sampled")
	}
	defer func() {
		if recover() == nil {
			t.Error("a tape-fed core fast-forwarded")
		}
	}()
	c.FastForward(100)
}
