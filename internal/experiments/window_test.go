package experiments

import (
	"testing"

	"vertical3d/internal/config"
	"vertical3d/internal/mem"
	"vertical3d/internal/tech"
	"vertical3d/internal/trace"
	"vertical3d/internal/uarch"
)

// TestFullCellCountersCoverMeasureWindow checks that every counter of a
// full-simulation sweep cell is the measure-window delta, including those
// (Fetched, LoadL1Misses, the stall counters) the power model never reads.
func TestFullCellCountersCoverMeasureWindow(t *testing.T) {
	s, err := config.Derive(tech.N22())
	if err != nil {
		t.Fatal(err)
	}
	prof := oracleProfiles(t, "Mcf")[0]
	opt := RunOptions{Warmup: 4_000, Measure: 12_000, Seed: 42}
	f, err := Fig6WithDesigns(s, []trace.Profile{prof}, []config.Design{config.Base}, opt)
	if err != nil {
		t.Fatal(err)
	}
	got := f.Runs[prof.Name][config.Base]

	cfg := s.Configs[config.Base]
	h, err := mem.NewHierarchy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := uarch.NewCoreKernel(0, cfg, trace.NewGenerator(prof, opt.Seed, opt.StreamID), h, opt.Kernel)
	if err != nil {
		t.Fatal(err)
	}
	c.Run(opt.Warmup)
	s0, m0 := c.Stats, h.Stats()
	c.Run(opt.Warmup + opt.Measure)

	if want := c.Stats.Fetched - s0.Fetched; got.Stats.Fetched != want {
		t.Errorf("Stats.Fetched = %d, want the measure-window delta %d (cumulative %d)", got.Stats.Fetched, want, c.Stats.Fetched)
	}
	if want := c.Stats.Sub(s0); got.Stats != want {
		t.Errorf("Stats = %+v, want the measure-window delta %+v", got.Stats, want)
	}
	if want := h.Stats().Sub(m0); got.Mem != want {
		t.Errorf("Mem = %+v, want the measure-window delta %+v", got.Mem, want)
	}
}
