package power

import (
	"math"
	"testing"

	"vertical3d/internal/config"
	"vertical3d/internal/mem"
	"vertical3d/internal/tech"
	"vertical3d/internal/trace"
	"vertical3d/internal/uarch"
	"vertical3d/internal/workload"
)

func runOne(t *testing.T, cfg config.Config, bench string) (uarch.Stats, mem.HierStats, float64) {
	t.Helper()
	p, err := workload.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	gen := trace.NewGenerator(p, 42, 0)
	h, err := mem.NewHierarchy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := uarch.NewCore(0, cfg, gen, h)
	if err != nil {
		t.Fatal(err)
	}
	st := c.Run(60_000)
	sec := float64(st.Cycles) / (cfg.FreqGHz * 1e9)
	return st, h.Stats(), sec
}

func TestBasePowerPlausible(t *testing.T) {
	s, err := config.Derive(tech.N22())
	if err != nil {
		t.Fatal(err)
	}
	st, hs, sec := runOne(t, s.Configs[config.Base], "Gamess")
	b := Estimate(s.Configs[config.Base], st, hs, sec)
	w := b.AvgWatts()
	// Section 7.1.3: the Base core averages 6.4W. Allow a wide band —
	// absolute watts depend on per-app activity.
	if w < 3 || w > 11 {
		t.Errorf("Base core power %.1fW outside [3,11]W around the paper's 6.4W", w)
	}
	if b.TotalJ() <= 0 || b.SRAMJ <= 0 || b.ClockJ <= 0 || b.LeakageJ <= 0 {
		t.Errorf("all components must be positive: %+v", b)
	}
	// No category may dwarf everything else.
	for name, v := range map[string]float64{"sram": b.SRAMJ, "clock": b.ClockJ, "leak": b.LeakageJ} {
		if v/b.TotalJ() > 0.7 {
			t.Errorf("%s is %.0f%% of total — composition is off", name, 100*v/b.TotalJ())
		}
	}
}

func TestM3DSavesEnergy(t *testing.T) {
	s, err := config.Derive(tech.N22())
	if err != nil {
		t.Fatal(err)
	}
	stB, hsB, secB := runOne(t, s.Configs[config.Base], "Povray")
	stH, hsH, secH := runOne(t, s.Configs[config.M3DHet], "Povray")
	eB := Estimate(s.Configs[config.Base], stB, hsB, secB).TotalJ()
	eH := Estimate(s.Configs[config.M3DHet], stH, hsH, secH).TotalJ()
	saving := 1 - eH/eB
	if saving < 0.15 || saving > 0.55 {
		t.Errorf("M3D-Het energy saving %.0f%% outside [15,55]%% around the paper's 39%%", saving*100)
	}

	stT, hsT, secT := runOne(t, s.Configs[config.TSV3D], "Povray")
	eT := Estimate(s.Configs[config.TSV3D], stT, hsT, secT).TotalJ()
	if eT <= eH {
		t.Error("TSV3D must save less energy than M3D-Het")
	}
	if eT >= eB {
		t.Error("TSV3D must still save energy vs Base")
	}
}

func TestVoltageScaling(t *testing.T) {
	s, err := config.Derive(tech.N22())
	if err != nil {
		t.Fatal(err)
	}
	cfg := s.Configs[config.M3DHet]
	st, hs, sec := runOne(t, cfg, "Fft")
	hi := Estimate(cfg, st, hs, sec)
	cfg.Vdd = 0.75
	lo := Estimate(cfg, st, hs, sec)
	if lo.TotalJ() >= hi.TotalJ() {
		t.Error("lower Vdd must lower energy")
	}
	if lo.LeakageJ >= hi.LeakageJ {
		t.Error("lower Vdd must lower leakage")
	}
}

// TestBlockPowersCoverFloorplan pins BlockPowers to Estimate's per-event
// sums: the blocks carry every joule of the run except the L3 and DRAM
// accesses and the NoC hops, which happen off the core floorplan, and the
// area shares that spread clock, wire and leakage sum to one.
func TestBlockPowersCoverFloorplan(t *testing.T) {
	var shares float64
	for _, v := range blockShare {
		shares += v
	}
	if math.Abs(shares-1) > 1e-12 {
		t.Errorf("block area shares sum to %.15f, want 1", shares)
	}
	s, err := config.Derive(tech.N22())
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"FE", "RAT", "IQ", "RF", "ALU", "FPU", "LSU", "L2"}
	for _, d := range append(config.SingleCoreDesigns(), config.M3DHetLP) {
		cfg := s.Configs[d]
		st, hs, sec := runOne(t, cfg, "Mcf")
		blocks := BlockPowers(cfg, st, hs, sec)
		if len(blocks) != len(want) {
			t.Errorf("%s: %d blocks, want %d", d, len(blocks), len(want))
		}
		var watts float64
		for _, name := range want {
			v, ok := blocks[name]
			if !ok || v <= 0 {
				t.Errorf("%s: block %q missing or non-positive: %v", d, name, v)
			}
			watts += v
		}
		b := Estimate(cfg, st, hs, sec)
		offCore := (float64(hs.L3.Accesses)*eL3 + float64(hs.DRAMAccesses)*eDRAM) * cfg.EnergyFactors.SRAM * dynScale(cfg)
		got := watts*sec + offCore + b.NoCJ
		if rel := math.Abs(got-b.TotalJ()) / b.TotalJ(); rel > 1e-12 {
			t.Errorf("%s: blocks + off-core energy = %.9g J, Estimate total = %.9g J (relative error %.2g)",
				d, got, b.TotalJ(), rel)
		}
	}
}

func TestScaleAndAdd(t *testing.T) {
	b := Breakdown{SRAMJ: 1, LogicJ: 2, ClockJ: 3, WireJ: 4, NoCJ: 5, LeakageJ: 6, Seconds: 7}
	d := b.Scale(2)
	if d.SRAMJ != 2 || d.LeakageJ != 12 || d.Seconds != 7 {
		t.Errorf("scale wrong: %+v", d)
	}
	sum := b.Add(d)
	if sum.TotalJ() != b.TotalJ()*3 || sum.Seconds != 7 {
		t.Errorf("add wrong: %+v", sum)
	}
	if (Breakdown{}).AvgWatts() != 0 {
		t.Error("zero-duration breakdown must report zero watts")
	}
}
