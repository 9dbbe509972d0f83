package experiments

// Determinism contract of the parallel sweeps: results depend only on
// (profile, design, seed) — never on the worker count, the scheduling
// order, or the position of the base design in the design list. These
// tests pin all three properties.

import (
	"reflect"
	"strings"
	"testing"

	"vertical3d/internal/config"
	"vertical3d/internal/multicore"
	"vertical3d/internal/sram"
	"vertical3d/internal/sweep"
	"vertical3d/internal/tech"
)

// TestFig6DeterministicAcrossWorkers runs the quick single-core sweep with
// one worker and with eight and requires bit-identical results.
func TestFig6DeterministicAcrossWorkers(t *testing.T) {
	suite, err := config.Derive(tech.N22())
	if err != nil {
		t.Fatal(err)
	}
	list := workloadSubset(t, []string{"Hmmer", "Mcf"})
	run := func(workers int) *Fig6Result {
		opt := QuickRunOptions()
		opt.Workers = workers
		f, err := Fig6With(suite, list, opt)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return f
	}
	a, b := run(1), run(8)
	if !reflect.DeepEqual(a.Runs, b.Runs) {
		t.Error("Fig6 Runs differ between 1 and 8 workers")
	}
	if !reflect.DeepEqual(a.Speedup, b.Speedup) {
		t.Error("Fig6 Speedup differs between 1 and 8 workers")
	}
	if !reflect.DeepEqual(a.NormEnergy, b.NormEnergy) {
		t.Error("Fig6 NormEnergy differs between 1 and 8 workers")
	}
	if !reflect.DeepEqual(a.Benchmarks, b.Benchmarks) {
		t.Error("Fig6 benchmark order differs between 1 and 8 workers")
	}
}

// TestFig9DeterministicAcrossWorkers is the multicore counterpart.
func TestFig9DeterministicAcrossWorkers(t *testing.T) {
	suite, err := config.Derive(tech.N22())
	if err != nil {
		t.Fatal(err)
	}
	list := workloadSubset(t, []string{"Blackscholes"})
	run := func(workers int) *Fig9Result {
		opt := multicore.Options{TotalInstrs: 40_000, WarmupPerCore: 3_000, Phases: 2, Seed: 7}
		opt.Workers = workers
		f, err := Fig9With(suite, list, opt)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return f
	}
	a, b := run(1), run(8)
	if !reflect.DeepEqual(a.Runs, b.Runs) {
		t.Error("Fig9 Runs differ between 1 and 8 workers")
	}
	if !reflect.DeepEqual(a.Speedup, b.Speedup) {
		t.Error("Fig9 Speedup differs between 1 and 8 workers")
	}
	if !reflect.DeepEqual(a.NormEnergy, b.NormEnergy) {
		t.Error("Fig9 NormEnergy differs between 1 and 8 workers")
	}
}

// TestFig6ShuffledDesignOrder is the regression test for the base-ratio
// ordering hazard: with the old single-pass loop, any design evaluated
// before config.Base divided by a zero baseSec/baseJ. The two-pass join
// must give identical ratios no matter where Base sits in the list.
func TestFig6ShuffledDesignOrder(t *testing.T) {
	suite, err := config.Derive(tech.N22())
	if err != nil {
		t.Fatal(err)
	}
	list := workloadSubset(t, []string{"Gobmk"})
	opt := QuickRunOptions()
	ref, err := Fig6With(suite, list, opt) // plot order: Base first
	if err != nil {
		t.Fatal(err)
	}
	// Base dead last, the rest reversed.
	shuffled := []config.Design{config.M3DHetAgg, config.M3DHet, config.M3DHetNaive, config.M3DIso, config.TSV3D, config.Base}
	got, err := Fig6WithDesigns(suite, list, shuffled, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range shuffled {
		if ref.Speedup["Gobmk"][d] != got.Speedup["Gobmk"][d] {
			t.Errorf("%s: speedup %.6f (plot order) != %.6f (base last)", d, ref.Speedup["Gobmk"][d], got.Speedup["Gobmk"][d])
		}
		if ref.NormEnergy["Gobmk"][d] != got.NormEnergy["Gobmk"][d] {
			t.Errorf("%s: norm energy %.6f (plot order) != %.6f (base last)", d, ref.NormEnergy["Gobmk"][d], got.NormEnergy["Gobmk"][d])
		}
	}
	if got.Speedup["Gobmk"][config.Base] != 1.0 {
		t.Errorf("Base speedup must be exactly 1.0 with Base last, got %v", got.Speedup["Gobmk"][config.Base])
	}

	// A design list without Base cannot be normalised and must fail loudly
	// instead of dividing by zero.
	if _, err := Fig6WithDesigns(suite, list, []config.Design{config.TSV3D, config.M3DHet}, opt); err == nil {
		t.Error("Fig6WithDesigns must reject a design list without config.Base")
	} else if !strings.Contains(err.Error(), "config.Base") {
		t.Errorf("error should name config.Base, got: %v", err)
	}
}

// TestFig9ShuffledDesignOrder pins the same contract for the multicore sweep.
func TestFig9ShuffledDesignOrder(t *testing.T) {
	suite, err := config.Derive(tech.N22())
	if err != nil {
		t.Fatal(err)
	}
	list := workloadSubset(t, []string{"Canneal"})
	opt := multicore.Options{TotalInstrs: 40_000, WarmupPerCore: 3_000, Phases: 2, Seed: 7}
	ref, err := Fig9With(suite, list, opt)
	if err != nil {
		t.Fatal(err)
	}
	shuffled := []config.MulticoreDesign{config.MCHet2X, config.MCHetW, config.MCHet, config.MCTSV3D, config.MCBase}
	got, err := Fig9WithDesigns(suite, list, shuffled, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range shuffled {
		if ref.Speedup["Canneal"][d] != got.Speedup["Canneal"][d] {
			t.Errorf("%s: speedup %.6f (plot order) != %.6f (base last)", d, ref.Speedup["Canneal"][d], got.Speedup["Canneal"][d])
		}
		if ref.NormEnergy["Canneal"][d] != got.NormEnergy["Canneal"][d] {
			t.Errorf("%s: norm energy %.6f (plot order) != %.6f (base last)", d, ref.NormEnergy["Canneal"][d], got.NormEnergy["Canneal"][d])
		}
	}
	if _, err := Fig9WithDesigns(suite, list, []config.MulticoreDesign{config.MCHet}, opt); err == nil {
		t.Error("Fig9WithDesigns must reject a design list without config.MCBase")
	}
}

// TestStrategyTableCacheHits runs a partition table twice and requires the
// second pass to be served (at least partly) from the SRAM model cache with
// identical rows.
func TestStrategyTableCacheHits(t *testing.T) {
	sram.ResetModelCache()
	first, _, err := StrategyTable(sweep.Env{}, sram.BitPart)
	if err != nil {
		t.Fatal(err)
	}
	second, _, err := StrategyTable(sweep.Env{}, sram.BitPart)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Error("StrategyTable rows changed between cached runs")
	}
	st := sram.CacheStats()
	if st.Hits == 0 {
		t.Errorf("second StrategyTable run should hit the model cache: %+v", st)
	}
	if st.Misses == 0 {
		t.Errorf("first StrategyTable run should miss the empty cache: %+v", st)
	}
}
