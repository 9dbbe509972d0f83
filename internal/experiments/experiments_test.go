package experiments

import (
	"bytes"
	"strings"
	"testing"

	"vertical3d/internal/config"
	"vertical3d/internal/multicore"
	"vertical3d/internal/sram"
	"vertical3d/internal/sweep"
	"vertical3d/internal/tech"
	"vertical3d/internal/trace"
	"vertical3d/internal/workload"
)

func TestTable1MatchesPaper(t *testing.T) {
	rows := Table1()
	if len(rows) != 3 {
		t.Fatalf("Table 1 compares 3 vias, got %d", len(rows))
	}
	for _, r := range rows[1:] { // TSVs: model must land on the paper values
		if r.VsAdderPct < r.PaperAdderPct*0.9 || r.VsAdderPct > r.PaperAdderPct*1.1 {
			t.Errorf("%s adder overhead %.1f%% vs paper %.1f%%", r.Via, r.VsAdderPct, r.PaperAdderPct)
		}
	}
	if rows[0].VsAdderPct > 0.01 {
		t.Errorf("MIV overhead %.4f%% must be <0.01%%", rows[0].VsAdderPct)
	}
}

func TestStrategyTablesRun(t *testing.T) {
	for _, st := range []sram.Strategy{sram.BitPart, sram.WordPart, sram.PortPart} {
		rows, _, err := StrategyTable(sweep.Env{}, st)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) == 0 {
			t.Fatalf("%v: no rows", st)
		}
		var buf bytes.Buffer
		RenderPartitionTable(&buf, rows)
		if !strings.Contains(buf.String(), "RF") {
			t.Errorf("%v rendering lacks the RF row", st)
		}
	}
}

func TestTable6And8Consistent(t *testing.T) {
	m3d, tsv, _, err := Table6(sweep.Env{})
	if err != nil {
		t.Fatal(err)
	}
	het, err := Table8()
	if err != nil {
		t.Fatal(err)
	}
	if len(m3d) != 12 || len(tsv) != 12 || len(het) != 12 {
		t.Fatalf("tables must cover 12 structures: %d/%d/%d", len(m3d), len(tsv), len(het))
	}
	var buf bytes.Buffer
	RenderChoices(&buf, m3d, nil)
	if !strings.Contains(buf.String(), "L2") {
		t.Error("rendering lacks the L2 row")
	}
	if len(Table7()) != 4 {
		t.Error("Table 7 lists 4 technique rows")
	}
}

func TestLogicAndStacksRender(t *testing.T) {
	r, err := LogicStage()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	RenderLogic(&buf, r)
	RenderTable10(&buf)
	RenderTable1(&buf)
	RenderTable2(&buf)
	RenderFig2(&buf)
	if len(Table10()) != 3 {
		t.Error("Table 10 has 3 stacks")
	}
	s, err := Table11()
	if err != nil {
		t.Fatal(err)
	}
	RenderTable11(&buf, s)
	if buf.Len() == 0 {
		t.Error("rendering produced nothing")
	}
}

func TestFig6QuickShape(t *testing.T) {
	suite, err := config.Derive(tech.N22())
	if err != nil {
		t.Fatal(err)
	}
	// Three representative apps: core-bound, memory-bound, branchy.
	var profs []string = []string{"Hmmer", "Mcf", "Gobmk"}
	var list = workloadSubset(t, profs)
	f, err := Fig6With(suite, list, QuickRunOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range profs {
		if f.Speedup[b][config.Base] != 1.0 {
			t.Errorf("%s: Base speedup must be 1.0", b)
		}
		if f.Speedup[b][config.M3DHet] <= 1.0 {
			t.Errorf("%s: M3D-Het must beat Base, got %.2f", b, f.Speedup[b][config.M3DHet])
		}
		if f.NormEnergy[b][config.M3DHet] >= 1.0 {
			t.Errorf("%s: M3D-Het must save energy, got %.2f", b, f.NormEnergy[b][config.M3DHet])
		}
	}
	// Core-bound apps gain more from the M3D frequency than memory-bound.
	if f.Speedup["Hmmer"][config.M3DHet] <= f.Speedup["Mcf"][config.M3DHet] {
		t.Errorf("Hmmer (%.2f) should out-gain Mcf (%.2f) under M3D-Het",
			f.Speedup["Hmmer"][config.M3DHet], f.Speedup["Mcf"][config.M3DHet])
	}
	if avg := f.AverageSpeedup(config.M3DHet); avg <= 1.02 {
		t.Errorf("average M3D-Het speedup %.2f too small", avg)
	}
	var buf bytes.Buffer
	RenderFig6(&buf, f)
	RenderFig7(&buf, f)

	// Figure 8 on the same runs.
	rows, _, err := Fig8Health(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		base := r.PeakC[config.Base]
		if base < 50 || base > 110 {
			t.Errorf("%s: Base peak %.1f°C implausible", r.Benchmark, base)
		}
		if r.PeakC[config.TSV3D] <= r.PeakC[config.M3DHet]-1 {
			t.Errorf("%s: TSV3D (%.1f°C) should run hotter than M3D-Het (%.1f°C)",
				r.Benchmark, r.PeakC[config.TSV3D], r.PeakC[config.M3DHet])
		}
	}
	RenderFig8(&buf, rows)
	if buf.Len() == 0 {
		t.Error("fig rendering empty")
	}
}

func TestFig9QuickShape(t *testing.T) {
	suite, err := config.Derive(tech.N22())
	if err != nil {
		t.Fatal(err)
	}
	list := workloadSubset(t, []string{"Blackscholes", "Canneal"})
	opt := multicore.Options{TotalInstrs: 60_000, WarmupPerCore: 4_000, Phases: 2, Seed: 1}
	f, err := Fig9With(suite, list, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range f.Benchmarks {
		if f.Speedup[b][config.MCBase] != 1.0 {
			t.Errorf("%s: Base speedup must be 1.0", b)
		}
		if f.Speedup[b][config.MCHet2X] <= f.Speedup[b][config.MCHet] {
			t.Errorf("%s: doubling cores must beat the 4-core M3D-Het", b)
		}
	}
	if avg := f.AverageSpeedup(config.MCHet2X); avg < 1.25 {
		t.Errorf("average M3D-Het-2X speedup %.2f too small", avg)
	}
	if e := f.AverageNormEnergy(config.MCHet); e >= 1.0 {
		t.Errorf("M3D-Het multicore must save energy, got %.2f", e)
	}
	var buf bytes.Buffer
	RenderFig9(&buf, f)
	RenderFig10(&buf, f)
	if f.AveragePowerRatio(config.MCHet2X) <= 0 {
		t.Error("power ratio must be positive")
	}
}

func workloadSubset(t *testing.T, names []string) []trace.Profile {
	t.Helper()
	var out []trace.Profile
	for _, n := range names {
		p, err := workload.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, p)
	}
	return out
}

func TestLPStudy(t *testing.T) {
	r, err := LPStudy([]string{"Gamess", "Mcf"}, QuickRunOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Section 7.1.2: the FDSOI top layer saves additional energy (paper:
	// ≈9pp) at the same performance.
	if r.ExtraSavingPP < 4 || r.ExtraSavingPP > 20 {
		t.Errorf("LP top layer extra saving %.1fpp outside [4,20] around the paper's 9pp", r.ExtraSavingPP)
	}
	for _, b := range r.Benchmarks {
		if r.LPEnergy[b] >= r.HetEnergy[b] {
			t.Errorf("%s: LP design must save more than plain M3D-Het", b)
		}
	}
	var buf bytes.Buffer
	RenderLPStudy(&buf, r)
	if buf.Len() == 0 {
		t.Error("empty rendering")
	}
}
