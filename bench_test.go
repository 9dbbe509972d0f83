// Package vertical3d's benchmark harness regenerates every table and figure
// of the paper (run `go test -bench=. -benchmem`). Each benchmark reports
// the headline quantities of its table/figure as custom metrics, so a bench
// run doubles as a reproduction report. Benchmarks with Ablation in the name
// sweep the design choices called out in DESIGN.md.
package vertical3d

import (
	"testing"
	"time"

	"vertical3d/internal/config"
	"vertical3d/internal/core"
	"vertical3d/internal/experiments"
	"vertical3d/internal/multicore"
	"vertical3d/internal/sram"
	"vertical3d/internal/sweep"
	"vertical3d/internal/tech"
	"vertical3d/internal/trace"
	"vertical3d/internal/uarch"
	"vertical3d/internal/warm"
	"vertical3d/internal/workload"
)

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table1()
		if len(rows) != 3 {
			b.Fatal("bad table 1")
		}
	}
	b.ReportMetric(experiments.Table1()[1].VsAdderPct, "tsv1.3_vs_adder_%")
}

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(experiments.Table2()) != 3 {
			b.Fatal("bad table 2")
		}
	}
}

func BenchmarkFig2(b *testing.B) {
	var r experiments.Fig2Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig2()
	}
	b.ReportMetric(r.TSV, "tsv_rel_area_x")
	b.ReportMetric(r.MIV, "miv_rel_area_x")
}

func benchStrategy(b *testing.B, st sram.Strategy) {
	var rows []experiments.PartRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, _, err = experiments.StrategyTable(sweep.Env{}, st)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Structure == "RF" && r.Via == "M3D" {
			b.ReportMetric(r.Latency, "rf_m3d_latency_red_%")
		}
	}
}

func BenchmarkTable3(b *testing.B) { benchStrategy(b, sram.BitPart) }
func BenchmarkTable4(b *testing.B) { benchStrategy(b, sram.WordPart) }
func BenchmarkTable5(b *testing.B) { benchStrategy(b, sram.PortPart) }

func BenchmarkTable6(b *testing.B) {
	var m3d []core.Choice
	var err error
	for i := 0; i < b.N; i++ {
		m3d, _, _, err = experiments.Table6(sweep.Env{})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(core.MinLatencyReduction(m3d, true)*100, "min_latency_red_%")
}

func BenchmarkTable8(b *testing.B) {
	var het []core.Choice
	var err error
	for i := 0; i < b.N; i++ {
		het, err = experiments.Table8()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(core.MinLatencyReduction(het, true)*100, "min_latency_red_%")
}

func BenchmarkLogicStage(b *testing.B) {
	var r experiments.LogicResult
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.LogicStage()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.FourALU.FreqGain*100, "4alu_freq_gain_%")
	b.ReportMetric(r.OneALU.FreqGain*100, "1alu_freq_gain_%")
}

func BenchmarkTable11(b *testing.B) {
	var s *config.Suite
	var err error
	for i := 0; i < b.N; i++ {
		s, err = config.Derive(tech.N22())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(s.Configs[config.M3DHet].FreqGHz, "m3dhet_GHz")
	b.ReportMetric(s.Configs[config.Base].FreqGHz, "base_GHz")
}

// benchFig6 runs the single-core study once per bench iteration over a
// benchmark subset sized for the harness.
func benchFig6(b *testing.B, names []string) *experiments.Fig6Result {
	b.Helper()
	suite, err := config.Derive(tech.N22())
	if err != nil {
		b.Fatal(err)
	}
	var f *experiments.Fig6Result
	for i := 0; i < b.N; i++ {
		list := workload.SPEC2006()
		if names != nil {
			list = list[:0]
			for _, n := range names {
				p, err := workload.ByName(n)
				if err != nil {
					b.Fatal(err)
				}
				list = append(list, p)
			}
		}
		f, err = experiments.Fig6With(suite, list, experiments.QuickRunOptions())
		if err != nil {
			b.Fatal(err)
		}
	}
	return f
}

func BenchmarkFig6(b *testing.B) {
	f := benchFig6(b, nil)
	b.ReportMetric(f.AverageSpeedup(config.M3DHet), "m3dhet_speedup")
	b.ReportMetric(f.AverageSpeedup(config.M3DIso), "m3diso_speedup")
	b.ReportMetric(f.AverageSpeedup(config.TSV3D), "tsv3d_speedup")
}

func BenchmarkFig7(b *testing.B) {
	f := benchFig6(b, nil)
	b.ReportMetric(f.AverageNormEnergy(config.M3DHet), "m3dhet_energy")
	b.ReportMetric(f.AverageNormEnergy(config.TSV3D), "tsv3d_energy")
}

func BenchmarkFig8(b *testing.B) {
	f := benchFig6(b, []string{"Gamess", "Mcf", "Gobmk"})
	var rows []experiments.Fig8Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, _, err = experiments.Fig8Health(f)
		if err != nil {
			b.Fatal(err)
		}
	}
	var dBase, dHet float64
	for _, r := range rows {
		dBase += r.PeakC[config.Base]
		dHet += r.PeakC[config.M3DHet]
	}
	n := float64(len(rows))
	b.ReportMetric(dBase/n, "base_peakC")
	b.ReportMetric(dHet/n-dBase/n, "m3dhet_deltaC")
}

func benchFig9(b *testing.B) *experiments.Fig9Result {
	b.Helper()
	opt := multicore.Options{TotalInstrs: 120_000, WarmupPerCore: 8_000, Phases: 2, Seed: 42}
	var f *experiments.Fig9Result
	for i := 0; i < b.N; i++ {
		suite, err := config.Derive(tech.N22())
		if err != nil {
			b.Fatal(err)
		}
		f, err = experiments.Fig9With(suite, workload.Parallel(), opt)
		if err != nil {
			b.Fatal(err)
		}
	}
	return f
}

func BenchmarkFig9(b *testing.B) {
	f := benchFig9(b)
	b.ReportMetric(f.AverageSpeedup(config.MCHet2X), "het2x_speedup")
	b.ReportMetric(f.AverageSpeedup(config.MCHet), "het_speedup")
}

func BenchmarkFig10(b *testing.B) {
	f := benchFig9(b)
	b.ReportMetric(f.AverageNormEnergy(config.MCHet2X), "het2x_energy")
	b.ReportMetric(f.AveragePowerRatio(config.MCHet2X), "het2x_power_ratio")
}

// --- Worker-pool fan-out (internal/parallel) -------------------------------

// benchParallelSpeedup times fn once sequentially (Workers=1), then runs the
// parallel variant for b.N iterations, and reports the wall-clock speedup as
// a custom metric. Both variants produce bit-identical results (see
// internal/experiments/parallel_test.go); this measures wall-clock only.
func benchParallelSpeedup(b *testing.B, run func(workers int) error) {
	b.Helper()
	start := time.Now()
	if err := run(1); err != nil {
		b.Fatal(err)
	}
	seq := time.Since(start)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := run(0); err != nil { // 0 = GOMAXPROCS workers
			b.Fatal(err)
		}
	}
	par := b.Elapsed() / time.Duration(b.N)
	b.ReportMetric(seq.Seconds()/par.Seconds(), "speedup_vs_seq_x")
	b.ReportMetric(seq.Seconds()*1e3, "seq_ms")
}

// BenchmarkFig6Parallel measures the worker-pool speedup of the Fig6
// single-core sweep (benchmark × design fan-out) vs the sequential run.
func BenchmarkFig6Parallel(b *testing.B) {
	suite, err := config.Derive(tech.N22())
	if err != nil {
		b.Fatal(err)
	}
	list := workload.SPEC2006()
	benchParallelSpeedup(b, func(workers int) error {
		opt := experiments.QuickRunOptions()
		opt.Workers = workers
		_, err := experiments.Fig6With(suite, list, opt)
		return err
	})
}

// BenchmarkFig9Parallel is the multicore counterpart over Figures 9-10.
func BenchmarkFig9Parallel(b *testing.B) {
	suite, err := config.Derive(tech.N22())
	if err != nil {
		b.Fatal(err)
	}
	list := workload.Parallel()
	benchParallelSpeedup(b, func(workers int) error {
		opt := multicore.Options{TotalInstrs: 80_000, WarmupPerCore: 5_000, Phases: 2, Seed: 42}
		opt.Workers = workers
		_, err := experiments.Fig9With(suite, list, opt)
		return err
	})
}

// --- Trace capture & replay (internal/trace) -------------------------------

// BenchmarkFig6TraceCache compares the full Fig6 sweep wall-time with the
// shared record-once/replay-many trace cache against per-cell stream
// regeneration (the pre-cache behaviour, RunOptions.NoTraceCache). The
// shared variant resets the cache every iteration, so each iteration pays
// one cold recording per profile plus replays for all remaining cells —
// the honest cold-sweep cost a CLI run sees. Both variants are
// bit-identical (internal/experiments/tracecache_oracle_test.go);
// scripts/bench.sh parses ms_per_sweep into BENCH_trace.json and the
// acceptance bar is shared < percell.
func BenchmarkFig6TraceCache(b *testing.B) {
	suite, err := config.Derive(tech.N22())
	if err != nil {
		b.Fatal(err)
	}
	list := workload.SPEC2006()
	for _, mode := range []struct {
		name    string
		noCache bool
	}{{"shared", false}, {"percell", true}} {
		b.Run(mode.name, func(b *testing.B) {
			trace.ResetCache()
			defer trace.ResetCache()
			for i := 0; i < b.N; i++ {
				trace.ResetCache()
				opt := experiments.QuickRunOptions()
				opt.NoTraceCache = mode.noCache
				if _, err := experiments.Fig6With(suite, list, opt); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N), "ms_per_sweep")
		})
	}
}

// --- Warm-state snapshots (internal/warm) ----------------------------------

// BenchmarkFig6WarmCache compares a sampled Fig6 sweep's wall-time with the
// warm-state snapshot cache on vs off. The warm variant resets the snapshot
// cache every iteration, so each iteration pays one ladder build per
// (profile, geometry) identity plus snapshot-served fast-forwards for all
// remaining design cells — the honest cold-sweep cost a CLI run sees. The
// trace cache is primed once outside the timer in both modes so the delta
// isolates the snapshot layer. Both variants are bit-identical
// (internal/experiments/warmcache_oracle_test.go); scripts/bench.sh parses
// ms_per_sweep into BENCH_warm.json and scripts/bench_gate.sh warm gates
// the speedup at >=1.5x.
func BenchmarkFig6WarmCache(b *testing.B) {
	suite, err := config.Derive(tech.N22())
	if err != nil {
		b.Fatal(err)
	}
	var list []trace.Profile
	for _, n := range []string{"Gamess", "Hmmer", "Mcf", "Lbm"} {
		p, err := workload.ByName(n)
		if err != nil {
			b.Fatal(err)
		}
		list = append(list, p)
	}
	// Same 400k:1k:8k geometry the event kernel uses in BENCH_sample.json:
	// at a 2.25% detailed fraction the fast-forward dominates the cell, which
	// is exactly the regime the snapshot cache exists for.
	opt := experiments.RunOptions{
		Warmup: 100_000, Measure: 1_100_000, Seed: 42,
		Sample:       true,
		SampleParams: uarch.SampleParams{Interval: 400_000, Warmup: 1_000, Unit: 8_000},
	}
	for _, mode := range []struct {
		name string
		on   bool
	}{{"warmoff", false}, {"warmon", true}} {
		b.Run(mode.name, func(b *testing.B) {
			trace.ResetCache()
			warm.ResetCache()
			defer trace.ResetCache()
			defer warm.ResetCache()
			// Prime the trace cache outside the timer: both modes then
			// measure replays, never recording.
			prime := opt
			prime.WarmCache = false
			if _, err := experiments.Fig6With(suite, list, prime); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				warm.ResetCache()
				o := opt
				o.WarmCache = mode.on
				if _, err := experiments.Fig6With(suite, list, o); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N), "ms_per_sweep")
		})
	}
}

// --- Ablations of the design choices DESIGN.md calls out -------------------

// BenchmarkAblationSplitFraction sweeps the hetero BP/WP bottom-layer share
// for the BPT (the paper recommends ≈2/3 with upsized top cells).
func BenchmarkAblationSplitFraction(b *testing.B) {
	n := tech.N22()
	st, err := core.ByName("BPT")
	if err != nil {
		b.Fatal(err)
	}
	best, bestFrac := -1.0, 0.0
	for i := 0; i < b.N; i++ {
		for _, frac := range []float64{0.5, 0.55, 0.6, 2.0 / 3.0, 0.75} {
			c, err := core.Evaluate(n, st, sram.Hetero(sram.WordPart, tech.MIV(), frac, 1.5))
			if err != nil {
				b.Fatal(err)
			}
			if c.Reduction.Latency > best {
				best, bestFrac = c.Reduction.Latency, frac
			}
		}
	}
	b.ReportMetric(bestFrac, "best_bottom_frac")
	b.ReportMetric(best*100, "best_latency_red_%")
}

// BenchmarkAblationUpsize sweeps the top-layer transistor upsizing factor.
func BenchmarkAblationUpsize(b *testing.B) {
	n := tech.N22()
	st, err := core.ByName("DL1")
	if err != nil {
		b.Fatal(err)
	}
	best, bestUp := -1.0, 0.0
	for i := 0; i < b.N; i++ {
		for _, up := range []float64{1.0, 1.25, 1.5, 2.0, 3.0} {
			c, err := core.Evaluate(n, st, sram.Hetero(sram.BitPart, tech.MIV(), 0.6, up))
			if err != nil {
				b.Fatal(err)
			}
			if c.Reduction.Latency > best {
				best, bestUp = c.Reduction.Latency, up
			}
		}
	}
	b.ReportMetric(bestUp, "best_upsize")
	b.ReportMetric(best*100, "best_latency_red_%")
}

// BenchmarkAblationPortSplit sweeps the RF hetero port split (paper: 10/8).
func BenchmarkAblationPortSplit(b *testing.B) {
	n := tech.N22()
	st, err := core.ByName("RF")
	if err != nil {
		b.Fatal(err)
	}
	bestFoot, bestBottom := -1.0, 0
	for i := 0; i < b.N; i++ {
		for pb := 7; pb <= 12; pb++ {
			frac := float64(pb) / 18.0
			c, err := core.Evaluate(n, st, sram.Hetero(sram.PortPart, tech.MIV(), frac, 2.0))
			if err != nil {
				b.Fatal(err)
			}
			if c.Reduction.Footprint > bestFoot {
				bestFoot, bestBottom = c.Reduction.Footprint, pb
			}
		}
	}
	b.ReportMetric(float64(bestBottom), "best_bottom_ports")
	b.ReportMetric(bestFoot*100, "best_footprint_red_%")
}

// BenchmarkAblationFreqLimiter compares the conservative all-structures
// frequency derivation against the aggressive traditional-limiters one.
func BenchmarkAblationFreqLimiter(b *testing.B) {
	var s *config.Suite
	var err error
	for i := 0; i < b.N; i++ {
		s, err = config.Derive(tech.N22())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(s.Configs[config.M3DHet].FreqGHz, "conservative_GHz")
	b.ReportMetric(s.Configs[config.M3DHetAgg].FreqGHz, "aggressive_GHz")
}

// BenchmarkAblationSharedL2 measures the effect of pairing cores on shared
// L2s and router stops (Figure 4) at equal core microarchitecture.
func BenchmarkAblationSharedL2(b *testing.B) {
	suite, err := config.Derive(tech.N22())
	if err != nil {
		b.Fatal(err)
	}
	mcs := config.DeriveMulticore(suite)
	shared := mcs[config.MCHet]
	private := shared
	private.SharedL2 = false
	private.RouterHopCycles = mcs[config.MCBase].RouterHopCycles

	prof, err := workload.ByName("Canneal") // sharing-heavy
	if err != nil {
		b.Fatal(err)
	}
	opt := multicore.Options{TotalInstrs: 120_000, WarmupPerCore: 8_000, Phases: 2, Seed: 42}
	var ratio float64
	for i := 0; i < b.N; i++ {
		rs, err := multicore.Run(shared, prof, opt)
		if err != nil {
			b.Fatal(err)
		}
		rp, err := multicore.Run(private, prof, opt)
		if err != nil {
			b.Fatal(err)
		}
		ratio = rp.Seconds / rs.Seconds
	}
	b.ReportMetric(ratio, "sharedL2_speedup")
}
