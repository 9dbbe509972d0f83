package experiments

import (
	"errors"
	"fmt"
	"io"
	"text/tabwriter"

	"vertical3d/internal/config"
	"vertical3d/internal/mem"
	"vertical3d/internal/power"
	"vertical3d/internal/stats"
	"vertical3d/internal/sweep"
	"vertical3d/internal/trace"
	"vertical3d/internal/uarch"
	"vertical3d/internal/warm"
)

// RunOptions sizes the simulated runs of the single-core sweeps.
type RunOptions struct {
	Warmup  uint64
	Measure uint64
	Seed    int64

	// StreamID is the trace stream id (the third trace.NewGenerator
	// argument, historically hardcoded to 0 here). It is explicit so
	// single-core studies can be decoupled from multicore per-core streams:
	// multicore core i draws stream StreamBase+i from the same seed, so a
	// single-core run at the default StreamID 0 replays exactly multicore
	// core 0's stream — plumb a distinct id when that collision matters.
	StreamID int

	// Kernel selects the core simulation kernel. The zero value is
	// uarch.KernelEvent (the fast event-driven kernel); the reference
	// scan kernel is available for differential debugging and produces
	// bit-identical results (see the kernel oracle tests).
	Kernel uarch.Kernel

	// Sample enables SMARTS-style interval sampling for single-core cells:
	// the warmup is fast-forwarded functionally (caches + branch predictor
	// only) and the measure phase alternates fast-forward / detailed-warm /
	// measure windows, with Stats and HierStats extrapolated from the
	// measured windows (see uarch.RunSampled). Sampled results approximate
	// full simulation: TestSampledCPIErrorBound bounds the CPI error at 2%
	// for 40k-instruction intervals on Base, and BENCH_sample.json's worst
	// profile at its geometry is 2.4%. They carry a distinct journal
	// identity, so sampled and full sweeps can never resume from each
	// other's journals.
	Sample bool

	// SampleParams sizes the sampling intervals when Sample is set. The
	// zero value means uarch.DefaultSampleParams().
	SampleParams uarch.SampleParams

	// SampleErrorBudget bounds the warm-phase oracle check of sampled
	// cells: when |warm CPI − measured CPI| / measured CPI exceeds the
	// budget, the cell falls back to full simulation and the downgrade is
	// recorded in the sweep's Health block. 0 means
	// DefaultSampleErrorBudget; negative disables the guard. The budget
	// joins the sampled journal identity, since it decides which cells'
	// results are sampled and which are exact.
	SampleErrorBudget float64

	// Env is the sweep environment: context, pool, journal, result cache
	// and the trace cache switch.
	sweep.Env

	// health collects degradation-ladder events while a sweep runs. It is
	// set by the sweep entry points (Fig6WithDesigns, LPStudy); nil — the
	// zero value for direct runSingle-style callers — discards.
	health *healthRecorder
}

// sampleParams resolves the effective sampling geometry.
func (opt RunOptions) sampleParams() uarch.SampleParams {
	if opt.SampleParams == (uarch.SampleParams{}) {
		return uarch.DefaultSampleParams()
	}
	return opt.SampleParams
}

// sampleBudget resolves the effective oracle budget (0 = guard disabled).
func (opt RunOptions) sampleBudget() float64 {
	switch {
	case opt.SampleErrorBudget < 0:
		return 0
	case opt.SampleErrorBudget == 0:
		return DefaultSampleErrorBudget
	default:
		return opt.SampleErrorBudget
	}
}

// DefaultRunOptions returns the harness defaults.
func DefaultRunOptions() RunOptions {
	return RunOptions{Warmup: 80_000, Measure: 200_000, Seed: 42}
}

// QuickRunOptions returns small counts for unit tests.
func QuickRunOptions() RunOptions {
	return RunOptions{Warmup: 20_000, Measure: 60_000, Seed: 42}
}

// AppResult is one benchmark × design measurement.
type AppResult struct {
	Benchmark string
	Design    config.Design

	Seconds float64
	IPC     float64
	Stats   uarch.Stats
	Mem     mem.HierStats
	Energy  power.Breakdown
}

// Fig6Result holds the single-core performance study of Figures 6-8,
// normalised to config.Base.
type Fig6Result struct {
	Matrix[config.Design, AppResult]
}

// holdCaches keeps the probe tape a single-core cell of cfg over prof
// replays (see cellCore) resident until release is called; a cell that
// replays none holds nothing. Sweeps hold every cell and release each as
// it settles (see holdCells), so a tape leaves the process-wide cache
// once the last cell that replays it has. No single-core cell reads a
// trace recording: tapes generate their stream, and so do the cells that
// probe a hierarchy of their own.
func (opt RunOptions) holdCaches(cfg config.Config, prof trace.Profile) (release func()) {
	if !opt.replaysTape(cfg) {
		return func() {}
	}
	return warm.HoldTape(warm.TapeIdentity{
		Prof:   prof,
		Seed:   opt.Seed,
		Stream: opt.StreamID,
		Geom:   warm.GeometryOf(cfg),
	})
}

// errSampleBudget marks a sampled cell whose warm-phase oracle check
// exceeded RunOptions.SampleErrorBudget; runSingle catches it and re-runs
// the cell under full simulation (the "sample" rung of the degradation
// ladder).
var errSampleBudget = errors.New("sample error budget exceeded")

// runSingle executes one benchmark on one configuration, routing to the
// sampled engine when RunOptions.Sample is set. A sampled cell that blows
// its oracle budget falls back to full simulation — slower but exact —
// and the downgrade is recorded on opt.health.
func runSingle(cfg config.Config, prof trace.Profile, opt RunOptions) (AppResult, error) {
	if !opt.Sample {
		return runSingleFull(cfg, prof, opt)
	}
	r, err := runSingleSampled(cfg, prof, opt)
	if errors.Is(err, errSampleBudget) {
		opt.health.add("sample", fmt.Sprintf("%s/%s", prof.Name, cfg.Design),
			"fell back to full simulation", err)
		return runSingleFull(cfg, prof, opt)
	}
	return r, err
}

// runSingleFull is the full-simulation path: detailed warmup, detailed
// measure, no extrapolation. Every Stats and HierStats counter is the
// delta over the measure window.
func runSingleFull(cfg config.Config, prof trace.Profile, opt RunOptions) (AppResult, error) {
	c, memStats, err := cellCore(cfg, prof, opt)
	if err != nil {
		return AppResult{}, err
	}
	c.Run(opt.Warmup)
	s0, m0 := c.Stats, memStats()
	c.Run(opt.Warmup + opt.Measure)
	st, hs := c.Stats.Sub(s0), memStats().Sub(m0)
	sec := float64(st.Cycles) / (cfg.FreqGHz * 1e9)
	energy := power.Estimate(cfg, st, hs, sec)
	if err := energy.Validate(); err != nil {
		return AppResult{}, fmt.Errorf("%s/%s: %w", prof.Name, cfg.Name, err)
	}
	return AppResult{
		Benchmark: prof.Name,
		Design:    cfg.Design,
		Seconds:   sec,
		IPC:       float64(st.Instrs) / float64(st.Cycles),
		Stats:     st,
		Mem:       hs,
		Energy:    energy,
	}, nil
}

// replaysTape reports whether a cell of cfg replays its geometry's shared
// probe tape instead of probing a hierarchy of its own: a cell with the
// trace cache on whose fill levels can be classified, sampled or not. It
// decides both cellCore's path and which tapes holdCaches holds, so the
// two cannot drift.
func (opt RunOptions) replaysTape(cfg config.Config) bool {
	return !opt.NoTraceCache && uarch.FillsClassifiable(cfg)
}

// cellCore builds a single-core cell's core and the reader of its
// hierarchy counters, for full and sampled simulation alike. A cell that
// replaysTape replays its geometry's shared probe tape (see internal/warm),
// so a profile's probes are made once for every design, and its sampled
// fast-forwards sum tape words. The rest probe a hierarchy of their own
// over a fresh generator: NoTraceCache cells, the reference the taped
// cells are tested against, and designs whose fill levels cannot be
// classified (no derived design is one).
func cellCore(cfg config.Config, prof trace.Profile, opt RunOptions) (*uarch.Core, func() mem.HierStats, error) {
	if opt.replaysTape(cfg) {
		tp := warm.SharedTape(prof, opt.Seed, opt.StreamID, cfg)
		if tp == nil {
			return nil, nil, fmt.Errorf("%s/%s: no probe tape for the geometry", prof.Name, cfg.Name)
		}
		c, err := uarch.NewTapeCore(cfg, tp, opt.Kernel)
		if err != nil {
			return nil, nil, err
		}
		return c, func() mem.HierStats { return tp.HierStats(c.Cursor()) }, nil
	}
	h, err := mem.NewHierarchy(cfg)
	if err != nil {
		return nil, nil, err
	}
	c, err := uarch.NewCoreKernel(0, cfg, trace.NewGenerator(prof, opt.Seed, opt.StreamID), h, opt.Kernel)
	if err != nil {
		return nil, nil, err
	}
	return c, h.Stats, nil
}

// runSingleSampled is the sampled-mode counterpart of runSingle: warmup is
// fast-forwarded functionally, the measure phase runs under interval
// sampling, and the full-run Stats/HierStats are extrapolated from the
// measured windows. The hierarchy counters are snapshotted around each
// measured window via the RunSampled callback, so they cover exactly the
// cycles the core measurements cover.
func runSingleSampled(cfg config.Config, prof trace.Profile, opt RunOptions) (AppResult, error) {
	sp := opt.sampleParams()
	if err := sp.Validate(); err != nil {
		return AppResult{}, err
	}
	c, memStats, err := cellCore(cfg, prof, opt)
	if err != nil {
		return AppResult{}, err
	}
	// Functional warmup: caches and predictor only — the pipeline state a
	// detailed warmup would build is rebuilt by each interval's warm phase.
	c.FastForward(opt.Warmup)

	var hsum, hwin mem.HierStats
	res, err := c.RunSampled(opt.Measure, sp, func(begin bool) {
		if begin {
			hwin = memStats()
		} else {
			hsum = hsum.Add(memStats().Sub(hwin))
		}
	})
	if err != nil {
		return AppResult{}, err
	}
	measured := res.MeasuredInstrs()
	if measured == 0 {
		return AppResult{}, fmt.Errorf("%s/%s: sampled run measured no instructions", prof.Name, cfg.Name)
	}
	// Oracle check: the detailed-warm phases replay the same interval
	// geometry as the measured windows, so a large CPI gap between them
	// means the sampling geometry has lost the workload's phase behaviour
	// and the extrapolation cannot be trusted.
	if b := opt.sampleBudget(); b > 0 {
		if dev := res.OracleDeviation(); dev > b {
			return AppResult{}, fmt.Errorf("%s/%s: %w: warm-phase CPI deviation %.3f > budget %.3f",
				prof.Name, cfg.Name, errSampleBudget, dev, b)
		}
	}
	st := res.Extrapolate(opt.Measure)
	hs := hsum.Scale(float64(opt.Measure) / float64(measured))
	sec := float64(st.Cycles) / (cfg.FreqGHz * 1e9)
	energy := power.Estimate(cfg, st, hs, sec)
	if err := energy.Validate(); err != nil {
		return AppResult{}, fmt.Errorf("%s/%s: %w", prof.Name, cfg.Name, err)
	}
	return AppResult{
		Benchmark: prof.Name,
		Design:    cfg.Design,
		Seconds:   sec,
		IPC:       float64(st.Instrs) / float64(st.Cycles),
		Stats:     st,
		Mem:       hs,
		Energy:    energy,
	}, nil
}

// Fig6With runs an explicit benchmark list on every single-core design.
func Fig6With(suite *config.Suite, profiles []trace.Profile, opt RunOptions) (*Fig6Result, error) {
	return Fig6WithDesigns(suite, profiles, config.SingleCoreDesigns(), opt)
}

// Fig6WithDesigns runs an explicit benchmark × design sweep on runMatrix:
// the design list must contain config.Base, and with opt.JournalDir set a
// re-run resumes from the checkpointed cells bit-identically — at any
// worker count and in any design order, since both are merge-neutral.
// Cells dispatch in staggered order (see staggered) and each holds its
// probe tape until it settles (see holdCaches), so a profile's tape
// leaves once its last design has run and only the profiles in flight
// stay resident.
func Fig6WithDesigns(suite *config.Suite, profiles []trace.Profile, designs []config.Design, opt RunOptions) (*Fig6Result, error) {
	opt.health = &healthRecorder{}
	m, err := runMatrix(matrixSweep[config.Design, AppResult]{
		experiment: "fig6",
		base:       config.Base,
		baseName:   "config.Base",
		id:         opt.Identity("fig6"),
		env:        opt.Env,
		health:     opt.health,
		config:     func(d config.Design) any { return suite.Configs[d] },
		run: func(prof trace.Profile, d config.Design) (AppResult, error) {
			return runSingle(suite.Configs[d], prof, opt)
		},
		cost: func(r AppResult) (float64, float64) { return r.Seconds, r.Energy.TotalJ() },
		hold: func(prof trace.Profile, d config.Design) func() {
			return opt.holdCaches(suite.Configs[d], prof)
		},
		stagger: true,
	}, suite, profiles, designs)
	if err != nil {
		return nil, err
	}
	return &Fig6Result{m}, nil
}

// RenderFig6 writes the speedup matrix.
func RenderFig6(w io.Writer, f *Fig6Result) {
	renderMatrix(w, &f.Matrix, f.Speedup, "Speedup over Base")
}

// RenderFig7 writes the normalised-energy matrix.
func RenderFig7(w io.Writer, f *Fig6Result) {
	renderMatrix(w, &f.Matrix, f.NormEnergy, "Energy normalised to Base")
}

// Fig8Row is one benchmark's peak temperatures.
type Fig8Row struct {
	Benchmark string
	PeakC     map[config.Design]float64
	PowerW    map[config.Design]float64
}

// Fig8Health computes peak temperatures for Base, TSV3D and M3D-Het using
// the Figure 6 runs' power maps over the three thermal stacks. The thermal
// comparison needs all three designs of a benchmark, so a KeepGoing source
// sweep that lost cells costs whole rows; instead of dropping them
// silently, every failed source cell behind a dropped row is recorded as a
// "fig8" DegradationEvent in the returned Health block.
func Fig8Health(f *Fig6Result) ([]Fig8Row, Health, error) {
	designs := []config.Design{config.Base, config.TSV3D, config.M3DHet}
	hr := &healthRecorder{}
	var out []Fig8Row
	for _, b := range f.Benchmarks {
		skip := false
		for _, d := range designs {
			if err := f.Errors[b][d]; err != nil {
				skip = true
				hr.add("fig8", fmt.Sprintf("%s/%s", b, d),
					"dropped the benchmark's thermal row (source cell failed in the Fig6 sweep)", err)
			}
		}
		if skip {
			continue
		}
		row := Fig8Row{Benchmark: b, PeakC: map[config.Design]float64{}, PowerW: map[config.Design]float64{}}
		for _, d := range designs {
			run := f.Runs[b][d]
			cfg := f.Suite.Configs[d]
			blocks := power.BlockPowers(cfg, run.Stats, run.Mem, run.Seconds)
			res, watts, err := SolveDesignThermal(d, blocks, 0)
			if err != nil {
				return nil, Health{}, fmt.Errorf("fig8 %s/%s: %w", b, d, err)
			}
			row.PeakC[d] = res.PeakC
			row.PowerW[d] = watts
		}
		out = append(out, row)
	}
	return out, hr.health(), nil
}

// RenderFig8 writes the peak-temperature table.
func RenderFig8(w io.Writer, rows []Fig8Row) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Benchmark\tBase °C (W)\tTSV3D °C (W)\tM3D-Het °C (W)")
	var dBase, dTSV, dHet []float64
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%.1f (%.1f)\t%.1f (%.1f)\t%.1f (%.1f)\n", r.Benchmark,
			r.PeakC[config.Base], r.PowerW[config.Base],
			r.PeakC[config.TSV3D], r.PowerW[config.TSV3D],
			r.PeakC[config.M3DHet], r.PowerW[config.M3DHet])
		dBase = append(dBase, r.PeakC[config.Base])
		dTSV = append(dTSV, r.PeakC[config.TSV3D])
		dHet = append(dHet, r.PeakC[config.M3DHet])
	}
	tw.Flush()
	mb, _ := stats.Mean(dBase)
	mt, _ := stats.Mean(dTSV)
	mh, _ := stats.Mean(dHet)
	fmt.Fprintf(w, "Average peak: Base %.1f°C, TSV3D %.1f°C (+%.1f), M3D-Het %.1f°C (+%.1f)\n",
		mb, mt, mt-mb, mh, mh-mb)
	fmt.Fprintf(w, "(paper: M3D-Het ≈ +5°C over Base on average, TSV3D ≈ +30°C, exceeding Tjmax≈100°C for some apps)\n")
}
