package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"vertical3d/internal/config"
	"vertical3d/internal/guard"
	"vertical3d/internal/journal"
	"vertical3d/internal/mem"
	"vertical3d/internal/parallel"
	"vertical3d/internal/power"
	"vertical3d/internal/registry"
	"vertical3d/internal/resultcache"
	"vertical3d/internal/stats"
	"vertical3d/internal/tech"
	"vertical3d/internal/trace"
	"vertical3d/internal/uarch"
	"vertical3d/internal/warm"
	"vertical3d/internal/workload"
)

// RunOptions sizes the simulated runs.
type RunOptions struct {
	Warmup  uint64
	Measure uint64
	Seed    int64

	// Context, when non-nil, bounds the whole sweep: cancelling it stops
	// dispatching new cells (in-flight cells drain) — the graceful-shutdown
	// path of the command-line binaries. Nil means context.Background().
	Context context.Context

	// JournalDir enables crash-safe checkpointing: every completed cell is
	// appended to a write-ahead journal in this directory the moment it
	// finishes, and a re-run with the same directory and sizing merges the
	// journaled results bit-identically instead of re-executing them. Empty
	// disables journaling. See the journal package for the format and the
	// identity rules.
	JournalDir string

	// TaskTimeout bounds each cell attempt and SweepTimeout the whole
	// sweep; zero means unbounded. Retry re-runs transiently failed cells
	// (panics, timeouts) with jittered exponential backoff; the zero value
	// runs every cell exactly once. All three map directly onto the worker
	// pool's fields.
	TaskTimeout  time.Duration
	SweepTimeout time.Duration
	Retry        parallel.Retry

	// WatchdogGrace and WatchdogLog arm the pool's stuck-cell watchdog:
	// cells still running WatchdogGrace past their TaskTimeout are reported
	// to WatchdogLog once per attempt.
	WatchdogGrace time.Duration
	WatchdogLog   func(format string, args ...any)

	// StreamID is the trace stream id (the third trace.NewGenerator
	// argument, historically hardcoded to 0 here). It is explicit so
	// single-core studies can be decoupled from multicore per-core streams:
	// multicore core i draws stream StreamBase+i from the same seed, so a
	// single-core run at the default StreamID 0 replays exactly multicore
	// core 0's stream — plumb a distinct id when that collision matters.
	StreamID int

	// NoTraceCache disables the shared trace-recording cache and
	// regenerates the instruction stream inside every sweep cell, exactly
	// as the pipeline behaved before record-once/replay-many. Results are
	// bit-identical either way (see tracecache_oracle_test.go); the flag
	// exists for differential debugging and the BENCH_trace.json
	// comparison.
	NoTraceCache bool

	// Workers bounds the worker pool that fans out the sweep's
	// (benchmark × design) cells. 0 means parallel.DefaultWorkers().
	// Results are bit-identical at any worker count: every cell is an
	// independent simulation seeded only by (profile, design, Seed), and
	// base-relative ratios are computed in a second pass after the join.
	Workers int

	// KeepGoing completes the sweep even when individual cells fail or
	// panic: healthy cells are bit-identical to a fault-free run, failed
	// cells are recorded in the result's Errors map and rendered as ERR.
	// Without it the sweep fails fast on the lowest-index error.
	KeepGoing bool

	// CellHook, when non-nil, is invoked at the start of every
	// (benchmark × design) cell with the cell's coordinates. It exists as a
	// deterministic fault-injection seam for the chaos tests
	// (guard/faultinject); production callers leave it nil.
	CellHook func(bench, design string)

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
	// full simulation — CPI error is bounded at ≤2% per profile by
	// sample_test.go — and carry a distinct journal identity, so sampled
	// and full sweeps can never resume from each other's journals.
	Sample bool

	// SampleParams sizes the sampling intervals when Sample is set. The
	// zero value means uarch.DefaultSampleParams().
	SampleParams uarch.SampleParams

	// WarmCache enables the warm-state snapshot cache for sampled cells:
	// the functional fast-forward of each (profile, seed, stream,
	// sample-params, geometry) identity is checkpointed once and every
	// other cell restores the checkpoint instead of re-warming (see
	// internal/warm). Results are bit-identical either way — the snapshot
	// oracle tests prove it — so the flag only trades memory for
	// fast-forward time. It is ignored without Sample, and implies
	// nothing when NoTraceCache is set (snapshots need replayer-backed
	// streams).
	WarmCache bool

	// Cache, when non-nil, adds the content-addressed result-cache tier in
	// front of the journal: each cell consults cache → journal → simulate,
	// concurrent identical cells coalesce onto one simulation, and results
	// stay bit-identical at any worker count (the cache stores and serves
	// the same canonical JSON the journal does). Nil — the default for the
	// one-shot command-line runs — skips the tier entirely; the m3dd
	// daemon installs a process-wide cache here so repeated sweeps are
	// O(1). See internal/resultcache.
	Cache *resultcache.Cache

	// SampleErrorBudget bounds the warm-phase oracle check of sampled
	// cells: when |warm CPI − measured CPI| / measured CPI exceeds the
	// budget, the cell falls back to full simulation and the downgrade is
	// recorded in the sweep's Health block. 0 means
	// DefaultSampleErrorBudget; negative disables the guard. The budget
	// joins the sampled journal identity, since it decides which cells'
	// results are sampled and which are exact.
	SampleErrorBudget float64

	// health collects degradation-ladder events while a sweep runs. It is
	// set by the sweep entry points (Fig6WithDesigns and friends); nil —
	// the zero value for direct runSingle-style callers — discards.
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

// Fig6Result holds the single-core performance study.
type Fig6Result struct {
	Suite *config.Suite
	// Runs[benchmark][design]
	Runs map[string]map[config.Design]AppResult
	// Speedup[benchmark][design] over Base; Energy normalised likewise.
	// Under KeepGoing, entries exist only for cells where both the cell and
	// the benchmark's Base cell succeeded.
	Speedup    map[string]map[config.Design]float64
	NormEnergy map[string]map[config.Design]float64
	Benchmarks []string
	// Designs is the sweep's design list in cell order.
	Designs []config.Design

	// Errors[benchmark][design] records failed cells of a KeepGoing sweep
	// (including recovered panics, as *parallel.PanicError). Empty for a
	// fault-free or fail-fast run.
	Errors map[string]map[config.Design]error

	// Journal reports the checkpoint journal's load/hit/append counters
	// when the sweep ran with RunOptions.JournalDir; zero otherwise. Hits
	// counts cells merged from a previous run instead of re-executed.
	Journal journal.Stats

	// Health is the sweep's degradation report: every rung of the
	// degrade-don't-die ladder taken while the sweep ran (journal
	// downgrades, trace-cache regenerations, sampled-cell fallbacks).
	// Degraded is false for a run that needed none.
	Health Health
}

// Err returns the first failed cell's error in sweep (benchmark-major,
// design-minor) order, or nil if every cell succeeded.
func (f *Fig6Result) Err() error {
	for _, b := range f.Benchmarks {
		for _, d := range f.Designs {
			if err := f.Errors[b][d]; err != nil {
				return err
			}
		}
	}
	return nil
}

// FailedCells counts the cells recorded in Errors.
func (f *Fig6Result) FailedCells() int {
	n := 0
	for _, m := range f.Errors {
		n += len(m)
	}
	return n
}

// traceSource returns the instruction source for one sweep cell: by
// default a replayer over the process-wide shared recording of the
// (profile, seed, stream) triple — recorded once, replayed by every design
// point — or a fresh generator when the cache is disabled. Both sources
// are bit-identical instruction for instruction.
func traceSource(prof trace.Profile, opt RunOptions) trace.Source {
	if opt.NoTraceCache {
		return trace.NewGenerator(prof, opt.Seed, opt.StreamID)
	}
	return trace.NewReplayer(trace.SharedRecording(prof, opt.Seed, opt.StreamID, opt.traceHint()))
}

// traceHint sizes a shared recording for the instructions a cell retires;
// squashed wrong-path fetches consume more, which the recording's
// on-demand extension absorbs.
func (opt RunOptions) traceHint() int {
	return int(min(opt.Warmup+opt.Measure, 1<<30))
}

// holdCaches holds, for the life of a single-core sweep over profiles ×
// designs, every shared trace recording, probe tape and warm ladder its
// cells replay and bind to (see traceSource, fullCore and
// runSingleSampled), and returns the release that drops them. Entries the
// sweep was the last to hold leave the process-wide caches when it
// returns. A profile's recording is held only when a cell reads it:
// sampled cells and their full-simulation fallback, and full-simulation
// cells that cannot replay a tape. Taped cells generate their stream.
func (opt RunOptions) holdCaches(suite *config.Suite, profiles []trace.Profile, designs []config.Design) (release func()) {
	var rs registry.Releases
	for _, prof := range profiles {
		recorded := opt.Sample
		for _, d := range designs {
			cfg := suite.Configs[d]
			switch {
			case opt.replaysTape(cfg):
				rs = append(rs, warm.HoldTape(warm.TapeIdentity{
					Prof:   prof,
					Seed:   opt.Seed,
					Stream: opt.StreamID,
					Geom:   warm.GeometryOf(cfg),
				}))
			case opt.Sample && opt.WarmCache:
				rs = append(rs, warm.HoldLadder(warm.Identity{
					Prof:   prof,
					Seed:   opt.Seed,
					Stream: opt.StreamID,
					Sample: opt.sampleParams(),
					Geom:   warm.GeometryOf(cfg),
				}))
			default:
				recorded = true
			}
		}
		if recorded && !opt.NoTraceCache {
			rs = append(rs, trace.Hold(prof, opt.Seed, opt.StreamID))
		}
	}
	return rs.Release
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
	c, memStats, err := fullCore(cfg, prof, opt)
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

// replaysTape reports whether a full-simulation cell of cfg replays its
// geometry's shared probe tape instead of probing a hierarchy of its own:
// an unsampled cell with the trace cache on whose fill levels can be
// classified. It decides both fullCore's path and, in holdCaches, which
// sweeps hold a tape rather than a recording, so the two cannot drift.
func (opt RunOptions) replaysTape(cfg config.Config) bool {
	return !opt.NoTraceCache && !opt.Sample && uarch.FillsClassifiable(cfg)
}

// fullCore builds a full-simulation cell's core and the reader of its
// hierarchy counters. A cell that replaysTape replays its geometry's
// shared probe tape (see internal/warm), so a profile's probes are made
// once for every design. The rest probe a hierarchy of their own over
// traceSource: NoTraceCache cells, sampled cells falling back to full
// simulation, and designs whose fill levels cannot be classified.
func fullCore(cfg config.Config, prof trace.Profile, opt RunOptions) (*uarch.Core, func() mem.HierStats, error) {
	if opt.replaysTape(cfg) {
		tp := warm.SharedTape(prof, opt.Seed, opt.StreamID, cfg)
		if tp == nil {
			return nil, nil, fmt.Errorf("%s/%s: no probe tape for the geometry", prof.Name, cfg.Name)
		}
		c, err := uarch.NewTapeCore(cfg, tp, opt.Kernel)
		if err != nil {
			return nil, nil, err
		}
		return c, func() mem.HierStats { return tp.HierStats(c.Stats.Fetched) }, nil
	}
	h, err := mem.NewHierarchy(cfg)
	if err != nil {
		return nil, nil, err
	}
	c, err := uarch.NewCoreKernel(0, cfg, traceSource(prof, opt), h, opt.Kernel)
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
	src := traceSource(prof, opt)
	h, err := mem.NewHierarchy(cfg)
	if err != nil {
		return AppResult{}, err
	}
	c, err := uarch.NewCoreKernel(0, cfg, src, h, opt.Kernel)
	if err != nil {
		return AppResult{}, err
	}
	if opt.WarmCache && !opt.NoTraceCache {
		if rp, ok := src.(*trace.Replayer); ok {
			// Best-effort: a geometry that can't classify fills just keeps
			// its plain local fast-forward.
			_, _ = warm.Bind(c, rp, cfg, sp)
		}
	}
	// Functional warmup: caches and predictor only — the pipeline state a
	// detailed warmup would build is rebuilt by each interval's warm phase.
	c.FastForward(opt.Warmup)

	var hsum, hwin mem.HierStats
	res, err := c.RunSampled(opt.Measure, sp, func(begin bool) {
		if begin {
			hwin = h.Stats()
		} else {
			hsum = hsum.Add(h.Stats().Sub(hwin))
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

// Fig6 runs every SPEC-like benchmark on every single-core design,
// producing the speedups of Figure 6 and the energies of Figure 7.
func Fig6(opt RunOptions) (*Fig6Result, error) {
	suite, err := config.Derive(tech.N22())
	if err != nil {
		return nil, err
	}
	return Fig6With(suite, workload.SPEC2006(), opt)
}

// Fig6With runs an explicit benchmark list against a prepared suite.
func Fig6With(suite *config.Suite, profiles []trace.Profile, opt RunOptions) (*Fig6Result, error) {
	return Fig6WithDesigns(suite, profiles, config.SingleCoreDesigns(), opt)
}

// Fig6WithDesigns runs an explicit benchmark × design sweep. Every cell is
// an independent simulation fanned out on the worker pool; the Speedup and
// NormEnergy ratios are computed in a second pass after the join, so the
// result never depends on the position of config.Base in the design list
// (the list must contain it) or on goroutine scheduling. With
// opt.JournalDir set, completed cells are checkpointed as they finish and
// a re-run resumes from them bit-identically — at any worker count and in
// any design order, since both are merge-neutral.
func Fig6WithDesigns(suite *config.Suite, profiles []trace.Profile, designs []config.Design, opt RunOptions) (*Fig6Result, error) {
	hasBase := false
	for _, d := range designs {
		if d == config.Base {
			hasBase = true
		}
	}
	if !hasBase {
		return nil, fmt.Errorf("fig6: design list must include config.Base for the normalisation pass")
	}
	defer opt.holdCaches(suite, profiles, designs)()

	// Pass 1: fan out every (benchmark × design) cell. Cell i is fully
	// determined by (profiles[i/len(designs)], designs[i%len(designs)],
	// opt.Seed), so collection by index is deterministic. Cells are
	// dispatched design-major (see designMajor) but keyed by index. Under
	// KeepGoing the sweep completes through cell failures and panics,
	// recording them per cell; otherwise the lowest-index error aborts the
	// sweep.
	//
	// With a journal, each cell first looks up its checkpoint — a hit is
	// merged without touching the CellHook or the simulator — and each
	// freshly computed success is checkpointed before the cell returns.
	hr := &healthRecorder{}
	tw := watchTrace()
	ww := watchWarm()
	opt.health = hr
	jn := opt.openJournalHealth("fig6", hr)
	defer jn.Close()
	cr := cellRunner{
		cache: opt.Cache,
		key:   resultcache.Key{ID: opt.identity("fig6")},
		jn:    jn,
		hook:  opt.CellHook,
	}
	nd := len(designs)
	pool := opt.pool()
	pool.Order = designMajor(len(profiles), nd)
	task := func(_ context.Context, i int) (AppResult, error) {
		prof, d := profiles[i/nd], designs[i%nd]
		key := journal.CellKey(prof.Name, d.String(), suite.Configs[d], prof)
		r, err := runCell(cr, prof.Name, d.String(), key, func() (AppResult, error) {
			return runSingle(suite.Configs[d], prof, opt)
		})
		if err != nil {
			return AppResult{}, fmt.Errorf("fig6 %s/%s: %w", prof.Name, d, err)
		}
		return r, nil
	}
	var cells []AppResult
	var cellErrs []error
	if opt.KeepGoing {
		cells, cellErrs = parallel.MapPartial(opt.ctx(), pool, len(profiles)*nd, task)
	} else {
		var err error
		cells, err = parallel.Map(opt.ctx(), pool, len(profiles)*nd, task)
		if err != nil {
			return nil, err
		}
	}

	res := &Fig6Result{
		Suite:      suite,
		Runs:       map[string]map[config.Design]AppResult{},
		Speedup:    map[string]map[config.Design]float64{},
		NormEnergy: map[string]map[config.Design]float64{},
		Designs:    designs,
		Errors:     map[string]map[config.Design]error{},
	}
	for pi, prof := range profiles {
		res.Benchmarks = append(res.Benchmarks, prof.Name)
		res.Runs[prof.Name] = map[config.Design]AppResult{}
		for di, d := range designs {
			i := pi*nd + di
			if cellErrs != nil && cellErrs[i] != nil {
				if res.Errors[prof.Name] == nil {
					res.Errors[prof.Name] = map[config.Design]error{}
				}
				res.Errors[prof.Name][d] = cellErrs[i]
				continue
			}
			res.Runs[prof.Name][d] = cells[i]
		}
	}

	// Pass 2: base-relative ratios for every benchmark whose Base cell
	// succeeded, covering exactly the healthy cells.
	for _, prof := range profiles {
		res.Speedup[prof.Name] = map[config.Design]float64{}
		res.NormEnergy[prof.Name] = map[config.Design]float64{}
		if res.Errors[prof.Name][config.Base] != nil {
			continue
		}
		base := res.Runs[prof.Name][config.Base]
		baseSec, baseJ := base.Seconds, base.Energy.TotalJ()
		for _, d := range designs {
			if res.Errors[prof.Name][d] != nil {
				continue
			}
			r := res.Runs[prof.Name][d]
			res.Speedup[prof.Name][d] = baseSec / r.Seconds
			res.NormEnergy[prof.Name][d] = r.Energy.TotalJ() / baseJ
		}
	}
	res.Journal = jn.Stats()
	journalHealth(hr, jn)
	tw.harvest(hr)
	ww.harvest(hr)
	res.Health = hr.health()
	return res, nil
}

// designMajor is the dispatch order of a profile-major np × nd sweep that
// starts every profile's first design before any profile's second: slot j
// runs cell (j%np)*nd + j/np. Concurrent workers then record the trace and
// build the warm ladder of different profiles instead of queueing on one
// profile's single-flighted recording and ladder lock. Cells stay keyed by
// index, so results, journal entries and the reported error are those of
// index order.
func designMajor(np, nd int) []int {
	order := make([]int, np*nd)
	for j := range order {
		order[j] = (j%np)*nd + j/np
	}
	return order
}

// AverageSpeedup returns the mean speedup of a design across the benchmarks
// whose cells succeeded (all of them, outside KeepGoing).
func (f *Fig6Result) AverageSpeedup(d config.Design) float64 {
	var xs []float64
	for _, b := range f.Benchmarks {
		if v, ok := f.Speedup[b][d]; ok {
			xs = append(xs, v)
		}
	}
	m, err := stats.Mean(xs)
	if err != nil {
		return 0
	}
	return m
}

// AverageNormEnergy returns the mean normalised energy of a design across
// the benchmarks whose cells succeeded.
func (f *Fig6Result) AverageNormEnergy(d config.Design) float64 {
	var xs []float64
	for _, b := range f.Benchmarks {
		if v, ok := f.NormEnergy[b][d]; ok {
			xs = append(xs, v)
		}
	}
	m, err := stats.Mean(xs)
	if err != nil {
		return 0
	}
	return m
}

// RenderFig6 writes the speedup matrix.
func RenderFig6(w io.Writer, f *Fig6Result) {
	renderMatrix(w, f, f.Speedup, "Speedup over Base")
}

// RenderFig7 writes the normalised-energy matrix.
func RenderFig7(w io.Writer, f *Fig6Result) {
	renderMatrix(w, f, f.NormEnergy, "Energy normalised to Base")
}

func renderMatrix(w io.Writer, f *Fig6Result, m map[string]map[config.Design]float64, title string) {
	designs := f.Designs
	if len(designs) == 0 {
		designs = config.SingleCoreDesigns()
	}
	fmt.Fprintln(w, title+":")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "Benchmark")
	for _, d := range designs {
		fmt.Fprintf(tw, "\t%s", d)
	}
	fmt.Fprintln(tw)
	for _, b := range f.Benchmarks {
		fmt.Fprint(tw, b)
		for _, d := range designs {
			switch v, ok := m[b][d]; {
			case f.Errors[b][d] != nil:
				fmt.Fprint(tw, "\tERR")
			case !ok:
				// The cell ran, but its Base reference failed (KeepGoing).
				fmt.Fprint(tw, "\tn/a")
			default:
				fmt.Fprintf(tw, "\t%.2f", v)
			}
		}
		fmt.Fprintln(tw)
	}
	fmt.Fprint(tw, "Average")
	for _, d := range designs {
		var xs []float64
		for _, b := range f.Benchmarks {
			if v, ok := m[b][d]; ok {
				xs = append(xs, v)
			}
		}
		mean, err := stats.Mean(xs)
		if err != nil {
			fmt.Fprint(tw, "\tn/a")
		} else {
			fmt.Fprintf(tw, "\t%.2f", mean)
		}
	}
	fmt.Fprintln(tw)
	tw.Flush()
	renderCellErrors(w, f.FailedCells(), func(emit func(string, error)) {
		for _, b := range f.Benchmarks {
			for _, d := range designs {
				if err := f.Errors[b][d]; err != nil {
					emit(fmt.Sprintf("%s/%s", b, d), err)
				}
			}
		}
	})
}

// renderCellErrors appends a failed-cell summary below a table when a
// KeepGoing sweep recorded errors. Each line is prefixed with the cell's
// failure class (guard.Classify), so a panic storm, a deadline overrun and
// an operator interrupt read differently at a glance.
func renderCellErrors(w io.Writer, n int, visit func(emit func(string, error))) {
	if n == 0 {
		return
	}
	fmt.Fprintf(w, "%d failed cell(s):\n", n)
	visit(func(cell string, err error) {
		fmt.Fprintf(w, "  %s: [%s] %v\n", cell, guard.Classify(err), err)
	})
}

// Fig8Row is one benchmark's peak temperatures.
type Fig8Row struct {
	Benchmark string
	PeakC     map[config.Design]float64
	PowerW    map[config.Design]float64
}

// Fig8 computes peak temperatures for Base, TSV3D and M3D-Het using the
// Figure 6 runs' power maps over the three thermal stacks. Benchmarks with
// failed source cells (KeepGoing sweeps) are dropped from the table; use
// Fig8Health to see which, and why.
func Fig8(f *Fig6Result) ([]Fig8Row, error) {
	rows, _, err := Fig8Health(f)
	return rows, err
}

// Fig8Health is Fig8 on the degradation ladder. The thermal comparison
// needs all three designs of a benchmark, so a KeepGoing source sweep that
// lost cells costs whole rows; instead of dropping them silently, every
// failed source cell behind a dropped row is recorded as a "fig8"
// DegradationEvent in the returned Health block.
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
