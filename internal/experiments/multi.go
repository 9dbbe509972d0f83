package experiments

import (
	"context"
	"fmt"
	"io"
	"text/tabwriter"

	"vertical3d/internal/config"
	"vertical3d/internal/journal"
	"vertical3d/internal/multicore"
	"vertical3d/internal/parallel"
	"vertical3d/internal/registry"
	"vertical3d/internal/resultcache"
	"vertical3d/internal/stats"
	"vertical3d/internal/tech"
	"vertical3d/internal/trace"
	"vertical3d/internal/workload"
)

// Fig9Result holds the multicore study of Figures 9 and 10.
type Fig9Result struct {
	Suite   *config.Suite
	Configs map[config.MulticoreDesign]config.MCConfig
	Runs    map[string]map[config.MulticoreDesign]multicore.RunResult
	// Speedup and NormEnergy carry entries only for cells where both the
	// cell and the benchmark's MCBase cell succeeded (all of them, outside
	// KeepGoing).
	Speedup    map[string]map[config.MulticoreDesign]float64
	NormEnergy map[string]map[config.MulticoreDesign]float64
	Benchmarks []string
	// Designs is the sweep's design list in cell order.
	Designs []config.MulticoreDesign

	// Errors[benchmark][design] records failed cells of a KeepGoing sweep
	// (including recovered panics, as *parallel.PanicError).
	Errors map[string]map[config.MulticoreDesign]error

	// Journal reports the checkpoint journal's load/hit/append counters
	// when the sweep ran with Options.JournalDir; zero otherwise. Hits
	// counts cells merged from a previous run instead of re-executed.
	Journal journal.Stats

	// Health is the sweep's degradation report (see Fig6Result.Health).
	Health Health
}

// Err returns the first failed cell's error in sweep (benchmark-major,
// design-minor) order, or nil if every cell succeeded.
func (f *Fig9Result) Err() error {
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
func (f *Fig9Result) FailedCells() int {
	n := 0
	for _, m := range f.Errors {
		n += len(m)
	}
	return n
}

// Fig9 runs every parallel benchmark on every multicore design.
func Fig9(opt multicore.Options) (*Fig9Result, error) {
	suite, err := config.Derive(tech.N22())
	if err != nil {
		return nil, err
	}
	return Fig9With(suite, workload.Parallel(), opt)
}

// Fig9With runs an explicit profile list.
func Fig9With(suite *config.Suite, profiles []trace.Profile, opt multicore.Options) (*Fig9Result, error) {
	return Fig9WithDesigns(suite, profiles, config.MulticoreDesigns(), opt)
}

// Fig9WithDesigns runs an explicit benchmark × multicore-design sweep.
// Like Fig6WithDesigns, every cell runs as an independent task on the
// worker pool and the base-relative ratios are a second pass after the
// join, so config.MCBase may appear anywhere in the design list (it must
// appear) and results are bit-identical at any opt.Workers — and, via
// opt.Kernel, at either simulation kernel (see the kernel oracle tests).
// With opt.JournalDir set, completed cells are checkpointed as they finish
// and a re-run resumes from them bit-identically.
func Fig9WithDesigns(suite *config.Suite, profiles []trace.Profile, designs []config.MulticoreDesign, opt multicore.Options) (*Fig9Result, error) {
	hasBase := false
	for _, d := range designs {
		if d == config.MCBase {
			hasBase = true
		}
	}
	if !hasBase {
		return nil, fmt.Errorf("fig9: design list must include config.MCBase for the normalisation pass")
	}

	mcs := config.DeriveMulticore(suite)
	var holds registry.Releases
	for _, prof := range profiles {
		for _, d := range designs {
			holds = append(holds, multicore.Hold(mcs[d], prof, opt))
		}
	}
	defer holds.Release()
	hr := &healthRecorder{}
	tws := watchTrace()
	ww := watchWarm()
	jn := mcJournalHealth(opt, "fig9", hr)
	defer jn.Close()
	cr := cellRunner{
		cache: opt.Cache,
		key:   resultcache.Key{ID: mcIdentity(opt, "fig9")},
		jn:    jn,
		hook:  opt.CellHook,
	}
	nd := len(designs)
	pool := mcPool(opt)
	task := func(_ context.Context, i int) (multicore.RunResult, error) {
		prof, d := profiles[i/nd], designs[i%nd]
		key := journal.CellKey(prof.Name, d.String(), mcs[d], prof)
		r, err := runCell(cr, prof.Name, d.String(), key, func() (multicore.RunResult, error) {
			return multicore.Run(mcs[d], prof, opt)
		})
		if err != nil {
			return multicore.RunResult{}, fmt.Errorf("fig9 %s/%s: %w", prof.Name, d, err)
		}
		return r, nil
	}
	var cells []multicore.RunResult
	var cellErrs []error
	if opt.KeepGoing {
		cells, cellErrs = parallel.MapPartial(mcCtx(opt), pool, len(profiles)*nd, task)
	} else {
		var err error
		cells, err = parallel.Map(mcCtx(opt), pool, len(profiles)*nd, task)
		if err != nil {
			return nil, err
		}
	}

	res := &Fig9Result{
		Suite:      suite,
		Configs:    mcs,
		Runs:       map[string]map[config.MulticoreDesign]multicore.RunResult{},
		Speedup:    map[string]map[config.MulticoreDesign]float64{},
		NormEnergy: map[string]map[config.MulticoreDesign]float64{},
		Designs:    designs,
		Errors:     map[string]map[config.MulticoreDesign]error{},
	}
	for pi, prof := range profiles {
		res.Benchmarks = append(res.Benchmarks, prof.Name)
		res.Runs[prof.Name] = map[config.MulticoreDesign]multicore.RunResult{}
		for di, d := range designs {
			i := pi*nd + di
			if cellErrs != nil && cellErrs[i] != nil {
				if res.Errors[prof.Name] == nil {
					res.Errors[prof.Name] = map[config.MulticoreDesign]error{}
				}
				res.Errors[prof.Name][d] = cellErrs[i]
				continue
			}
			res.Runs[prof.Name][d] = cells[i]
		}
	}
	for _, prof := range profiles {
		res.Speedup[prof.Name] = map[config.MulticoreDesign]float64{}
		res.NormEnergy[prof.Name] = map[config.MulticoreDesign]float64{}
		if res.Errors[prof.Name][config.MCBase] != nil {
			continue
		}
		base := res.Runs[prof.Name][config.MCBase]
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
	tws.harvest(hr)
	ww.harvest(hr)
	res.Health = hr.health()
	return res, nil
}

// AverageSpeedup returns the mean speedup of a multicore design across the
// benchmarks whose cells succeeded (all of them, outside KeepGoing).
func (f *Fig9Result) AverageSpeedup(d config.MulticoreDesign) float64 {
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
func (f *Fig9Result) AverageNormEnergy(d config.MulticoreDesign) float64 {
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

// AveragePowerRatio reports a design's average power relative to MCBase —
// the iso-power check for M3D-Het-2X (Section 7.2.2).
func (f *Fig9Result) AveragePowerRatio(d config.MulticoreDesign) float64 {
	var xs []float64
	for _, b := range f.Benchmarks {
		if f.Errors[b][d] != nil || f.Errors[b][config.MCBase] != nil {
			continue
		}
		base := f.Runs[b][config.MCBase].Energy.AvgWatts()
		if base <= 0 {
			continue
		}
		xs = append(xs, f.Runs[b][d].Energy.AvgWatts()/base)
	}
	m, err := stats.Mean(xs)
	if err != nil {
		return 0
	}
	return m
}

// RenderFig9 writes the multicore speedups.
func RenderFig9(w io.Writer, f *Fig9Result) {
	renderMCMatrix(w, f, f.Speedup, "Multicore speedup over 4-core Base")
}

// RenderFig10 writes the multicore energies.
func RenderFig10(w io.Writer, f *Fig9Result) {
	renderMCMatrix(w, f, f.NormEnergy, "Multicore energy normalised to 4-core Base")
}

func renderMCMatrix(w io.Writer, f *Fig9Result, m map[string]map[config.MulticoreDesign]float64, title string) {
	designs := f.Designs
	if len(designs) == 0 {
		designs = config.MulticoreDesigns()
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
