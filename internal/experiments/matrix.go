package experiments

import (
	"context"
	"fmt"
	"io"
	"text/tabwriter"

	"vertical3d/internal/config"
	"vertical3d/internal/guard"
	"vertical3d/internal/journal"
	"vertical3d/internal/parallel"
	"vertical3d/internal/stats"
	"vertical3d/internal/sweep"
	"vertical3d/internal/trace"
)

// DesignAxis is a study's design axis: config.Design for the single-core
// study, config.MulticoreDesign for the multicore one.
type DesignAxis interface {
	comparable
	String() string
}

// Matrix is a benchmark × design study normalised to a base design — the
// shape of both the single-core (Figures 6-8) and the multicore (Figures
// 9-10) evaluations. R is one cell's measurement.
type Matrix[D DesignAxis, R any] struct {
	Suite *config.Suite
	// Runs[benchmark][design]
	Runs map[string]map[D]R
	// Speedup[benchmark][design] over the base design; NormEnergy is
	// normalised likewise. Under KeepGoing, entries exist only for cells
	// where both the cell and the benchmark's base cell succeeded.
	Speedup    map[string]map[D]float64
	NormEnergy map[string]map[D]float64
	Benchmarks []string
	// Designs is the sweep's design list in cell order.
	Designs []D

	// Errors[benchmark][design] records failed cells of a KeepGoing sweep
	// (including recovered panics, as *parallel.PanicError). Empty for a
	// fault-free or fail-fast run.
	Errors map[string]map[D]error

	// Journal reports the checkpoint journal's load/hit/append counters
	// when the sweep ran with a JournalDir; zero otherwise. Hits counts
	// cells merged from a previous run instead of re-executed.
	Journal journal.Stats

	// Health is the sweep's degradation report: every rung of the
	// degrade-don't-die ladder taken while the sweep ran (journal
	// downgrades, trace-cache regenerations, sampled-cell fallbacks, warm
	// snapshot rebuilds). Degraded is false for a run that needed none.
	Health Health
}

// Err returns the first failed cell's error in sweep (benchmark-major,
// design-minor) order, or nil if every cell succeeded.
func (m *Matrix[D, R]) Err() error {
	for _, b := range m.Benchmarks {
		for _, d := range m.Designs {
			if err := m.Errors[b][d]; err != nil {
				return err
			}
		}
	}
	return nil
}

// FailedCells counts the cells recorded in Errors.
func (m *Matrix[D, R]) FailedCells() int {
	n := 0
	for _, e := range m.Errors {
		n += len(e)
	}
	return n
}

// AverageSpeedup returns the mean speedup of a design across the
// benchmarks whose cells succeeded (all of them, outside KeepGoing).
func (m *Matrix[D, R]) AverageSpeedup(d D) float64 {
	v, _ := m.mean(m.Speedup, d)
	return v
}

// AverageNormEnergy returns the mean normalised energy of a design across
// the benchmarks whose cells succeeded.
func (m *Matrix[D, R]) AverageNormEnergy(d D) float64 {
	v, _ := m.mean(m.NormEnergy, d)
	return v
}

// mean is the mean of column d of vals over the benchmarks that have it;
// it fails (returning 0) when none do.
func (m *Matrix[D, R]) mean(vals map[string]map[D]float64, d D) (float64, error) {
	var xs []float64
	for _, b := range m.Benchmarks {
		if v, ok := vals[b][d]; ok {
			xs = append(xs, v)
		}
	}
	return stats.Mean(xs)
}

// matrixSweep is what one study tells runMatrix: how to key, run and
// cost a cell, and how to dispatch them.
type matrixSweep[D DesignAxis, R any] struct {
	experiment string           // cell-error prefix, e.g. "fig6"
	base       D                // normalisation reference; must be swept
	baseName   string           // base's name in errors, e.g. "config.Base"
	id         journal.Identity // journal and result-cache identity
	env        sweep.Env
	health     *healthRecorder // shared with cells that record their own rungs

	// config is the derived configuration of a design, fingerprinted into
	// each cell's journal key.
	config func(D) any
	run    func(trace.Profile, D) (R, error)
	cost   func(R) (seconds, joules float64)
	// dispatch sets the pool's dispatch order and per-cell release; the
	// studies differ in both (see Fig6WithDesigns and Fig9WithDesigns).
	dispatch func(*parallel.Pool)
}

// runMatrix runs every profile on every design. Every cell is an
// independent simulation fanned out on the worker pool and collected by
// index, so the result never depends on goroutine scheduling, dispatch
// order or worker count. Cell i is (profiles[i/len(designs)],
// designs[i%len(designs)]). Under KeepGoing the sweep completes through
// cell failures and panics, recording them per cell; otherwise the
// lowest-index error aborts it. Each cell consults the result cache, then
// the journal, before simulating (see runCell). The Speedup and
// NormEnergy ratios are a second pass after the join, so the base design
// may sit anywhere in the list.
func runMatrix[D DesignAxis, R any](s matrixSweep[D, R], suite *config.Suite, profiles []trace.Profile, designs []D) (Matrix[D, R], error) {
	hasBase := false
	for _, d := range designs {
		hasBase = hasBase || d == s.base
	}
	if !hasBase {
		return Matrix[D, R]{}, fmt.Errorf("%s: design list must include %s for the normalisation pass", s.experiment, s.baseName)
	}
	hr := s.health
	cw := watchCaches()
	cr := openCells(s.env, s.id, hr)
	defer cr.jn.Close()
	nd := len(designs)
	pool := s.env.Pool()
	s.dispatch(&pool)
	task := func(_ context.Context, i int) (R, error) {
		prof, d := profiles[i/nd], designs[i%nd]
		key := journal.CellKey(prof.Name, d.String(), s.config(d), prof)
		r, err := runCell(cr, prof.Name, d.String(), key, func() (R, error) {
			return s.run(prof, d)
		})
		if err != nil {
			var zero R
			return zero, fmt.Errorf("%s %s/%s: %w", s.experiment, prof.Name, d, err)
		}
		return r, nil
	}
	var cells []R
	var cellErrs []error
	if s.env.KeepGoing {
		cells, cellErrs = parallel.MapPartial(s.env.Ctx(), pool, len(profiles)*nd, task)
	} else {
		var err error
		cells, err = parallel.Map(s.env.Ctx(), pool, len(profiles)*nd, task)
		if err != nil {
			return Matrix[D, R]{}, err
		}
	}

	m := Matrix[D, R]{
		Suite:      suite,
		Runs:       map[string]map[D]R{},
		Speedup:    map[string]map[D]float64{},
		NormEnergy: map[string]map[D]float64{},
		Designs:    designs,
		Errors:     map[string]map[D]error{},
	}
	for pi, prof := range profiles {
		m.Benchmarks = append(m.Benchmarks, prof.Name)
		m.Runs[prof.Name] = map[D]R{}
		for di, d := range designs {
			i := pi*nd + di
			if cellErrs != nil && cellErrs[i] != nil {
				if m.Errors[prof.Name] == nil {
					m.Errors[prof.Name] = map[D]error{}
				}
				m.Errors[prof.Name][d] = cellErrs[i]
				continue
			}
			m.Runs[prof.Name][d] = cells[i]
		}
	}

	// Base-relative ratios for every benchmark whose base cell succeeded,
	// covering exactly the healthy cells.
	for _, prof := range profiles {
		m.Speedup[prof.Name] = map[D]float64{}
		m.NormEnergy[prof.Name] = map[D]float64{}
		if m.Errors[prof.Name][s.base] != nil {
			continue
		}
		baseSec, baseJ := s.cost(m.Runs[prof.Name][s.base])
		for _, d := range designs {
			if m.Errors[prof.Name][d] != nil {
				continue
			}
			sec, j := s.cost(m.Runs[prof.Name][d])
			m.Speedup[prof.Name][d] = baseSec / sec
			m.NormEnergy[prof.Name][d] = j / baseJ
		}
	}
	m.Journal = cr.jn.Stats()
	journalHealth(hr, cr.jn)
	cw.harvest(hr)
	m.Health = hr.health()
	return m, nil
}

// renderMatrix writes one value matrix of a study — speedups or
// normalised energies — with a per-design average row, then the failed
// cells (see RenderErrors).
func renderMatrix[D DesignAxis, R any](w io.Writer, m *Matrix[D, R], vals map[string]map[D]float64, title string) {
	fmt.Fprintln(w, title+":")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "Benchmark")
	for _, d := range m.Designs {
		fmt.Fprintf(tw, "\t%s", d)
	}
	fmt.Fprintln(tw)
	for _, b := range m.Benchmarks {
		fmt.Fprint(tw, b)
		for _, d := range m.Designs {
			switch v, ok := vals[b][d]; {
			case m.Errors[b][d] != nil:
				fmt.Fprint(tw, "\tERR")
			case !ok:
				// The cell ran, but its base reference failed (KeepGoing).
				fmt.Fprint(tw, "\tn/a")
			default:
				fmt.Fprintf(tw, "\t%.2f", v)
			}
		}
		fmt.Fprintln(tw)
	}
	fmt.Fprint(tw, "Average")
	for _, d := range m.Designs {
		if v, err := m.mean(vals, d); err != nil {
			fmt.Fprint(tw, "\tn/a")
		} else {
			fmt.Fprintf(tw, "\t%.2f", v)
		}
	}
	fmt.Fprintln(tw)
	tw.Flush()
	m.RenderErrors(w)
}

// RenderErrors writes a summary of a KeepGoing sweep's failed cells in
// sweep order, each prefixed with its failure class (guard.Classify), so a
// panic storm, a deadline overrun and an operator interrupt read
// differently at a glance. It is quiet when every cell succeeded.
func (m *Matrix[D, R]) RenderErrors(w io.Writer) {
	n := m.FailedCells()
	if n == 0 {
		return
	}
	fmt.Fprintf(w, "%d failed cell(s):\n", n)
	for _, b := range m.Benchmarks {
		for _, d := range m.Designs {
			if err := m.Errors[b][d]; err != nil {
				fmt.Fprintf(w, "  %s/%s: [%s] %v\n", b, d, guard.Classify(err), err)
			}
		}
	}
}
