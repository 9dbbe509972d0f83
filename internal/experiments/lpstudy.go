package experiments

import (
	"fmt"
	"io"

	"vertical3d/internal/config"
	"vertical3d/internal/journal"
	"vertical3d/internal/parallel"
	"vertical3d/internal/stats"
	"vertical3d/internal/trace"
	"vertical3d/internal/workload"
)

// LPStudyResult is the Section 7.1.2 scenario: M3D-Het with a low-power
// FDSOI top layer, which matches M3D-Het's performance while saving more
// energy (the paper reports ≈9 additional percentage points).
type LPStudyResult struct {
	Benchmarks []string
	// HetEnergy and LPEnergy are normalised to Base per benchmark.
	HetEnergy map[string]float64
	LPEnergy  map[string]float64
	// ExtraSavingPP is the mean additional saving in percentage points.
	ExtraSavingPP float64

	// Journal reports the checkpoint journal's counters when the study ran
	// with RunOptions.JournalDir; zero otherwise.
	Journal journal.Stats

	// Health is the study's degradation report (see Fig6Result.Health).
	Health Health
}

// lpDesigns is the fixed design triple every LP-study cell sweeps.
var lpDesigns = [...]config.Design{config.Base, config.M3DHet, config.M3DHetLP}

// LPStudy runs the comparison on a benchmark subset of suite's designs.
// The benchmark × design cells fan out on the worker pool in index order,
// each holding its probe tape until it settles (see holdCells);
// normalisation is a second pass after the join, so results are
// bit-identical at any opt.Workers.
func LPStudy(suite *config.Suite, names []string, opt RunOptions) (*LPStudyResult, error) {
	// Resolve the profiles up front so a bad name fails deterministically.
	profiles := make([]workloadProfile, len(names))
	for i, name := range names {
		p, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		profiles[i] = workloadProfile{name: name, prof: p}
	}

	opt.health = &healthRecorder{}
	cr := openCells(opt.Env, opt.Identity("lpstudy"), opt.health)
	defer cr.jn.Close()
	nd := len(lpDesigns)
	pool := opt.Pool()
	defer holdCells(&pool, len(profiles)*nd, func(i int) func() {
		return opt.holdCaches(suite.Configs[lpDesigns[i%nd]], profiles[i/nd].prof)
	})()
	cells, err := parallel.Map(opt.Ctx(), pool, len(profiles)*nd,
		func(i int) (float64, error) {
			p, d := profiles[i/nd], lpDesigns[i%nd]
			key := journal.CellKey(p.name, d.String(), suite.Configs[d], p.prof)
			e, err := runCell(cr, p.name, d.String(), key, func() (float64, error) {
				r, err := runSingle(suite.Configs[d], p.prof, opt)
				if err != nil {
					return 0, err
				}
				return r.Energy.TotalJ(), nil
			})
			if err != nil {
				return 0, fmt.Errorf("lpstudy %s/%s: %w", p.name, d, err)
			}
			return e, nil
		})
	if err != nil {
		return nil, err
	}

	res := &LPStudyResult{
		HetEnergy: map[string]float64{},
		LPEnergy:  map[string]float64{},
	}
	var deltas []float64
	for pi, p := range profiles {
		base, het, lp := cells[pi*nd], cells[pi*nd+1], cells[pi*nd+2]
		res.Benchmarks = append(res.Benchmarks, p.name)
		res.HetEnergy[p.name] = het / base
		res.LPEnergy[p.name] = lp / base
		deltas = append(deltas, (het-lp)/base*100)
	}
	m, err := stats.Mean(deltas)
	if err != nil {
		return nil, err
	}
	res.ExtraSavingPP = m
	res.Journal = cr.jn.Stats()
	journalHealth(opt.health, cr.jn)
	res.Health = opt.health.health()
	return res, nil
}

// workloadProfile pairs a benchmark name with its resolved trace profile.
type workloadProfile struct {
	name string
	prof trace.Profile
}

// RenderLPStudy writes the comparison.
func RenderLPStudy(w io.Writer, r *LPStudyResult) {
	fmt.Fprintln(w, "M3D-Het with LP (FDSOI) top layer — energy normalised to Base:")
	for _, b := range r.Benchmarks {
		fmt.Fprintf(w, "  %-14s M3D-Het %.2f  M3D-Het-LP %.2f\n", b, r.HetEnergy[b], r.LPEnergy[b])
	}
	fmt.Fprintf(w, "Additional saving: %.1f percentage points (paper: ≈9pp, Section 7.1.2)\n",
		r.ExtraSavingPP)
}
