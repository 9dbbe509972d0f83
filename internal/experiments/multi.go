package experiments

import (
	"io"

	"vertical3d/internal/config"
	"vertical3d/internal/multicore"
	"vertical3d/internal/parallel"
	"vertical3d/internal/registry"
	"vertical3d/internal/stats"
	"vertical3d/internal/trace"
)

// Fig9Result holds the multicore study of Figures 9 and 10, normalised to
// config.MCBase.
type Fig9Result struct {
	Matrix[config.MulticoreDesign, multicore.RunResult]
	Configs map[config.MulticoreDesign]config.MCConfig
}

// Fig9With runs an explicit profile list on every multicore design.
func Fig9With(suite *config.Suite, profiles []trace.Profile, opt multicore.Options) (*Fig9Result, error) {
	return Fig9WithDesigns(suite, profiles, config.MulticoreDesigns(), opt)
}

// Fig9WithDesigns runs an explicit benchmark × multicore-design sweep on
// runMatrix, like Fig6WithDesigns: config.MCBase must appear in the design
// list, and results are bit-identical at any opt.Workers and, via
// opt.Kernel, at either simulation kernel (see the kernel oracle tests).
// With opt.JournalDir set, completed cells are checkpointed as they finish
// and a re-run resumes from them bit-identically.
func Fig9WithDesigns(suite *config.Suite, profiles []trace.Profile, designs []config.MulticoreDesign, opt multicore.Options) (*Fig9Result, error) {
	mcs := config.DeriveMulticore(suite)
	// Each cell holds its recordings and warm snapshot until it settles, so
	// a profile's entries leave once its last cell has; cells dispatch
	// profile-major, so only the profiles in flight stay resident. A cell
	// settles after its last retry: a hold released before a retry would
	// leave that retry's recordings pinned for the life of the process.
	var holds registry.Releases
	for _, prof := range profiles {
		for _, d := range designs {
			holds = append(holds, multicore.Hold(mcs[d], prof, opt))
		}
	}
	defer holds.Release()
	m, err := runMatrix(matrixSweep[config.MulticoreDesign, multicore.RunResult]{
		experiment: "fig9",
		base:       config.MCBase,
		baseName:   "config.MCBase",
		id:         MCIdentity(opt, "fig9"),
		env:        opt.Env,
		health:     &healthRecorder{},
		config:     func(d config.MulticoreDesign) any { return mcs[d] },
		run: func(prof trace.Profile, d config.MulticoreDesign) (multicore.RunResult, error) {
			return multicore.Run(mcs[d], prof, opt)
		},
		cost:     func(r multicore.RunResult) (float64, float64) { return r.Seconds, r.Energy.TotalJ() },
		dispatch: func(p *parallel.Pool) { p.Settled = func(i int) { holds[i]() } },
	}, suite, profiles, designs)
	if err != nil {
		return nil, err
	}
	return &Fig9Result{Matrix: m, Configs: mcs}, nil
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
	renderMatrix(w, &f.Matrix, f.Speedup, "Multicore speedup over 4-core Base")
}

// RenderFig10 writes the multicore energies.
func RenderFig10(w io.Writer, f *Fig9Result) {
	renderMatrix(w, &f.Matrix, f.NormEnergy, "Multicore energy normalised to 4-core Base")
}
