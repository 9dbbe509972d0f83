package main

import (
	"vertical3d/internal/core"
	"vertical3d/internal/experiments"
	"vertical3d/internal/journal"
)

// cellView is one benchmark × design cell of a sweep result. Result holds
// the cell's full measurement (experiments.AppResult for fig6,
// multicore.RunResult for fig9, total joules for lpstudy), so deep-equality
// over a sweepResultView subsumes a per-cell comparison of everything the
// pipeline measures.
type cellView struct {
	Benchmark string `json:"benchmark"`
	Design    string `json:"design"`
	Error     string `json:"error,omitempty"`
	Result    any    `json:"result,omitempty"`
}

// sweepResultView is the wire form of a finished sweep. Design-keyed maps
// become name-keyed (config.Design is an int; its JSON map keys would be
// opaque digits) and cells are flattened benchmark-major, design-minor.
type sweepResultView struct {
	Experiment string     `json:"experiment"`
	Benchmarks []string   `json:"benchmarks,omitempty"`
	Designs    []string   `json:"designs,omitempty"`
	Cells      []cellView `json:"cells,omitempty"`

	Speedup    map[string]map[string]float64 `json:"speedup,omitempty"`
	NormEnergy map[string]map[string]float64 `json:"norm_energy,omitempty"`

	// lpstudy
	HetEnergy     map[string]float64 `json:"het_energy,omitempty"`
	LPEnergy      map[string]float64 `json:"lp_energy,omitempty"`
	ExtraSavingPP float64            `json:"extra_saving_pp,omitempty"`

	// table3-5 / table6
	Rows       []experiments.PartRow `json:"rows,omitempty"`
	M3DChoices []core.Choice         `json:"m3d_choices,omitempty"`
	TSVChoices []core.Choice         `json:"tsv_choices,omitempty"`

	Journal journal.Stats      `json:"journal"`
	Health  experiments.Health `json:"health"`
}

// matrixView flattens a fig6 or fig9 study.
func matrixView[D experiments.DesignAxis, R any](experiment string, m *experiments.Matrix[D, R]) *sweepResultView {
	v := &sweepResultView{
		Experiment: experiment,
		Benchmarks: m.Benchmarks,
		Speedup:    map[string]map[string]float64{},
		NormEnergy: map[string]map[string]float64{},
		Journal:    m.Journal,
		Health:     m.Health,
	}
	for _, d := range m.Designs {
		v.Designs = append(v.Designs, d.String())
	}
	for _, b := range m.Benchmarks {
		v.Speedup[b] = map[string]float64{}
		v.NormEnergy[b] = map[string]float64{}
		for _, d := range m.Designs {
			cv := cellView{Benchmark: b, Design: d.String()}
			if err := m.Errors[b][d]; err != nil {
				cv.Error = err.Error()
			} else {
				cv.Result = m.Runs[b][d]
			}
			v.Cells = append(v.Cells, cv)
			if sp, ok := m.Speedup[b][d]; ok {
				v.Speedup[b][d.String()] = sp
			}
			if ne, ok := m.NormEnergy[b][d]; ok {
				v.NormEnergy[b][d.String()] = ne
			}
		}
	}
	return v
}

// lpView flattens an LPStudyResult.
func lpView(r *experiments.LPStudyResult) *sweepResultView {
	return &sweepResultView{
		Experiment:    "lpstudy",
		Benchmarks:    r.Benchmarks,
		HetEnergy:     r.HetEnergy,
		LPEnergy:      r.LPEnergy,
		ExtraSavingPP: r.ExtraSavingPP,
		Journal:       r.Journal,
		Health:        r.Health,
	}
}
