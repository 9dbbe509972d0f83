package main

// The traced run of a CLI workload recomposes every cell from the layers'
// public calls, in the order the experiments package makes them
// (runSingleFull, runSingleSampled, Fig8Health, the Fig9 cell task), with
// a span around each call. Nothing inside the program is instrumented, so
// a layer's time is what its public calls take: memory-hierarchy accesses
// made during uarch.Core.Run count as uarch time, and the warm ladder's
// builds made through the fast-forward hook count under the uarch call
// that triggered them. The shadow check (traceCLI) holds the recomposition
// to the library's results bit for bit.

import (
	"errors"
	"fmt"
	"math"
	"time"

	"vertical3d/bench/runset"
	"vertical3d/internal/config"
	"vertical3d/internal/experiments"
	"vertical3d/internal/mem"
	"vertical3d/internal/multicore"
	"vertical3d/internal/power"
	"vertical3d/internal/thermal"
	"vertical3d/internal/trace"
	"vertical3d/internal/uarch"
	"vertical3d/internal/warm"
)

// layerCounts accumulates the work counts the spans are divided by.
type layerCounts struct {
	recorded       uint64 // instructions materialised by first-time recordings
	retired        uint64 // instructions retired inside uarch.Core.Run
	cycles         uint64 // simulated cycles inside uarch.Core.Run
	fastForwarded  uint64 // instructions passed to uarch.Core.FastForward
	measured       uint64 // instructions retired in sampled measured windows
	measureTarget  uint64 // instructions the measured phases stand for
	simCycles      uint64 // the cells' reported cycles
	dram, l2Misses uint64
	mcInstrs       uint64
	mcCycles       uint64
}

// errBudget marks a sampled cell whose warm-phase oracle check failed; the
// cell is recomposed under full simulation, as runSingle does.
var errBudget = errors.New("sample error budget exceeded")

// composeSweep recomposes the workload's cells sequentially under spans
// and reports their outputs, spans and per-layer metrics.
func composeSweep(rep *childReport, name string, spec cliSpec, suite *config.Suite, profs []trace.Profile) error {
	tr := newTracer(name)
	lc := &layerCounts{}
	root := tr.begin(0, "bench."+name, "")
	start := time.Now()
	if spec.fig9 {
		if err := composeFig9(tr, root, lc, rep, spec.mc, suite, profs); err != nil {
			return err
		}
	} else {
		runs, err := composeFig6(tr, root, lc, rep, spec.opt, suite, profs)
		if err != nil {
			return err
		}
		if spec.fig8 {
			if err := composeFig8(tr, root, rep, suite, profs, runs); err != nil {
				return err
			}
		}
	}
	rep.SweepSeconds = time.Since(start).Seconds()
	tr.end(root)
	rep.Spans = tr.spans
	rep.Layers = layerMetrics(rep.Spans, lc)
	return nil
}

// composeFig6 recomposes every Fig6 cell, benchmark-major as the sweep
// lists them.
func composeFig6(tr *tracer, root int, lc *layerCounts, rep *childReport, opt experiments.RunOptions, suite *config.Suite, profs []trace.Profile) (map[string]map[config.Design]experiments.AppResult, error) {
	runs := map[string]map[config.Design]experiments.AppResult{}
	for _, prof := range profs {
		runs[prof.Name] = map[config.Design]experiments.AppResult{}
		for _, d := range config.SingleCoreDesigns() {
			cell := prof.Name + "/" + d.String()
			id := tr.begin(root, "experiments.cell", cell)
			cfg := suite.Configs[d]
			var r experiments.AppResult
			var err error
			if opt.Sample {
				r, err = composeSampled(tr, id, lc, cfg, prof, opt)
				if errors.Is(err, errBudget) {
					rep.Fallbacks++
					r, err = composeFull(tr, id, lc, cfg, prof, opt)
				}
			} else {
				r, err = composeFull(tr, id, lc, cfg, prof, opt)
			}
			tr.end(id)
			if err != nil {
				return nil, fmt.Errorf("compose %s: %w", cell, err)
			}
			lc.simCycles += r.Stats.Cycles
			lc.dram += r.Mem.DRAMAccesses
			lc.l2Misses += r.Mem.L2.Misses
			runs[prof.Name][d] = r
			rep.Cells++
			rep.CellBits = append(rep.CellBits, cellBits{Cell: cell, IPC: r.IPC, Seconds: r.Seconds, TotalJ: r.Energy.TotalJ()})
		}
	}
	return runs, nil
}

// record acquires a cell's shared trace recording, counting the
// instructions a first-time recording materialised.
func (lc *layerCounts) record(tr *tracer, parent int, cell string, prof trace.Profile, seed int64, stream, hint int) *trace.Recording {
	misses := trace.CacheStats().Misses
	var rec *trace.Recording
	tr.call(parent, "trace.SharedRecording", cell, func() { rec = trace.SharedRecording(prof, seed, stream, hint) })
	if trace.CacheStats().Misses > misses {
		lc.recorded += uint64(rec.Len())
	}
	return rec
}

// newCore builds a cell's replayer, hierarchy and core as traceSource,
// mem.NewHierarchy and uarch.NewCoreKernel do in the sweep.
func newCore(tr *tracer, parent int, lc *layerCounts, cell string, cfg config.Config, prof trace.Profile, opt experiments.RunOptions) (*uarch.Core, *mem.Hierarchy, *trace.Replayer, error) {
	rec := lc.record(tr, parent, cell, prof, opt.Seed, opt.StreamID, int(min(opt.Warmup+opt.Measure, 1<<30)))
	var rp *trace.Replayer
	tr.call(parent, "trace.NewReplayer", cell, func() { rp = trace.NewReplayer(rec) })
	var h *mem.Hierarchy
	var err error
	tr.call(parent, "mem.NewHierarchy", cell, func() { h, err = mem.NewHierarchy(cfg) })
	if err != nil {
		return nil, nil, nil, err
	}
	var c *uarch.Core
	tr.call(parent, "uarch.NewCoreKernel", cell, func() { c, err = uarch.NewCoreKernel(0, cfg, rp, h, opt.Kernel) })
	return c, h, rp, err
}

// composeFull is runSingleFull: detailed warmup, detailed measure.
func composeFull(tr *tracer, parent int, lc *layerCounts, cfg config.Config, prof trace.Profile, opt experiments.RunOptions) (experiments.AppResult, error) {
	cell := prof.Name + "/" + cfg.Design.String()
	c, h, _, err := newCore(tr, parent, lc, cell, cfg, prof, opt)
	if err != nil {
		return experiments.AppResult{}, err
	}
	tr.call(parent, "uarch.Core.Run", cell, func() { c.Run(opt.Warmup) })
	s0, m0 := c.Stats, h.Stats()
	tr.call(parent, "uarch.Core.Run", cell, func() { c.Run(opt.Warmup + opt.Measure) })
	s1, m1 := c.Stats, h.Stats()
	lc.retired += s1.Instrs
	lc.cycles += s1.Cycles
	lc.measured += opt.Measure
	lc.measureTarget += opt.Measure

	// The same counters, subtracted the same way, as runSingleFull.
	st := s1
	st.Cycles -= s0.Cycles
	st.Instrs -= s0.Instrs
	st.RFReads -= s0.RFReads
	st.RFWrites -= s0.RFWrites
	st.RATLookups -= s0.RATLookups
	st.IQInserts -= s0.IQInserts
	st.IQWakeups -= s0.IQWakeups
	st.SQSearches -= s0.SQSearches
	st.ROBWrites -= s0.ROBWrites
	st.Branches -= s0.Branches
	st.Mispredicts -= s0.Mispredicts
	for i := range st.KindCount {
		st.KindCount[i] -= s0.KindCount[i]
	}
	return finishCell(tr, parent, cell, cfg, prof, st, diffHier(m1, m0))
}

// composeSampled is runSingleSampled: functional warmup, interval-sampled
// measure, extrapolation.
func composeSampled(tr *tracer, parent int, lc *layerCounts, cfg config.Config, prof trace.Profile, opt experiments.RunOptions) (experiments.AppResult, error) {
	cell := prof.Name + "/" + cfg.Design.String()
	sp := opt.SampleParams
	if sp == (uarch.SampleParams{}) {
		sp = uarch.DefaultSampleParams()
	}
	if err := sp.Validate(); err != nil {
		return experiments.AppResult{}, err
	}
	c, h, rp, err := newCore(tr, parent, lc, cell, cfg, prof, opt)
	if err != nil {
		return experiments.AppResult{}, err
	}
	if opt.WarmCache && !opt.NoTraceCache {
		tr.call(parent, "warm.Bind", cell, func() { _, _ = warm.Bind(c, rp, cfg, sp) })
	}
	tr.call(parent, "uarch.Core.FastForward", cell, func() { c.FastForward(opt.Warmup) })
	lc.fastForwarded += opt.Warmup

	var hsum, hwin mem.HierStats
	var res uarch.SampleResult
	tr.call(parent, "uarch.Core.RunSampled", cell, func() {
		res, err = c.RunSampled(opt.Measure, sp, func(begin bool) {
			if begin {
				hwin = h.Stats()
			} else {
				hsum = addHier(hsum, diffHier(h.Stats(), hwin))
			}
		})
	})
	if err != nil {
		return experiments.AppResult{}, err
	}
	measured := res.MeasuredInstrs()
	if measured == 0 {
		return experiments.AppResult{}, errors.New("sampled run measured no instructions")
	}
	budget := opt.SampleErrorBudget
	if budget == 0 {
		budget = experiments.DefaultSampleErrorBudget
	}
	if budget > 0 && res.OracleDeviation() > budget {
		return experiments.AppResult{}, errBudget
	}
	lc.measured += measured
	lc.measureTarget += opt.Measure
	st := res.Extrapolate(opt.Measure)
	return finishCell(tr, parent, cell, cfg, prof, st, scaleHier(hsum, float64(opt.Measure)/float64(measured)))
}

// finishCell prices a cell's counters with the power model.
func finishCell(tr *tracer, parent int, cell string, cfg config.Config, prof trace.Profile, st uarch.Stats, hs mem.HierStats) (experiments.AppResult, error) {
	sec := float64(st.Cycles) / (cfg.FreqGHz * 1e9)
	var energy power.Breakdown
	tr.call(parent, "power.Estimate", cell, func() { energy = power.Estimate(cfg, st, hs, sec) })
	if err := energy.Validate(); err != nil {
		return experiments.AppResult{}, err
	}
	return experiments.AppResult{
		Benchmark: prof.Name,
		Design:    cfg.Design,
		Seconds:   sec,
		IPC:       float64(st.Instrs) / float64(st.Cycles),
		Stats:     st,
		Mem:       hs,
		Energy:    energy,
	}, nil
}

// composeFig8 is Fig8Health over the composed cells: block powers, then
// one thermal solve per design.
func composeFig8(tr *tracer, root int, rep *childReport, suite *config.Suite, profs []trace.Profile, runs map[string]map[config.Design]experiments.AppResult) error {
	for _, prof := range profs {
		id := tr.begin(root, "experiments.fig8", prof.Name)
		for _, d := range fig8Designs {
			cell := prof.Name + "/" + d.String()
			run := runs[prof.Name][d]
			var blocks map[string]float64
			tr.call(id, "power.BlockPowers", cell, func() { blocks = power.BlockPowers(suite.Configs[d], run.Stats, run.Mem, run.Seconds) })
			var res thermal.Result
			var watts float64
			var err error
			tr.call(id, "experiments.SolveDesignThermal", cell, func() { res, watts, err = experiments.SolveDesignThermal(d, blocks, 0) })
			if err != nil {
				return fmt.Errorf("compose fig8 %s: %w", cell, err)
			}
			rep.CellBits = append(rep.CellBits, cellBits{Cell: "fig8 " + cell, Seconds: res.PeakC, TotalJ: watts})
		}
		tr.end(id)
	}
	return nil
}

// composeFig9 records each core's stream as multicore's coreSource sizes
// it, then runs the cell.
func composeFig9(tr *tracer, root int, lc *layerCounts, rep *childReport, opt multicore.Options, suite *config.Suite, profs []trace.Profile) error {
	mcs := config.DeriveMulticore(suite)
	for _, prof := range profs {
		for _, d := range config.MulticoreDesigns() {
			cell := prof.Name + "/" + d.String()
			id := tr.begin(root, "experiments.cell", cell)
			mc := mcs[d]
			for i := 0; i < mc.Cores; i++ {
				hint := opt.WarmupPerCore + opt.TotalInstrs/uint64(mc.Cores)
				if i == 0 {
					hint += uint64(float64(opt.TotalInstrs) * prof.SerialFrac)
				}
				lc.record(tr, id, cell, prof, opt.Seed, opt.StreamBase+i, int(min(hint, 1<<30)))
			}
			var r multicore.RunResult
			var err error
			tr.call(id, "multicore.Run", cell, func() { r, err = multicore.Run(mc, prof, opt) })
			tr.end(id)
			if err != nil {
				return fmt.Errorf("compose %s: %w", cell, err)
			}
			lc.mcInstrs += r.Instrs
			lc.mcCycles += r.Cycles
			lc.dram += r.MemStats.DRAMAccesses
			lc.l2Misses += r.MemStats.L2.Misses
			rep.Cells++
			rep.CellBits = append(rep.CellBits, cellBits{Cell: cell, Seconds: r.Seconds, TotalJ: r.Energy.TotalJ(), Cycles: r.Cycles})
		}
	}
	return nil
}

// layerMetrics turns the composition's spans and counts into the
// per-layer metrics. Pool utilisation, fallbacks and the tracing overhead
// come from the library child and are filled in by the parent.
func layerMetrics(spans []Span, lc *layerCounts) map[string]float64 {
	ns := map[string][]float64{}
	for _, s := range spans {
		ns[s.Name] = append(ns[s.Name], float64(s.Dur()))
	}
	total := func(name string) float64 { return runset.Sum(ns[name]) }
	mean := func(name string) float64 {
		if len(ns[name]) == 0 {
			return 0
		}
		return total(name) / float64(len(ns[name]))
	}
	per := func(t float64, n uint64) float64 {
		if n == 0 {
			return 0
		}
		return t / float64(n)
	}
	m := map[string]float64{
		"trace.record_ms":             total("trace.SharedRecording") / 1e6,
		"trace.record_ns_per_instr":   per(total("trace.SharedRecording"), lc.recorded),
		"trace.recorded_mb":           float64(trace.CachedBytes()) / 1e6,
		"uarch.detailed_ms":           total("uarch.Core.Run") / 1e6,
		"uarch.detailed_ns_per_instr": per(total("uarch.Core.Run"), lc.retired),
		"uarch.host_ns_per_sim_cycle": per(total("uarch.Core.Run"), lc.cycles),
		"uarch.ff_ms":                 total("uarch.Core.FastForward") / 1e6,
		"uarch.ff_ns_per_instr":       per(total("uarch.Core.FastForward"), lc.fastForwarded),
		"uarch.sampled_ms":            total("uarch.Core.RunSampled") / 1e6,
		"uarch.sim_cycles":            float64(lc.simCycles),
		"uarch.measured_frac":         per(float64(lc.measured), lc.measureTarget),
		"mem.hierarchy_us":            mean("mem.NewHierarchy") / 1e3,
		"mem.dram_accesses":           float64(lc.dram),
		"mem.l2_misses":               float64(lc.l2Misses),
		"warm.bind_us":                mean("warm.Bind") / 1e3,
		"power.estimate_us":           mean("power.Estimate") / 1e3,
		"power.block_powers_us":       mean("power.BlockPowers") / 1e3,
		"thermal.solve_ms_total":      total("experiments.SolveDesignThermal") / 1e6,
		"multicore.run_ms":            total("multicore.Run") / 1e6,
		"multicore.ns_per_instr":      per(total("multicore.Run"), lc.mcInstrs),
		"multicore.sim_cycles":        float64(lc.mcCycles),
	}
	if xs := ns["experiments.SolveDesignThermal"]; len(xs) > 0 {
		m["thermal.solve_ms_p50"] = runset.Median(xs) / 1e6
	}
	ws := warm.Stats()
	m["warm.built_minstr"] = float64(ws.BuiltInstrs) / 1e6
	m["warm.skipped_minstr"] = float64(ws.SkippedInstrs) / 1e6
	if n := ws.Hits + ws.Misses; n > 0 {
		m["warm.hit_ratio"] = float64(ws.Hits) / float64(n)
	}

	// A cell's self time is the composition's own code between layer
	// calls; everything else is attributed to a layer.
	self := selfTimes(spans)
	var cellTotal, unattributed float64
	var cells []float64
	for _, s := range spans {
		if s.Name == "experiments.cell" {
			cells = append(cells, float64(s.Dur()))
			cellTotal += float64(s.Dur())
			unattributed += float64(self[s.ID])
		}
	}
	if len(cells) > 0 {
		m["experiments.cell_ms_p50"] = runset.Median(cells) / 1e6
		m["experiments.cell_ms_max"] = runset.Percentile(cells, 100) / 1e6
		m["bench.unattributed_frac"] = unattributed / cellTotal
	}
	return m
}

// diffHier, addHier and scaleHier repeat the experiments package's
// unexported counter arithmetic; the shadow check fails if they drift.
func diffHier(a, b mem.HierStats) mem.HierStats {
	d := func(x, y mem.CacheStats) mem.CacheStats {
		return mem.CacheStats{Accesses: x.Accesses - y.Accesses, Misses: x.Misses - y.Misses, Writebacks: x.Writebacks - y.Writebacks}
	}
	return mem.HierStats{IL1: d(a.IL1, b.IL1), DL1: d(a.DL1, b.DL1), L2: d(a.L2, b.L2), L3: d(a.L3, b.L3), DRAMAccesses: a.DRAMAccesses - b.DRAMAccesses}
}

func addHier(a, b mem.HierStats) mem.HierStats {
	s := func(x, y mem.CacheStats) mem.CacheStats {
		return mem.CacheStats{Accesses: x.Accesses + y.Accesses, Misses: x.Misses + y.Misses, Writebacks: x.Writebacks + y.Writebacks}
	}
	return mem.HierStats{IL1: s(a.IL1, b.IL1), DL1: s(a.DL1, b.DL1), L2: s(a.L2, b.L2), L3: s(a.L3, b.L3), DRAMAccesses: a.DRAMAccesses + b.DRAMAccesses}
}

func scaleHier(hs mem.HierStats, f float64) mem.HierStats {
	sc := func(v uint64) uint64 { return uint64(math.Round(float64(v) * f)) }
	c := func(x mem.CacheStats) mem.CacheStats {
		return mem.CacheStats{Accesses: sc(x.Accesses), Misses: sc(x.Misses), Writebacks: sc(x.Writebacks)}
	}
	return mem.HierStats{IL1: c(hs.IL1), DL1: c(hs.DL1), L2: c(hs.L2), L3: c(hs.L3), DRAMAccesses: sc(hs.DRAMAccesses)}
}
