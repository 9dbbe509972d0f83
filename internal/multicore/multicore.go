// Package multicore runs parallel workloads on the multicore configurations
// of Figures 9-10: N out-of-order cores over the MESI/ring memory system,
// with barrier-synchronised phases and an Amdahl-style serial section, pairs
// of cores optionally sharing L2s and router stops (Figure 4).
package multicore

import (
	"errors"
	"fmt"

	"vertical3d/internal/config"
	"vertical3d/internal/mem"
	"vertical3d/internal/power"
	"vertical3d/internal/registry"
	"vertical3d/internal/sweep"
	"vertical3d/internal/trace"
	"vertical3d/internal/uarch"
)

// RunResult summarises one multicore execution.
type RunResult struct {
	Config config.MCConfig

	Cycles  uint64 // total cycles (sum over phases of the slowest core)
	Seconds float64
	Instrs  uint64

	CoreStats []uarch.Stats
	MemStats  mem.HierStats
	Energy    power.Breakdown
}

// Options tunes a run.
type Options struct {
	// TotalInstrs is the total parallel work in dynamic instructions,
	// divided evenly among the cores (plus the serial fraction on core 0).
	TotalInstrs uint64
	// WarmupPerCore instructions run per core before measurement.
	WarmupPerCore uint64
	// Phases is the number of barrier-delimited phases.
	Phases int
	Seed   int64
	// Lockstep interleaves the cores cycle by cycle within each phase,
	// exposing true memory-system contention; the default runs each core's
	// phase to completion in turn (faster, contention time-skewed).
	Lockstep bool

	// StreamBase offsets the per-core trace stream ids: core i draws
	// stream StreamBase+i. The default 0 keeps the historical behaviour
	// (core i = stream i); experiments that also run single-core cells at
	// the same seed can set a base so the streams cannot silently collide
	// with experiments.RunOptions.StreamID.
	StreamBase int

	// Kernel selects the per-core simulation kernel. The zero value is
	// uarch.KernelEvent; uarch.KernelReference keeps the original scan
	// kernel for differential debugging. Both are bit-identical in every
	// Stats/HierStats output: lockstep runs advance cores with Step, which
	// never idle-skips, so the shared-memory interleaving is preserved, and
	// non-lockstep runs execute each core's phase sequentially, where
	// idle-skipping cannot reorder accesses.
	Kernel uarch.Kernel

	// Sample fast-forwards each core's warmup functionally (caches and
	// branch predictor only, no detailed pipeline) instead of simulating
	// it in detail. Multicore runs do not sample the measured phases —
	// the per-phase instruction budgets are too small for interval
	// sampling, and extrapolating per-core windows over a shared, mutually
	// interfering memory system would not be sound — so this trades only
	// warmup time, leaving the measured phases exact for the warmed state.
	// Runs with and without it carry distinct journal identities.
	Sample bool

	// Env is the sweep environment of experiment sweeps that fan out
	// multiple Runs (experiments.Fig9WithDesigns). Run itself reads only
	// NoTraceCache, which picks each core's instruction source.
	sweep.Env
}

// DefaultOptions returns run options sized for the benchmark harness.
func DefaultOptions() Options {
	return Options{TotalInstrs: 600_000, WarmupPerCore: 30_000, Phases: 4, Seed: 42}
}

// QuickOptions returns the small sizing of the commands' -quick mode.
func QuickOptions() Options {
	opt := DefaultOptions()
	opt.TotalInstrs, opt.WarmupPerCore = 80_000, 5_000
	return opt
}

// coreSource returns core i's instruction source: by default a replayer
// over the process-wide shared recording of (profile, seed, StreamBase+i)
// — so a Fig9 sweep records each core's stream once and every design
// point replays it — or a fresh generator when the cache is disabled.
func coreSource(prof trace.Profile, opt Options, cores, i int) trace.Source {
	stream := opt.StreamBase + i
	if opt.NoTraceCache {
		return trace.NewGenerator(prof, opt.Seed, stream)
	}
	// Size for the instructions core i retires (its share of the parallel
	// work plus warmup, with the serial fraction on core 0); wrong-path
	// overfetch extends the recording on demand.
	hint := opt.WarmupPerCore + opt.TotalInstrs/uint64(cores)
	if i == 0 {
		hint += uint64(float64(opt.TotalInstrs) * prof.SerialFrac)
	}
	return trace.NewReplayer(trace.SharedRecording(prof, opt.Seed, stream, int(min(hint, 1<<30))))
}

// Hold keeps the shared recordings a Run of prof on mc replays resident
// until release is called. Sweeps that fan out Runs
// (experiments.Fig9WithDesigns) hold each cell's recordings until the
// cell settles, so a profile's recordings leave the process-wide cache
// once its last cell has.
func Hold(mc config.MCConfig, prof trace.Profile, opt Options) (release func()) {
	var rs registry.Releases
	if !opt.NoTraceCache {
		for i := range mc.Cores {
			rs = append(rs, trace.Hold(prof, opt.Seed, opt.StreamBase+i))
		}
	}
	return rs.Release
}

// Run executes the profile on the multicore configuration. The same
// TotalInstrs of work is performed regardless of the core count, so designs
// with more cores finish sooner (modulo the serial fraction, sharing and
// coherence behaviour) — exactly the iso-work comparison of Figure 9.
func Run(mc config.MCConfig, prof trace.Profile, opt Options) (RunResult, error) {
	if mc.Cores < 1 {
		return RunResult{}, errors.New("multicore: need at least one core")
	}
	if opt.Phases < 1 {
		opt.Phases = 1
	}
	backend, err := mem.NewMulticore(mc)
	if err != nil {
		return RunResult{}, err
	}
	cores := make([]*uarch.Core, mc.Cores)
	for i := range cores {
		src := coreSource(prof, opt, mc.Cores, i)
		c, err := uarch.NewCoreKernel(i, mc.PerCore, src, backend, opt.Kernel)
		if err != nil {
			return RunResult{}, err
		}
		cores[i] = c
	}

	// Warm up all cores (caches, predictors) without counting time — in
	// sampled mode functionally, skipping the OoO backend.
	for _, c := range cores {
		if opt.Sample {
			c.FastForward(opt.WarmupPerCore)
		} else {
			c.Run(opt.WarmupPerCore)
		}
	}
	warmCy := make([]uint64, mc.Cores)
	warmIn := make([]uint64, mc.Cores)
	base := make([]uarch.Stats, mc.Cores)
	for i, c := range cores {
		base[i] = c.Stats
		warmCy[i] = c.Stats.Cycles
		warmIn[i] = c.Stats.Instrs
	}

	// Parallel work split: the serial fraction runs on core 0 only while
	// the others wait at the barrier.
	serial := uint64(float64(opt.TotalInstrs) * prof.SerialFrac)
	parallel := opt.TotalInstrs - serial
	perCore := parallel / uint64(mc.Cores)
	perPhase := perCore / uint64(opt.Phases)
	serialPerPhase := serial / uint64(opt.Phases)

	var totalCycles uint64
	target := make([]uint64, mc.Cores)
	for i := range target {
		target[i] = warmIn[i]
	}
	lastCy := warmCy

	for ph := 0; ph < opt.Phases; ph++ {
		var phaseMax uint64
		for i := range cores {
			target[i] += perPhase
			if i == 0 {
				target[i] += serialPerPhase
			}
		}
		if opt.Lockstep {
			// Advance every unfinished core one cycle per round until all
			// reach the barrier.
			for {
				running := false
				for i, c := range cores {
					if c.Stats.Instrs < target[i] {
						c.Step()
						running = true
					}
				}
				if !running {
					break
				}
			}
		} else {
			for i, c := range cores {
				c.Run(target[i])
			}
		}
		for i, c := range cores {
			d := c.Stats.Cycles - lastCy[i]
			if d > phaseMax {
				phaseMax = d
			}
		}
		for i, c := range cores {
			lastCy[i] = c.Stats.Cycles
		}
		totalCycles += phaseMax
	}

	res := RunResult{Config: mc, Cycles: totalCycles}
	res.Seconds = float64(totalCycles) / (mc.PerCore.FreqGHz * 1e9)
	hs := backend.Stats()
	res.MemStats = hs

	for i, c := range cores {
		st := c.Stats
		st.Cycles -= base[i].Cycles
		st.Instrs -= base[i].Instrs
		res.Instrs += st.Instrs
		res.CoreStats = append(res.CoreStats, st)
		// Idle cycles waiting at barriers still burn clock and leakage:
		// charge each core for the full phase duration.
		st.Cycles = totalCycles
		eb := power.Estimate(mc.PerCore, st, mem.HierStats{}, res.Seconds)
		res.Energy = res.Energy.Add(eb)
	}
	// Charge the shared memory system once.
	memOnly := power.Estimate(mc.PerCore, uarch.Stats{}, hs, res.Seconds)
	memOnly.LeakageJ = 0 // core leakage already charged per core
	memOnly.ClockJ = 0
	res.Energy = res.Energy.Add(memOnly)
	if err := res.Energy.Validate(); err != nil {
		return RunResult{}, fmt.Errorf("multicore %s/%s: %w", mc.Name, prof.Name, err)
	}
	return res, nil
}
