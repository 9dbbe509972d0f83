// Command mcsim runs one parallel benchmark on one (or every) multicore
// design of Figures 9-10 and prints timing, energy and coherence traffic.
// The design sweep fans out on the worker pool (-j) with bit-identical
// results at any worker count.
//
// Exit codes: 0 on success, 1 on runtime errors (including failed cells
// under -keep-going), 2 on flag/usage errors (including uncreatable
// -cpuprofile/-memprofile paths), 130 when
// interrupted by SIGINT/SIGTERM (the sweep drains, the -journal-dir
// checkpoint flushes, and a re-run resumes from it).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"text/tabwriter"
	"time"

	"vertical3d/internal/config"
	"vertical3d/internal/experiments"
	"vertical3d/internal/guard"
	"vertical3d/internal/multicore"
	"vertical3d/internal/parallel"
	"vertical3d/internal/profutil"
	"vertical3d/internal/shutdown"
	"vertical3d/internal/tech"
	"vertical3d/internal/trace"
	"vertical3d/internal/warm"
	"vertical3d/internal/workload"
)

func usageErr(msg string) int {
	fmt.Fprintln(os.Stderr, "mcsim:", msg)
	flag.Usage()
	return 2
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "mcsim:", err)
	return 1
}

// main delegates to run so deferred profile flushes execute on every exit
// path before os.Exit.
func main() {
	os.Exit(run())
}

func run() int {
	bench := flag.String("bench", "Fft", "parallel benchmark name")
	instrs := flag.Uint64("instrs", 600_000, "total parallel work in instructions")
	warmup := flag.Uint64("warmup", 30_000, "warmup instructions per core")
	phases := flag.Int("phases", 4, "barrier-delimited phases")
	seed := flag.Int64("seed", 42, "trace seed")
	streamBase := flag.Int("stream-base", 0, "trace stream id of core 0 (core i uses stream-base+i); pick a base so streams cannot collide with single-core runs at the same seed")
	traceCache := flag.Bool("trace-cache", true, "record each core's instruction stream once and replay it in every design cell (identical results; disable to re-generate per cell)")
	traceDir := flag.String("trace-dir", "", "directory for packed .m3dtrace recordings, reused across runs (created if missing)")
	warmCache := flag.Bool("warm-cache", true, "capture the sampled per-core warmup once per (benchmark, topology, geometry) and restore it in every other design cell (identical results; implies nothing without -sample)")
	warmDir := flag.String("warm-dir", "", "directory for .m3dwarm warm-state snapshots, reused across runs (created if missing)")
	workers := flag.Int("j", 0, "worker count for the design sweep (0 = GOMAXPROCS); results are identical at any value")
	keepGoing := flag.Bool("keep-going", false, "complete the sweep when cells fail; failed cells print ERR and the exit code is 1")
	journalDir := flag.String("journal-dir", "", "checkpoint completed sweep cells to this write-ahead journal directory; a re-run with the same sizing resumes from it bit-identically (created if missing)")
	retries := flag.Int("retries", 1, "attempts per sweep cell; transient failures (panics, timeouts) retry with jittered exponential backoff")
	taskTimeout := flag.Duration("task-timeout", 0, "per-cell attempt deadline (0 = unbounded); timed-out cells count as failed (and retry under -retries > 1)")
	sweepTimeout := flag.Duration("sweep-timeout", 0, "whole-sweep deadline (0 = unbounded); undispatched cells report which deadline cut them off")
	sample := flag.Bool("sample", false, "fast-forward per-core warmup functionally (caches + predictor only); measured phases stay detailed — per-phase budgets are too small to sample soundly over a shared memory system")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a pprof allocation profile to this file on exit")
	flag.Parse()
	parallel.SetDefaultWorkers(*workers)

	if *instrs == 0 {
		return usageErr("-instrs must be > 0")
	}
	if *warmup == 0 {
		return usageErr("-warmup must be > 0")
	}
	if *phases <= 0 {
		return usageErr("-phases must be > 0")
	}
	prof, err := workload.ByName(*bench)
	if err != nil {
		return usageErr(err.Error())
	}
	if err := trace.SetCacheDir(*traceDir); err != nil {
		return usageErr(err.Error())
	}
	if err := warm.SetCacheDir(*warmDir); err != nil {
		return usageErr(err.Error())
	}
	stopProf, err := profutil.Start(*cpuprofile, *memprofile)
	if err != nil {
		return usageErr(err.Error())
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "mcsim:", err)
		}
	}()

	// First SIGINT/SIGTERM stops dispatching cells and drains in-flight
	// work (flushing the journal); a second one force-exits. An
	// interrupted run exits 130 so scripts can distinguish it and resume.
	shut := shutdown.Install(context.Background(), shutdown.WithLog(func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "mcsim: "+format+"\n", args...)
	}))
	defer shut.Stop()

	suite, err := config.Derive(tech.N22())
	if err != nil {
		return fail(err)
	}
	opt := multicore.Options{TotalInstrs: *instrs, WarmupPerCore: *warmup, Phases: *phases,
		Seed: *seed, StreamBase: *streamBase, NoTraceCache: !*traceCache, WarmCache: *warmCache,
		Workers: *workers, KeepGoing: *keepGoing, Sample: *sample,
		Context:     shut.Context(),
		JournalDir:  *journalDir,
		TaskTimeout: *taskTimeout, SweepTimeout: *sweepTimeout,
		Retry:         parallel.Retry{Attempts: *retries},
		WatchdogGrace: 30 * time.Second,
		WatchdogLog: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "mcsim: "+format+"\n", args...)
		}}
	f, err := experiments.Fig9With(suite, []trace.Profile{prof}, opt)
	if err != nil {
		return shut.ExitCode(fail(err))
	}

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "design\tcores\tf(GHz)\ttime(µs)\tspeedup\tpower(W)\tenergy vs Base\thops\tinvs\tforwards")
	for _, d := range config.MulticoreDesigns() {
		mc := f.Configs[d]
		if f.Errors[prof.Name][d] != nil {
			fmt.Fprintf(tw, "%s\t%d\t%.2f\tERR\tERR\tERR\tERR\tERR\tERR\tERR\n", mc.Name, mc.Cores, mc.PerCore.FreqGHz)
			continue
		}
		r := f.Runs[prof.Name][d]
		fmt.Fprintf(tw, "%s\t%d\t%.2f\t%.1f\t%.2f\t%.1f\t%.2f\t%d\t%d\t%d\n",
			mc.Name, mc.Cores, mc.PerCore.FreqGHz,
			r.Seconds*1e6, f.Speedup[prof.Name][d], r.Energy.AvgWatts(), f.NormEnergy[prof.Name][d],
			r.MemStats.NoCHops, r.MemStats.Invalidations, r.MemStats.Forwards)
	}
	tw.Flush()
	if n := trace.CacheStats().SaveErrors; *traceDir != "" && n > 0 {
		fmt.Fprintf(os.Stderr, "mcsim: warning: %d trace recording(s) could not be saved to %s\n", n, *traceDir)
	}
	if n := warm.Stats().SaveErrors; *warmDir != "" && n > 0 {
		fmt.Fprintf(os.Stderr, "mcsim: warning: %d warm snapshot(s) could not be saved to %s\n", n, *warmDir)
	}
	if *journalDir != "" {
		experiments.RenderJournalStats(os.Stderr, f.Journal)
	}
	experiments.RenderHealth(os.Stderr, f.Health)
	if n := f.FailedCells(); n > 0 {
		fmt.Fprintf(os.Stderr, "mcsim: %d failed cell(s):\n", n)
		for _, d := range config.MulticoreDesigns() {
			if err := f.Errors[prof.Name][d]; err != nil {
				fmt.Fprintf(os.Stderr, "  %s/%s: [%s] %v\n", prof.Name, d, guard.Classify(err), err)
			}
		}
		return shut.ExitCode(1)
	}
	return shut.ExitCode(0)
}
