// Command coresim runs one benchmark on one (or every) single-core design
// and prints IPC, runtime, power and the event statistics — the per-cell
// view behind Figures 6 and 7.
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
	"vertical3d/internal/parallel"
	"vertical3d/internal/profutil"
	"vertical3d/internal/shutdown"
	"vertical3d/internal/tech"
	"vertical3d/internal/trace"
	"vertical3d/internal/uarch"
	"vertical3d/internal/warm"
	"vertical3d/internal/workload"
)

func usageErr(msg string) int {
	fmt.Fprintln(os.Stderr, "coresim:", msg)
	flag.Usage()
	return 2
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "coresim:", err)
	return 1
}

// main delegates to run so deferred profile flushes execute on every exit
// path before os.Exit.
func main() {
	os.Exit(run())
}

func run() int {
	bench := flag.String("bench", "Gamess", "benchmark name (see workload.Names)")
	warmup := flag.Uint64("warmup", 80_000, "warmup instructions")
	measure := flag.Uint64("measure", 200_000, "measured instructions")
	seed := flag.Int64("seed", 42, "trace seed")
	stream := flag.Int("stream", 0, "trace stream id (multicore core i uses stream i; pick a distinct id to avoid replaying a multicore per-core stream)")
	traceCache := flag.Bool("trace-cache", true, "record the instruction stream once and replay it in every design cell (identical results; disable to re-generate per cell)")
	traceDir := flag.String("trace-dir", "", "directory for packed .m3dtrace recordings, reused across runs (created if missing)")
	warmCache := flag.Bool("warm-cache", true, "checkpoint the sampled fast-forward once per (benchmark, geometry) and restore it in every other design cell (identical results; implies nothing without -sample)")
	warmDir := flag.String("warm-dir", "", "directory for .m3dwarm warm-state snapshots, reused across runs (created if missing)")
	workers := flag.Int("j", 0, "worker count for the design sweep (0 = GOMAXPROCS); results are identical at any value")
	keepGoing := flag.Bool("keep-going", false, "complete the sweep when cells fail; failed cells print ERR and the exit code is 1")
	journalDir := flag.String("journal-dir", "", "checkpoint completed sweep cells to this write-ahead journal directory; a re-run with the same sizing resumes from it bit-identically (created if missing)")
	retries := flag.Int("retries", 1, "attempts per sweep cell; transient failures (panics, timeouts) retry with jittered exponential backoff")
	taskTimeout := flag.Duration("task-timeout", 0, "per-cell attempt deadline (0 = unbounded); timed-out cells count as failed (and retry under -retries > 1)")
	sweepTimeout := flag.Duration("sweep-timeout", 0, "whole-sweep deadline (0 = unbounded); undispatched cells report which deadline cut them off")
	sample := flag.Bool("sample", false, "interval sampling: fast-forward/warm/measure phases per interval, extrapolated Stats (CPI error ≤2%; ≈3.5-10x faster); sampled cells journal separately from full cells")
	sampleInterval := flag.Uint64("sample-interval", 0, "sampling interval length in instructions (0 = default 100000); implies nothing without -sample")
	sampleWarmup := flag.Uint64("sample-warmup", 0, "detailed pipeline-warm instructions before each measured window (0 = default 1000)")
	sampleUnit := flag.Uint64("sample-unit", 0, "measured-window length in instructions (0 = default 4000)")
	sampleBudget := flag.Float64("sample-error-budget", 0, "warm-phase oracle bound for sampled cells: relative CPI deviation above this budget re-runs the cell under full simulation (0 = default 0.5, negative disables)")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a pprof allocation profile to this file on exit")
	list := flag.Bool("list", false, "list benchmarks and exit")
	flag.Parse()
	parallel.SetDefaultWorkers(*workers)

	if *list {
		for _, n := range workload.Names() {
			fmt.Println(n)
		}
		return 0
	}

	if *measure == 0 {
		return usageErr("-measure must be > 0")
	}
	sp, err := uarch.SampleParamsFrom(*sample, *sampleInterval, *sampleWarmup, *sampleUnit)
	if err != nil {
		return usageErr(err.Error())
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
			fmt.Fprintln(os.Stderr, "coresim:", err)
		}
	}()

	// First SIGINT/SIGTERM stops dispatching cells and drains in-flight
	// work (flushing the journal); a second one force-exits. An
	// interrupted run exits 130 so scripts can distinguish it and resume.
	shut := shutdown.Install(context.Background(), shutdown.WithLog(func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "coresim: "+format+"\n", args...)
	}))
	defer shut.Stop()

	suite, err := config.Derive(tech.N22())
	if err != nil {
		return fail(err)
	}
	opt := experiments.RunOptions{Warmup: *warmup, Measure: *measure, Seed: *seed,
		StreamID: *stream, NoTraceCache: !*traceCache, WarmCache: *warmCache,
		Workers: *workers, KeepGoing: *keepGoing,
		Sample: *sample, SampleParams: sp, SampleErrorBudget: *sampleBudget,
		Context:     shut.Context(),
		JournalDir:  *journalDir,
		TaskTimeout: *taskTimeout, SweepTimeout: *sweepTimeout,
		Retry:         parallel.Retry{Attempts: *retries},
		WatchdogGrace: 30 * time.Second,
		WatchdogLog: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "coresim: "+format+"\n", args...)
		}}
	f, err := experiments.Fig6With(suite, []trace.Profile{prof}, opt)
	if err != nil {
		return shut.ExitCode(fail(err))
	}

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "design\tf(GHz)\tIPC\ttime(µs)\tspeedup\tpower(W)\tenergy vs Base\tmispred%\tL1 load miss%")
	for _, d := range config.SingleCoreDesigns() {
		if f.Errors[prof.Name][d] != nil {
			fmt.Fprintf(tw, "%s\t%.2f\tERR\tERR\tERR\tERR\tERR\tERR\tERR\n", d, suite.Configs[d].FreqGHz)
			continue
		}
		r := f.Runs[prof.Name][d]
		lm := float64(r.Stats.LoadL1Misses) / float64(r.Stats.LoadL1Hits+r.Stats.LoadL1Misses) * 100
		fmt.Fprintf(tw, "%s\t%.2f\t%.2f\t%.1f\t%.2f\t%.1f\t%.2f\t%.1f\t%.1f\n",
			d, suite.Configs[d].FreqGHz, r.IPC, r.Seconds*1e6,
			f.Speedup[prof.Name][d], r.Energy.AvgWatts(), f.NormEnergy[prof.Name][d],
			r.Stats.MispredictRate()*100, lm)
	}
	tw.Flush()
	if n := trace.CacheStats().SaveErrors; *traceDir != "" && n > 0 {
		fmt.Fprintf(os.Stderr, "coresim: warning: %d trace recording(s) could not be saved to %s\n", n, *traceDir)
	}
	if n := warm.Stats().SaveErrors; *warmDir != "" && n > 0 {
		fmt.Fprintf(os.Stderr, "coresim: warning: %d warm snapshot(s) could not be saved to %s\n", n, *warmDir)
	}
	if *journalDir != "" {
		experiments.RenderJournalStats(os.Stderr, f.Journal)
	}
	experiments.RenderHealth(os.Stderr, f.Health)
	if n := f.FailedCells(); n > 0 {
		fmt.Fprintf(os.Stderr, "coresim: %d failed cell(s):\n", n)
		for _, d := range config.SingleCoreDesigns() {
			if err := f.Errors[prof.Name][d]; err != nil {
				fmt.Fprintf(os.Stderr, "  %s/%s: [%s] %v\n", prof.Name, d, guard.Classify(err), err)
			}
		}
		return shut.ExitCode(1)
	}
	return shut.ExitCode(0)
}
