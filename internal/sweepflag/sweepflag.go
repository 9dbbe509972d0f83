// Package sweepflag registers the command-line flags the sweep commands
// share — m3dcli, coresim, mcsim, m3dd and sramstudy — once, with one
// name, default and help text each. It decodes them into a sweep.Env,
// applies their process-wide settings (the default worker count and the
// trace and warm cache directories), and prints the end-of-run report the
// batch commands end with.
package sweepflag

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"vertical3d/internal/experiments"
	"vertical3d/internal/journal"
	"vertical3d/internal/parallel"
	"vertical3d/internal/sweep"
	"vertical3d/internal/trace"
	"vertical3d/internal/uarch"
	"vertical3d/internal/warm"
)

// Group selects a set of shared flags; a command registers the union of
// the groups it accepts.
type Group uint

const (
	Workers      Group = 1 << iota // -j
	Journal                        // -journal-dir
	Retries                        // -retries
	KeepGoing                      // -keep-going
	Deadlines                      // -task-timeout, -sweep-timeout
	CacheDirs                      // -trace-dir, -warm-dir
	Caches                         // -trace-cache, -warm-cache
	Sample                         // -sample
	SampleParams                   // -sample-interval, -sample-warmup, -sample-unit, -sample-error-budget

	// Batch is the flag set of the one-shot simulation commands.
	Batch = Workers | Journal | Retries | KeepGoing | Deadlines | CacheDirs | Caches | Sample
)

// watchdogGrace is how far past its -task-timeout a cell may run before
// the pool's watchdog reports it as stuck.
const watchdogGrace = 30 * time.Second

// Flags holds the parsed values of the shared flags. A flag whose group
// was not registered keeps its default.
type Flags struct {
	name string // command name, prefixing log lines

	workers, retries           int
	keepGoing                  bool
	taskTimeout, sweepTimeout  time.Duration
	journalDir                 string
	traceDir, warmDir          string
	traceCache, warmCache      bool
	sample                     bool
	interval, sampleWarm, unit uint64
	budget                     float64
	sampleParams               uarch.SampleParams
}

// Register adds the flags of groups to fs for the command name.
func Register(fs *flag.FlagSet, name string, groups Group) *Flags {
	f := &Flags{name: name, retries: 1, traceCache: true, warmCache: true}
	if groups&Workers != 0 {
		fs.IntVar(&f.workers, "j", 0, "worker count per sweep (0 = GOMAXPROCS); results are identical at any value")
	}
	if groups&Journal != 0 {
		fs.StringVar(&f.journalDir, "journal-dir", "", "checkpoint completed sweep cells to this write-ahead journal directory; a re-run with the same sizing resumes from it bit-identically, and an unusable directory degrades to unjournaled execution (created if missing)")
	}
	if groups&Retries != 0 {
		fs.IntVar(&f.retries, "retries", 1, "attempts per sweep cell; transient failures (panics, timeouts) retry with jittered exponential backoff")
	}
	if groups&KeepGoing != 0 {
		fs.BoolVar(&f.keepGoing, "keep-going", false, "complete sweeps when cells fail; failed cells render as ERR and the exit code is 1")
	}
	if groups&Deadlines != 0 {
		fs.DurationVar(&f.taskTimeout, "task-timeout", 0, "per-cell attempt deadline (0 = unbounded); timed-out cells count as failed (and retry under -retries > 1)")
		fs.DurationVar(&f.sweepTimeout, "sweep-timeout", 0, "whole-sweep deadline (0 = unbounded); undispatched cells report which deadline cut them off")
	}
	if groups&CacheDirs != 0 {
		fs.StringVar(&f.traceDir, "trace-dir", "", "directory for packed .m3dtrace recordings, reused across runs (created if missing)")
		fs.StringVar(&f.warmDir, "warm-dir", "", "directory for .m3dwarm multicore warm-state snapshots, reused across runs (created if missing)")
	}
	if groups&Caches != 0 {
		fs.BoolVar(&f.traceCache, "trace-cache", true, "record each workload's instruction stream once and replay it in every sweep cell (identical results; disable to re-generate per cell)")
		fs.BoolVar(&f.warmCache, "warm-cache", true, "capture a sampled multicore warmup once per (benchmark, topology, geometry) and restore it in every other sweep cell (identical results; implies nothing without -sample or for single-core sweeps)")
	}
	if groups&Sample != 0 {
		fs.BoolVar(&f.sample, "sample", false, "interval sampling for single-core sweeps (CPI error ≤2%; ≈3.5-10x faster); multicore sweeps fast-forward warmup only. Sampled cells journal separately from full cells")
	}
	if groups&SampleParams != 0 {
		fs.Uint64Var(&f.interval, "sample-interval", 0, "sampling interval length in instructions (0 = default 100000); implies nothing without -sample")
		fs.Uint64Var(&f.sampleWarm, "sample-warmup", 0, "detailed pipeline-warm instructions before each measured window (0 = default 1000)")
		fs.Uint64Var(&f.unit, "sample-unit", 0, "measured-window length in instructions (0 = default 4000)")
		fs.Float64Var(&f.budget, "sample-error-budget", 0, "warm-phase oracle bound for sampled cells: relative CPI deviation above this budget re-runs the cell under full simulation (0 = default 0.5, negative disables)")
	}
	return f
}

// Env applies the process-wide settings of the parsed flags — the default
// worker count and the trace and warm cache directories, created if
// missing — validates the sampling flags, and returns the sweep
// environment the flags describe. The caller sets Context. An error is a
// usage error.
func (f *Flags) Env() (sweep.Env, error) {
	parallel.SetDefaultWorkers(f.workers)
	if err := trace.SetCacheDir(f.traceDir); err != nil {
		return sweep.Env{}, fmt.Errorf("-trace-dir: %w", err)
	}
	if err := warm.SetCacheDir(f.warmDir); err != nil {
		return sweep.Env{}, fmt.Errorf("-warm-dir: %w", err)
	}
	sp, err := uarch.SampleParamsFrom(f.sample, f.interval, f.sampleWarm, f.unit)
	if err != nil {
		return sweep.Env{}, err
	}
	f.sampleParams = sp
	return sweep.Env{
		Workers:       f.workers,
		KeepGoing:     f.keepGoing,
		TaskTimeout:   f.taskTimeout,
		SweepTimeout:  f.sweepTimeout,
		Retry:         parallel.Retry{Attempts: f.retries},
		WatchdogGrace: watchdogGrace,
		WatchdogLog:   f.Logf,
		JournalDir:    f.journalDir,
		NoTraceCache:  !f.traceCache,
		WarmCache:     f.warmCache,
	}, nil
}

// Logf writes one line to stderr, prefixed with the command name.
func (f *Flags) Logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, f.name+": "+format+"\n", args...)
}

// Sampled reports whether -sample is set.
func (f *Flags) Sampled() bool { return f.sample }

// Sampling copies the sampling flags onto single-core run options: Sample,
// the interval geometry validated by Env, and the oracle budget.
func (f *Flags) Sampling(opt *experiments.RunOptions) {
	opt.Sample = f.sample
	opt.SampleParams = f.sampleParams
	opt.SampleErrorBudget = f.budget
}

// Sweep is what the end-of-run report reads from one sweep a command ran.
type Sweep struct {
	Journal journal.Stats
	Health  experiments.Health
}

// Report writes the end-of-run report: a warning when trace recordings or
// warm snapshots could not be saved to their directories, each journaled
// sweep's resume summary, then each sweep's degradation report. It is
// quiet for a clean, unjournaled run.
func (f *Flags) Report(w io.Writer, sweeps ...Sweep) {
	if n := trace.CacheStats().SaveErrors; f.traceDir != "" && n > 0 {
		fmt.Fprintf(w, "%s: warning: %d trace recording(s) could not be saved to %s\n", f.name, n, f.traceDir)
	}
	if n := warm.Stats().SaveErrors; f.warmDir != "" && n > 0 {
		fmt.Fprintf(w, "%s: warning: %d warm snapshot(s) could not be saved to %s\n", f.name, n, f.warmDir)
	}
	for _, s := range sweeps {
		experiments.RenderJournalStats(w, s.Journal)
	}
	for _, s := range sweeps {
		experiments.RenderHealth(w, s.Health)
	}
}
