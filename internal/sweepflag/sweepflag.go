// Package sweepflag registers the command-line flags the sweep commands
// share — m3dcli, coresim, mcsim, m3dd and sramstudy — once, with one
// name, default and help text each. It decodes them into a sweep.Env,
// applies their process-wide setting (the default worker count), and
// prints the end-of-run report the batch commands end with.
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
	"vertical3d/internal/uarch"
)

// Group selects a set of shared flags; a command registers the union of
// the groups it accepts.
type Group uint

const (
	Workers      Group = 1 << iota // -j
	Journal                        // -journal-dir
	Retries                        // -retries
	KeepGoing                      // -keep-going
	Deadlines                      // -sweep-timeout
	Caches                         // -trace-cache
	Sample                         // -sample
	SampleParams                   // -sample-interval, -sample-warmup, -sample-unit, -sample-error-budget

	// Batch is the flag set of the one-shot simulation commands.
	Batch = Workers | Journal | Retries | KeepGoing | Deadlines | Caches | Sample
)

// Flags holds the parsed values of the shared flags. A flag whose group
// was not registered keeps its default.
type Flags struct {
	name string // command name, prefixing log lines

	workers, retries           int
	keepGoing                  bool
	sweepTimeout               time.Duration
	journalDir                 string
	traceCache                 bool
	sample                     bool
	interval, sampleWarm, unit uint64
	budget                     float64
	sampleParams               uarch.SampleParams
}

// Register adds the flags of groups to fs for the command name.
func Register(fs *flag.FlagSet, name string, groups Group) *Flags {
	f := &Flags{name: name, retries: 1, traceCache: true}
	if groups&Workers != 0 {
		fs.IntVar(&f.workers, "j", 0, "worker count per sweep (0 = GOMAXPROCS); results are identical at any value")
	}
	if groups&Journal != 0 {
		fs.StringVar(&f.journalDir, "journal-dir", "", "checkpoint completed sweep cells to this write-ahead journal directory; a re-run with the same sizing resumes from it bit-identically, and an unusable directory degrades to unjournaled execution (created if missing)")
	}
	if groups&Retries != 0 {
		fs.IntVar(&f.retries, "retries", 1, "attempts per sweep cell; a cell that panics retries with jittered exponential backoff")
	}
	if groups&KeepGoing != 0 {
		fs.BoolVar(&f.keepGoing, "keep-going", false, "complete sweeps when cells fail; failed cells render as ERR and the exit code is 1")
	}
	if groups&Deadlines != 0 {
		fs.DurationVar(&f.sweepTimeout, "sweep-timeout", 0, "whole-sweep deadline (0 = unbounded); undispatched cells report which deadline cut them off")
	}
	if groups&Caches != 0 {
		fs.BoolVar(&f.traceCache, "trace-cache", true, "share instruction streams across sweep cells: single-core cells replay one probe tape per workload and memory geometry, multicore cells one recording per core stream (identical results; disable to re-generate per cell)")
	}
	if groups&Sample != 0 {
		fs.BoolVar(&f.sample, "sample", false, "interval sampling for single-core sweeps (≈3.5-10x faster; CPI error about 2.4% at worst in BENCH_sample.json); multicore sweeps fast-forward warmup only. Sampled cells journal separately from full cells")
	}
	if groups&SampleParams != 0 {
		fs.Uint64Var(&f.interval, "sample-interval", 0, "sampling interval length in instructions (0 = default 100000); implies nothing without -sample")
		fs.Uint64Var(&f.sampleWarm, "sample-warmup", 0, "detailed pipeline-warm instructions before each measured window (0 = default 1000)")
		fs.Uint64Var(&f.unit, "sample-unit", 0, "measured-window length in instructions (0 = default 4000)")
		fs.Float64Var(&f.budget, "sample-error-budget", 0, "warm-phase oracle bound for sampled cells: relative CPI deviation above this budget re-runs the cell under full simulation (0 = default 0.5, negative disables)")
	}
	return f
}

// Env applies the process-wide setting of the parsed flags — the default
// worker count — validates the sampling flags, and returns the sweep
// environment the flags describe. The caller sets Context. An error is a
// usage error.
func (f *Flags) Env() (sweep.Env, error) {
	parallel.SetDefaultWorkers(f.workers)
	sp, err := uarch.SampleParamsFrom(f.sample, f.interval, f.sampleWarm, f.unit)
	if err != nil {
		return sweep.Env{}, err
	}
	f.sampleParams = sp
	return sweep.Env{
		Workers:      f.workers,
		KeepGoing:    f.keepGoing,
		SweepTimeout: f.sweepTimeout,
		Retry:        parallel.Retry{Attempts: f.retries},
		JournalDir:   f.journalDir,
		NoTraceCache: !f.traceCache,
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

// Report writes the end-of-run report: each journaled sweep's resume
// summary, then each sweep's degradation report. It is quiet for a clean,
// unjournaled run.
func (f *Flags) Report(w io.Writer, sweeps ...Sweep) {
	for _, s := range sweeps {
		experiments.RenderJournalStats(w, s.Journal)
	}
	for _, s := range sweeps {
		experiments.RenderHealth(w, s.Health)
	}
}
