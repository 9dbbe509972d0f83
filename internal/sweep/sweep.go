// Package sweep holds the environment every benchmark × design sweep runs
// in: its context, the worker pool's knobs, the checkpoint journal, the
// result cache and the trace and warm-state caches. The single-core
// (experiments.RunOptions) and multicore (multicore.Options) option types
// embed one Env, so each tier is declared, mapped onto the pool and
// opened in exactly one place.
package sweep

import (
	"context"
	"fmt"
	"time"

	"vertical3d/internal/journal"
	"vertical3d/internal/parallel"
	"vertical3d/internal/resultcache"
)

// Env is the sweep environment. No field changes a cell's result — the
// determinism contract makes each one merge-neutral or bit-identical — so
// only WarmCache, which changes the fast-forward path, joins a sweep's
// journal identity (defensively; see experiments.RunOptions.Identity).
type Env struct {
	// Context, when non-nil, bounds the whole sweep: cancelling it stops
	// dispatching new cells (in-flight cells drain) — the graceful-shutdown
	// path of the command-line binaries. Nil means context.Background().
	Context context.Context

	// Workers bounds the worker pool that fans out the sweep's
	// (benchmark × design) cells. 0 means parallel.DefaultWorkers().
	// Results are bit-identical at any worker count: every cell is an
	// independent simulation, and base-relative ratios are computed in a
	// second pass after the join.
	Workers int

	// KeepGoing completes the sweep even when individual cells fail or
	// panic: healthy cells are bit-identical to a fault-free run, failed
	// cells are recorded in the result's Errors map and rendered as ERR.
	// Without it the sweep fails fast on the lowest-index error.
	KeepGoing bool

	// TaskTimeout bounds each cell attempt and SweepTimeout the whole
	// sweep; zero means unbounded. Retry re-runs transiently failed cells
	// (panics, timeouts) with jittered exponential backoff; the zero value
	// runs every cell exactly once.
	TaskTimeout  time.Duration
	SweepTimeout time.Duration
	Retry        parallel.Retry

	// WatchdogGrace and WatchdogLog arm the pool's stuck-cell watchdog:
	// cells still running WatchdogGrace past their TaskTimeout are reported
	// to WatchdogLog once per attempt.
	WatchdogGrace time.Duration
	WatchdogLog   func(format string, args ...any)

	// CellHook, when non-nil, is invoked at the start of every cell that
	// reaches the simulator (never for cache or journal serves) with the
	// cell's coordinates. It is the m3dd daemon's progress seam and the
	// chaos tests' fault-injection seam (guard/faultinject).
	CellHook func(bench, design string)

	// JournalDir enables crash-safe checkpointing: every completed cell is
	// appended to a write-ahead journal in this directory the moment it
	// finishes, and a re-run with the same directory and sizing merges the
	// journaled results bit-identically instead of re-executing them. Empty
	// disables journaling. See the journal package for the format and the
	// identity rules.
	JournalDir string

	// Cache, when non-nil, adds the content-addressed result-cache tier in
	// front of the journal: each cell consults cache → journal → simulate,
	// and concurrent identical cells coalesce onto one simulation. Nil —
	// the default for the one-shot command-line runs — skips the tier; the
	// m3dd daemon installs a process-wide cache here. See
	// internal/resultcache.
	Cache *resultcache.Cache

	// NoTraceCache disables the shared trace recordings and probe tapes:
	// every cell generates its own instruction stream and probes a memory
	// hierarchy of its own, as the pipeline behaved before
	// record-once/replay-many. Results are bit-identical either way; the
	// flag exists for differential debugging, and its cells are the
	// reference the shared paths are tested against.
	NoTraceCache bool

	// WarmCache enables the warm-state snapshot cache for sampled
	// multicore cells: the functional warmup of each multicore identity is
	// captured once and every other cell restores it instead of re-warming
	// (see internal/warm). Results are bit-identical either way. It is
	// ignored without sampling, with NoTraceCache (snapshots need
	// replayer-backed streams) and by single-core cells, which fast-forward
	// over their probe tapes.
	WarmCache bool
}

// Ctx returns the sweep context (Background when unset).
func (e Env) Ctx() context.Context {
	if e.Context != nil {
		return e.Context
	}
	return context.Background()
}

// Pool maps the environment onto the sweep worker pool.
func (e Env) Pool() parallel.Pool {
	return parallel.Pool{
		Workers:       e.Workers,
		TaskTimeout:   e.TaskTimeout,
		SweepTimeout:  e.SweepTimeout,
		Retry:         e.Retry,
		WatchdogGrace: e.WatchdogGrace,
		WatchdogLog:   e.WatchdogLog,
	}
}

// OpenJournal opens the sweep's checkpoint journal under id, or returns a
// nil (inert) journal when JournalDir is empty. A journal that cannot open
// (read-only directory, full disk, unreadable entries) downgrades the
// sweep to unjournaled execution instead of aborting it: degrade receives
// the cause and the sweep runs with a nil journal. Results stay
// bit-identical; only crash-resumability is lost.
func (e Env) OpenJournal(id journal.Identity, degrade func(error)) *journal.Journal {
	if e.JournalDir == "" {
		return nil
	}
	j, err := journal.Open(e.JournalDir, id)
	if err != nil {
		degrade(fmt.Errorf("%s: %w", id.Experiment, err))
		return nil
	}
	return j
}
