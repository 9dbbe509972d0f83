package experiments

import (
	"context"
	"fmt"
	"io"

	"vertical3d/internal/journal"
	"vertical3d/internal/multicore"
	"vertical3d/internal/parallel"
)

// This file is the glue between the sweeps and the crash-safety layers:
// it maps run options onto the worker pool's retry/timeout/watchdog knobs
// and onto a per-sweep write-ahead journal (see the journal package).
//
// The journaling contract every sweep follows:
//
//   - the journal identity pins the experiment name and every sizing
//     parameter that changes cell results (warmup, measure, seed, stream,
//     kernel) — but never the worker count, design order or KeepGoing,
//     which are merge-neutral by the pipeline's determinism contract;
//   - each cell's key fingerprints the full input tuple (profile contents
//     and derived configuration), so an edited profile or derivation
//     quietly invalidates stale entries;
//   - Lookup happens before the cell's CellHook and simulation, so a
//     journal hit skips the cell entirely — the Hits counter is the
//     resume oracle's witness that nothing was re-executed;
//   - only successful cells are recorded: failed cells stay un-journaled
//     and are re-attempted by the next run.

// ctx returns the sweep context (Background when unset).
func (opt RunOptions) ctx() context.Context {
	if opt.Context != nil {
		return opt.Context
	}
	return context.Background()
}

// pool maps the options onto the sweep worker pool.
func (opt RunOptions) pool() parallel.Pool {
	return parallel.Pool{
		Workers:       opt.Workers,
		TaskTimeout:   opt.TaskTimeout,
		SweepTimeout:  opt.SweepTimeout,
		Retry:         opt.Retry,
		WatchdogGrace: opt.WatchdogGrace,
		WatchdogLog:   opt.WatchdogLog,
	}
}

// identity canonicalises the sweep definition: the experiment name plus
// every sizing parameter that changes cell results. It is shared by the
// journal layer (segment identity headers) and the result cache (content
// addresses), so a cached cell and a journaled cell agree on what "the
// same sweep" means by construction.
func (opt RunOptions) identity(experiment string) journal.Identity {
	kv := []string{
		"warmup", fmt.Sprint(opt.Warmup),
		"measure", fmt.Sprint(opt.Measure),
		"seed", fmt.Sprint(opt.Seed),
		"stream", fmt.Sprint(opt.StreamID),
		"kernel", opt.Kernel.String(),
		// Full-simulation counters cover the measure window only; journals
		// written when some of them still included the warmup lack this
		// pair and are never merged. Sampled sweeps carry it too, for their
		// cells that fall back to full simulation.
		"counters", "window",
	}
	// Sampling joins the identity tuple only when enabled: full-run
	// journals keep their historical identity, and a sampled sweep can
	// never resume from — or poison — a full sweep's journal (and vice
	// versa), because their identities always differ. The error budget is
	// part of the identity because it decides which cells fall back to
	// full simulation, and fallback cells' results differ from sampled
	// ones.
	if opt.Sample {
		kv = append(kv, "sample", opt.sampleParams().String())
		if b := opt.sampleBudget(); b > 0 {
			kv = append(kv, "budget", fmt.Sprint(b))
		}
		// The snapshot cache joins the identity defensively: its results
		// are proven bit-identical to snapshot-off runs, but pinning it
		// means a resume can never mix cells from runs that took different
		// fast-forward paths.
		if opt.WarmCache && !opt.NoTraceCache {
			kv = append(kv, "warm", "snapshot")
		}
	}
	return journal.Identity{Experiment: experiment, Params: journal.Params(kv...)}
}

// openJournal opens the sweep's checkpoint journal, or returns a nil
// (inert) journal when JournalDir is empty.
func (opt RunOptions) openJournal(experiment string) (*journal.Journal, error) {
	if opt.JournalDir == "" {
		return nil, nil
	}
	j, err := journal.Open(opt.JournalDir, opt.identity(experiment))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", experiment, err)
	}
	return j, nil
}

// openJournalHealth is openJournal on the degradation ladder: a journal
// that cannot open (read-only directory, full disk, unreadable entries)
// downgrades the sweep to unjournaled execution — recorded as a ladder
// event — instead of aborting it. Results stay bit-identical; only
// crash-resumability is lost.
func (opt RunOptions) openJournalHealth(experiment string, h *healthRecorder) *journal.Journal {
	jn, err := opt.openJournal(experiment)
	if err != nil {
		h.add("journal", "", "journaling disabled for this run (journal could not open)", err)
		return nil
	}
	return jn
}

// mcCtx returns a multicore sweep's context (Background when unset).
func mcCtx(opt multicore.Options) context.Context {
	if opt.Context != nil {
		return opt.Context
	}
	return context.Background()
}

// mcPool maps multicore options onto the sweep worker pool.
func mcPool(opt multicore.Options) parallel.Pool {
	return parallel.Pool{
		Workers:       opt.Workers,
		TaskTimeout:   opt.TaskTimeout,
		SweepTimeout:  opt.SweepTimeout,
		Retry:         opt.Retry,
		WatchdogGrace: opt.WatchdogGrace,
		WatchdogLog:   opt.WatchdogLog,
	}
}

// mcIdentity canonicalises a multicore sweep definition, pinning every
// Options field that changes cell results; Lockstep is included because it
// changes the shared-memory interleaving and thus the contention
// statistics. Shared by the journal and the result cache like
// RunOptions.identity.
func mcIdentity(opt multicore.Options, experiment string) journal.Identity {
	kv := []string{
		"instrs", fmt.Sprint(opt.TotalInstrs),
		"warmup", fmt.Sprint(opt.WarmupPerCore),
		"phases", fmt.Sprint(opt.Phases),
		"seed", fmt.Sprint(opt.Seed),
		"lockstep", fmt.Sprint(opt.Lockstep),
		"streambase", fmt.Sprint(opt.StreamBase),
		"kernel", opt.Kernel.String(),
	}
	// Functional warmup changes cache/predictor warmth, so it joins the
	// identity only when enabled — mirroring the single-core rule that
	// sampled and full journals can never mix.
	if opt.Sample {
		kv = append(kv, "sample", "warmup")
		if opt.WarmCache && !opt.NoTraceCache {
			kv = append(kv, "warm", "snapshot")
		}
	}
	return journal.Identity{Experiment: experiment, Params: journal.Params(kv...)}
}

// mcJournal opens a multicore sweep's checkpoint journal (nil when
// disabled).
func mcJournal(opt multicore.Options, experiment string) (*journal.Journal, error) {
	if opt.JournalDir == "" {
		return nil, nil
	}
	j, err := journal.Open(opt.JournalDir, mcIdentity(opt, experiment))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", experiment, err)
	}
	return j, nil
}

// mcJournalHealth is mcJournal on the degradation ladder (see
// openJournalHealth).
func mcJournalHealth(opt multicore.Options, experiment string, h *healthRecorder) *journal.Journal {
	jn, err := mcJournal(opt, experiment)
	if err != nil {
		h.add("journal", "", "journaling disabled for this run (journal could not open)", err)
		return nil
	}
	return jn
}

// RenderJournalStats writes a one-line resume summary when a sweep ran
// with a journal; quiet otherwise.
func RenderJournalStats(w io.Writer, s journal.Stats) {
	if s == (journal.Stats{}) {
		return
	}
	fmt.Fprintf(w, "journal: %d cell(s) resumed from %d segment(s), %d executed and checkpointed",
		s.Hits, s.Segments, s.Appends)
	if s.TornTails > 0 {
		fmt.Fprintf(w, ", %d torn tail(s) cut", s.TornTails)
	}
	if s.SkippedSegments > 0 {
		fmt.Fprintf(w, ", %d foreign segment(s) skipped", s.SkippedSegments)
	}
	if s.AppendErrors > 0 {
		fmt.Fprintf(w, ", %d append error(s)", s.AppendErrors)
	}
	if s.Quarantined > 0 {
		fmt.Fprintf(w, ", %d segment(s) quarantined", s.Quarantined)
	}
	if s.Degraded {
		fmt.Fprint(w, ", degraded to unjournaled execution")
	}
	fmt.Fprintln(w)
}
