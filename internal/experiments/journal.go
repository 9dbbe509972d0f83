package experiments

import (
	"fmt"
	"io"

	"vertical3d/internal/journal"
	"vertical3d/internal/multicore"
)

// This file is the glue between the sweeps and the crash-safety layers:
// it maps run options onto a per-sweep write-ahead journal identity (see
// the journal package; sweep.Env opens the journal and maps the pool).
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

// Identity canonicalises the sweep definition: the experiment name plus
// every sizing parameter that changes cell results. It is the content
// address of the journal layer (segment identity headers), the result
// cache, and m3dd's admission control (resultcache.KnownCells), so a
// cached cell, a journaled cell and a queued job agree on what "the same
// sweep" means by construction.
func (opt RunOptions) Identity(experiment string) journal.Identity {
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
		// The snapshot cache joined the identity defensively when sampled
		// single-core cells could restore warm snapshots. They no longer
		// do — every sampled cell fast-forwards itself, bit-identically —
		// but the pair stays so existing sampled journals keep resuming.
		if opt.WarmCache && !opt.NoTraceCache {
			kv = append(kv, "warm", "snapshot")
		}
	}
	return journal.Identity{Experiment: experiment, Params: journal.Params(kv...)}
}

// MCIdentity canonicalises a multicore sweep definition, pinning every
// Options field that changes cell results; Lockstep is included because it
// changes the shared-memory interleaving and thus the contention
// statistics. Shared by the journal, the result cache and m3dd's
// admission control like RunOptions.Identity.
func MCIdentity(opt multicore.Options, experiment string) journal.Identity {
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
