package experiments

// This file is the bookkeeping side of the degradation ladder. The sweeps
// follow a degrade-don't-die discipline when a dependency turns hostile:
//
//	journal layer   a journal that cannot open or append switches the
//	                sweep to unjournaled execution (the journal package
//	                quarantines the bad segment); results are complete but
//	                not crash-resumable;
//	sample layer    a sampled cell whose warm-phase oracle check exceeds
//	                the error budget re-runs under full simulation —
//	                slower, but exact.
//
// Every rung taken is recorded as a DegradationEvent in the result's
// Health block, so an operator (or a service scraping the JSON) can tell a
// clean run from a survived one without diffing logs.

import (
	"fmt"
	"io"
	"sync"

	"vertical3d/internal/journal"
)

// DefaultSampleErrorBudget is the calibrated warm-phase oracle bound for
// sampled cells: the maximum relative deviation between warm-phase CPI
// and measured CPI before a cell falls back to full simulation. Across
// the full SPEC-like suite × every single-core design at the default
// sizing, healthy deviations reach 0.40 (the warm phase carries the
// pipeline-refill ramp), so 0.5 never triggers on a healthy profile while
// still catching sampling geometries that have genuinely lost the
// workload's phase behaviour.
const DefaultSampleErrorBudget = 0.5

// DegradationEvent is one rung of the ladder a sweep stepped down.
type DegradationEvent struct {
	// Layer is the subsystem that degraded: "journal", "sample" or "fig8"
	// (thermal rows dropped over failed source cells).
	Layer string `json:"layer"`
	// Cell is the "<benchmark>/<design>" coordinates for per-cell events,
	// empty for sweep-wide ones.
	Cell string `json:"cell,omitempty"`
	// Action is what the sweep did instead of dying.
	Action string `json:"action"`
	// Cause is the underlying error, stringified so the block marshals.
	Cause string `json:"cause,omitempty"`
}

// Health is the machine-readable degradation report of a sweep: Degraded
// is false exactly when the run needed no ladder rung, in which case
// Events is empty. Healthy cells of a degraded sweep remain bit-identical
// to an undegraded run — the ladder changes durability and speed, never
// results.
type Health struct {
	Degraded bool               `json:"degraded"`
	Events   []DegradationEvent `json:"events,omitempty"`
}

// healthRecorder collects degradation events from concurrent sweep cells.
// A nil recorder discards, so code paths shared with recorder-less callers
// need no guards.
type healthRecorder struct {
	mu     sync.Mutex
	events []DegradationEvent
}

// add records one event; cause may be nil.
func (h *healthRecorder) add(layer, cell, action string, cause error) {
	if h == nil {
		return
	}
	ev := DegradationEvent{Layer: layer, Cell: cell, Action: action}
	if cause != nil {
		ev.Cause = cause.Error()
	}
	h.mu.Lock()
	h.events = append(h.events, ev)
	h.mu.Unlock()
}

// health snapshots the collected events into a Health block.
func (h *healthRecorder) health() Health {
	if h == nil {
		return Health{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	out := Health{Degraded: len(h.events) > 0}
	out.Events = append(out.Events, h.events...)
	return out
}

// journalHealth converts a finished sweep's journal counters into ladder
// events: load-time quarantines and the append-failure downgrade.
func journalHealth(h *healthRecorder, jn *journal.Journal) {
	s := jn.Stats()
	cause := jn.DegradedCause()
	if s.Degraded {
		// One quarantine belongs to the degrade itself (the active
		// segment); report it inside the downgrade event.
		h.add("journal", "", "switched to unjournaled execution, active segment quarantined", cause)
		s.Quarantined--
	}
	if s.Quarantined > 0 {
		h.add("journal", "",
			fmt.Sprintf("quarantined %d corrupt segment(s) on load", s.Quarantined), nil)
	}
}

// RenderHealth writes the degradation report below a sweep's tables;
// quiet on a healthy run. One line per event, prefixed with the layer, so
// "what did the run survive" reads at a glance.
func RenderHealth(w io.Writer, h Health) {
	if !h.Degraded {
		return
	}
	fmt.Fprintf(w, "degraded: %d downgrade(s) — results complete, durability or speed reduced:\n", len(h.Events))
	for _, e := range h.Events {
		fmt.Fprintf(w, "  [%s]", e.Layer)
		if e.Cell != "" {
			fmt.Fprintf(w, " %s:", e.Cell)
		}
		fmt.Fprintf(w, " %s", e.Action)
		if e.Cause != "" {
			fmt.Fprintf(w, ": %s", e.Cause)
		}
		fmt.Fprintln(w)
	}
}
