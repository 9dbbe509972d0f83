// Package warm holds the state a sweep shares across its cells instead of
// recomputing per cell: the probe tapes of single-core cells (tape.go).
//
// The enabling observation is that what a functional warmup computes —
// cache tag/age lanes, branch-predictor tables, the store-forwarding ring,
// and every probe outcome along the way — depends only on (profile, seed,
// stream, cache + predictor geometry), never on a design's timing. A Fig6
// sweep runs designs that share all of those, so each single-core cell
// replays its geometry's probe tape, fast-forward included: a tape-fed
// core skips a stretch by summing the recorded outcomes, priced with its
// own fill latencies. Multicore cells share nothing here: coherent memory
// interleaves the cores' probes by timing, so each sampled multicore cell
// fast-forwards its own cores (Core.FastForward). Tapes never go to disk.
package warm

import (
	"errors"

	"vertical3d/internal/config"
	"vertical3d/internal/trace"
	"vertical3d/internal/uarch"
)

// Geometry is the microarchitectural state shape a tape depends on: the
// four cache organisations and the predictor/BTB/store-queue sizing. Two
// configs with equal Geometry produce byte-identical functional state and
// probe outcomes from the same stream — latencies, frequency and energy
// factors are deliberately absent. All fields are comparable, so Geometry
// can key the tape registry.
type Geometry struct {
	IL1, DL1, L2, L3 config.CacheParams

	PredTable int
	BTBSize   int
	BTBAssoc  int
	SQSize    int
}

// GeometryOf extracts the tape-relevant geometry of a configuration.
func GeometryOf(cfg config.Config) Geometry {
	p := cfg.Core
	return Geometry{
		IL1:       p.IL1,
		DL1:       p.DL1,
		L2:        p.L2,
		L3:        p.L3,
		PredTable: p.PredTable,
		BTBSize:   p.BTBSize,
		BTBAssoc:  p.BTBAssoc,
		SQSize:    p.SQSize,
	}
}

// Binding is what Bind returns. No single-core snapshot binding exists:
// sampled single-core cells fast-forward over their probe tape.
type Binding struct{}

// Bind is a no-op kept for callers outside this module that still
// recompose sampled cells over a live hierarchy; it always returns an
// error, and the core keeps fast-forwarding itself.
//
// Deprecated: single-core warm-state bindings were removed; do not call.
func Bind(*uarch.Core, *trace.Replayer, config.Config, uarch.SampleParams) (*Binding, error) {
	return nil, errors.New("warm: single-core snapshot bindings no longer exist")
}

// Counters is what Stats returns: the fields of the removed warm-state
// snapshot cache's telemetry that callers outside this module still read.
type Counters struct {
	Hits, Misses               uint64
	BuiltInstrs, SkippedInstrs uint64
}

// Stats is a no-op kept for callers outside this module that still report
// warm-state snapshot telemetry; it always returns zero Counters.
//
// Deprecated: the warm-state snapshot cache was removed; do not call.
func Stats() Counters { return Counters{} }
