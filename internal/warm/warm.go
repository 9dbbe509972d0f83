// Package warm holds the state a sweep shares across its cells instead of
// recomputing per cell: probe tapes for single-core cells (tape.go) and
// warm-state snapshots for multicore cells (mc.go).
//
// The enabling observation is that what a functional warmup computes —
// cache tag/age lanes, branch-predictor tables, the store-forwarding ring,
// and every probe outcome along the way — depends only on (profile, seed,
// stream, cache + predictor geometry), never on a design's timing. A Fig6
// sweep runs designs that share all of those, so each single-core cell
// replays its geometry's probe tape, fast-forward included: a tape-fed
// core skips a stretch by summing the recorded outcomes, priced with its
// own fill latencies. A multicore run has one functional warmup per
// identity, captured once and restored into every other design cell.
//
// With a cache directory configured (SetCacheDir, -warm-dir), multicore
// snapshots persist as CRC32-framed .m3dwarm files written atomically
// through the internal/fsio seam; corrupt or foreign files are
// quarantined and the snapshot is rebuilt — the same degrade-don't-die
// ladder as the trace and journal layers, surfaced in the sweep Health
// block. Tapes never go to disk.
package warm

import (
	"errors"

	"vertical3d/internal/config"
	"vertical3d/internal/trace"
	"vertical3d/internal/uarch"
)

// Geometry is the microarchitectural state shape a tape or snapshot
// depends on: the four cache organisations and the
// predictor/BTB/store-queue sizing. Two configs with equal Geometry
// produce byte-identical functional state and probe outcomes from the same
// stream — latencies, frequency and energy factors are deliberately
// absent. All fields are comparable, so Geometry can key the registries.
type Geometry struct {
	IL1, DL1, L2, L3 config.CacheParams

	PredTable int
	BTBSize   int
	BTBAssoc  int
	SQSize    int
}

// GeometryOf extracts the snapshot-relevant geometry of a configuration.
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

// MCIdentity keys one multicore warmup snapshot: per-core streams are
// StreamBase+i, the topology (core count, L2 sharing) shapes the shared
// memory state, and Warmup is the per-core functional warmup distance the
// snapshot stands for. RouterHopCycles is excluded — NoC timing prices
// hops but never changes which lines are where.
type MCIdentity struct {
	Prof       trace.Profile
	Seed       int64
	StreamBase int
	Cores      int
	SharedL2   bool
	Warmup     uint64
	Geom       Geometry
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
