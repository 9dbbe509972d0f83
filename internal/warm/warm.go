// Package warm is the warm-state snapshot cache of sampled simulation: it
// checkpoints the functional fast-forward once per identity and lets every
// other sweep cell restore the checkpoint instead of re-warming the same
// stream.
//
// The enabling observation is that everything the fast-forward phase
// computes — cache tag/age lanes, branch-predictor tables, the
// store-forwarding ring — depends only on (profile, seed, stream, cache +
// predictor geometry), never on a design's timing. A Fig6 sweep runs
// dozens of designs that share all of those, so before this cache each
// cell recomputed byte-identical state. The one design-DEPENDENT quantity
// a fast-forward produces, the extra-latency sums the sampling estimator
// regresses on, is reconstructed exactly per cell: snapshots carry
// design-independent per-level miss counts (uarch.WarmObs.FetchFills /
// DataFills) and each cell prices them with its own fill latencies, so a
// snapshot-served cell's estimator inputs are bit-identical to a
// self-warmed cell's.
//
// Architecture: per Identity a Ladder owns a standalone builder warmer
// that advances monotonically through the stream, snapshotting at every
// stride boundary (stride = Interval/32, so a restore leaves at most a
// thirty-second of an interval of residual local warming). Cells reach
// the ladder through a single-flight registry (Shared) and a FastForward
// hook on the core (Bind): each fast-forward restores the deepest
// checkpoint at or below its target, credits the skipped stretch's
// observables, and warms the residual locally. Checkpoints are
// deep-copied on capture and on restore, so concurrent cells never alias
// shared state.
//
// With a cache directory configured (SetCacheDir, -warm-dir), boundary
// checkpoints persist as CRC32-framed .m3dwarm files written atomically
// through the internal/fsio seam; corrupt or foreign files are
// quarantined and the checkpoint is rebuilt — the same degrade-don't-die
// ladder as the trace and journal layers, surfaced in the sweep Health
// block.
package warm

import (
	"vertical3d/internal/config"
	"vertical3d/internal/trace"
	"vertical3d/internal/uarch"
)

// Geometry is the microarchitectural state shape a snapshot depends on:
// the four cache organisations and the predictor/BTB/store-queue sizing.
// Two configs with equal Geometry produce byte-identical functional state
// from the same stream — latencies, frequency and energy factors are
// deliberately absent. All fields are comparable, so Geometry can key the
// snapshot registry.
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

// Identity keys one single-core snapshot ladder: the stream identity, the
// state geometry and the sampling geometry (which sets the checkpoint
// stride). Everything else — per-design latencies, worker counts, journal
// settings — is excluded, which is exactly what lets one ladder serve
// every design of a sweep.
type Identity struct {
	Prof   trace.Profile
	Seed   int64
	Stream int
	Sample uarch.SampleParams
	Geom   Geometry
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
