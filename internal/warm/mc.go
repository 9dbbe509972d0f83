// Multicore warmup snapshots. A multicore run has exactly one functional
// fast-forward — the per-core warmup before the measured phases — so
// instead of a ladder it gets a single snapshot per MCIdentity: the first
// run warms every core, captures the shared memory system and all core
// functional states, and every later run with the same identity restores
// the capture instead of re-warming.
package warm

import (
	"vertical3d/internal/mem"
	"vertical3d/internal/uarch"
)

// mcSnapshot is the full warm state of one multicore warmup: the
// coherent memory system (caches, directory, NoC counters) plus each
// core's functional state at its post-warmup stream position.
type mcSnapshot struct {
	Mem   *mem.MCState
	Cores []uarch.CoreWarmState
}

// MCWarmup performs (or skips) the functional warmup of a multicore run.
// The first caller for an identity runs doWarm and captures the resulting
// state; later callers restore the capture into their own backend and
// cores. It never fails: whenever snapshotting or restoring is not
// possible — cores without replayer streams, a capture error, a refused
// restore — the caller's own doWarm runs and the simulation proceeds
// exactly as without the cache.
//
// Callers must pass freshly constructed cores and backend (zero clocks
// and statistics), doWarm must be the functional warmup (FastForward, not
// detailed Run — detailed state is deliberately not captured), and id
// must pin everything the warm state depends on: stream identities,
// topology, warmup distance and geometry.
func MCWarmup(id MCIdentity, backend *mem.Multicore, cores []*uarch.Core, doWarm func()) {
	if backend == nil || len(cores) != id.Cores || !mcEligible(cores) {
		doWarm()
		return
	}
	snap, first := mcSnaps.Do(id, func() *mcSnapshot {
		counters.misses.Add(1)
		if snap := mcLoadDisk(id); snap != nil {
			if mcRestore(backend, cores, snap) {
				counters.skippedInstrs.Add(uint64(len(cores)) * id.Warmup)
				return snap
			}
			counters.loadErrors.Add(1) // rebuilt below
		}
		doWarm()
		counters.builtInstrs.Add(uint64(len(cores)) * id.Warmup)
		snap := &mcSnapshot{Mem: backend.State(), Cores: make([]uarch.CoreWarmState, 0, len(cores))}
		for _, c := range cores {
			cs, err := c.SnapshotWarm()
			if err != nil {
				return nil // later callers warm themselves
			}
			snap.Cores = append(snap.Cores, cs.Core)
		}
		mcSaveDisk(id, snap)
		return snap
	})
	if first {
		return // warmed (or disk-restored) inside the single flight
	}
	if snap == nil || !mcRestore(backend, cores, snap) {
		counters.restoreErrors.Add(1)
		doWarm()
		return
	}
	counters.hits.Add(1)
	counters.skippedInstrs.Add(uint64(len(cores)) * id.Warmup)
}

// mcEligible reports whether every core's stream supports snapshot
// restore (replayer-backed). Checked up front so a restore can never fail
// halfway through and leave a half-mutated memory system behind.
func mcEligible(cores []*uarch.Core) bool {
	for _, c := range cores {
		if _, ok := c.StreamPos(); !ok {
			return false
		}
	}
	return true
}

// mcRestore installs a snapshot into a run's backend and cores. The
// snapshot is copied in everywhere (copy-on-restore); a missing memory
// state or a topology or geometry mismatch in it is rejected before
// anything has been touched. The cores then restore through
// Core.RestoreWarm with no hierarchy of their own; their geometry is
// pinned by the identity the file header was matched against.
func mcRestore(backend *mem.Multicore, cores []*uarch.Core, s *mcSnapshot) bool {
	if len(s.Cores) != len(cores) {
		return false
	}
	if err := backend.SetState(s.Mem); err != nil {
		return false
	}
	for i := range cores {
		if err := cores[i].RestoreWarm(&uarch.WarmState{Core: s.Cores[i]}); err != nil {
			return false
		}
	}
	return true
}

// mcLoadDisk tries to read an identity's warmup snapshot from the cache
// directory (see loadFile).
func mcLoadDisk(id MCIdentity) *mcSnapshot {
	var snap mcSnapshot
	if _, ok := loadFile(mcFileName(id), &snap, func(h fileHeader) bool {
		return h.Kind == kindMC && h.MC != nil && *h.MC == id
	}); !ok {
		return nil
	}
	return &snap
}

// mcSaveDisk persists a warmup snapshot (see saveFile).
func mcSaveDisk(id MCIdentity, snap *mcSnapshot) {
	saveFile(mcFileName(id), fileHeader{Kind: kindMC, Pos: id.Warmup, MC: &id}, snap)
}
