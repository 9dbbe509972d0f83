// Multicore warmup snapshots. A multicore run has exactly one functional
// fast-forward — the per-core warmup before the measured phases — so it
// gets a single snapshot per MCIdentity: the first run warms every core,
// captures the shared memory system and all core functional states, and
// every later run with the same identity restores the capture instead of
// re-warming. Coherent memory interleaves the cores' probes by timing, so
// a multicore stream has no probe tape (see tape.go).
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
			if mcRestore(id, backend, cores, snap) {
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
			snap.Cores = append(snap.Cores, cs)
		}
		mcSaveDisk(id, snap)
		return snap
	})
	if first {
		return // warmed (or disk-restored) inside the single flight
	}
	if snap == nil || !mcRestore(id, backend, cores, snap) {
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

// mcRestore installs a snapshot of identity id into a run's backend and
// cores. The snapshot is copied in everywhere (copy-on-restore), and every
// part is validated before any is touched: each core's state must stand
// at the identity's warmup position and fit its core (Core.CheckWarm), and
// the memory state must be present and match the topology and geometry
// (mem.Multicore.SetState validates before it mutates). A refused
// snapshot leaves the run exactly as constructed, so the caller's own
// warmup produces what it would have without the cache.
func mcRestore(id MCIdentity, backend *mem.Multicore, cores []*uarch.Core, s *mcSnapshot) bool {
	if len(s.Cores) != len(cores) {
		return false
	}
	for i, c := range cores {
		if s.Cores[i].Pos != id.Warmup || c.CheckWarm(&s.Cores[i]) != nil {
			return false
		}
	}
	if err := backend.SetState(s.Mem); err != nil {
		return false
	}
	for i, c := range cores {
		if err := c.RestoreWarm(&s.Cores[i]); err != nil {
			panic("warm: a validated core state was refused: " + err.Error())
		}
	}
	return true
}

// mcHeader is the file header of an identity's warmup snapshot.
func mcHeader(id MCIdentity) fileHeader { return fileHeader{Pos: id.Warmup, MC: id} }

// mcLoadDisk tries to read an identity's warmup snapshot from the cache
// directory (see loadFile).
func mcLoadDisk(id MCIdentity) *mcSnapshot {
	var snap mcSnapshot
	if !loadFile(mcFileName(id), &snap, mcHeader(id)) {
		return nil
	}
	return &snap
}

// mcSaveDisk persists a warmup snapshot (see saveFile).
func mcSaveDisk(id MCIdentity, snap *mcSnapshot) {
	saveFile(mcFileName(id), mcHeader(id), snap)
}
