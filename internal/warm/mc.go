// Multicore warmup snapshots. A multicore run has exactly one functional
// fast-forward — the per-core warmup before the measured phases — so
// instead of a ladder it gets a single snapshot per MCIdentity: the first
// run warms every core, captures the shared memory system and all core
// functional states, and every later run with the same identity restores
// the capture instead of re-warming.
package warm

import (
	"path/filepath"

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
		if snap := mcLoadDisk(id); snap != nil && mcRestore(backend, cores, snap) {
			counters.skippedInstrs.Add(uint64(len(cores)) * id.Warmup)
			return snap
		}
		doWarm()
		counters.builtInstrs.Add(uint64(len(cores)) * id.Warmup)
		snap := &mcSnapshot{Mem: backend.State(), Cores: make([]uarch.CoreWarmState, 0, len(cores))}
		for _, c := range cores {
			cs, err := c.SnapshotCoreWarm()
			if err != nil {
				return nil // later callers warm themselves
			}
			snap.Cores = append(snap.Cores, *cs)
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
// snapshot is copied in everywhere (copy-on-restore); a topology or
// geometry mismatch is rejected on the first component, before any core
// state has been touched — and by identity construction the memory
// topology was validated before the cores.
func mcRestore(backend *mem.Multicore, cores []*uarch.Core, s *mcSnapshot) bool {
	if len(s.Cores) != len(cores) {
		return false
	}
	if err := backend.SetState(s.Mem); err != nil {
		return false
	}
	for i := range cores {
		cs := s.Cores[i]
		if err := cores[i].RestoreCoreWarm(&cs); err != nil {
			return false
		}
	}
	return true
}

// mcLoadDisk tries to read an identity's warmup snapshot from the cache
// directory, quarantining corrupt or foreign files.
func mcLoadDisk(id MCIdentity) *mcSnapshot {
	dir := CacheDir()
	if dir == "" {
		return nil
	}
	path := filepath.Join(dir, mcFileName(id))
	var snap mcSnapshot
	hdr, err := loadSnapshot(path, &snap)
	switch {
	case err == nil && hdr.Kind == kindMC && hdr.MC != nil && *hdr.MC == id:
		counters.fileLoads.Add(1)
		return &snap
	case err == nil:
		counters.loadErrors.Add(1)
		quarantine(path)
	case errorsIsCorrupt(err):
		counters.loadErrors.Add(1)
		quarantine(path)
	case fsNotExist(err):
	default:
		counters.loadErrors.Add(1)
	}
	return nil
}

// mcSaveDisk persists a warmup snapshot (best-effort, counted on failure).
func mcSaveDisk(id MCIdentity, snap *mcSnapshot) {
	dir := CacheDir()
	if dir == "" {
		return
	}
	hdr := fileHeader{Kind: kindMC, Pos: id.Warmup, MC: &id}
	if err := saveSnapshot(filepath.Join(dir, mcFileName(id)), hdr, snap); err != nil {
		counters.saveErrors.Add(1)
	}
}
