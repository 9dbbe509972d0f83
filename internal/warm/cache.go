// Process-global snapshot registry. Shares the single-flight registry of
// internal/trace/cache.go (internal/registry): exactly one multicore
// warmup per identity no matter how many sweep cells race to it, and
// atomic counters feed both the sweep Health block and cache-effectiveness
// reporting.
//
// Lifetime follows the trace cache: an experiment sweep holds the
// multicore identities its cells touch (HoldMC) and releases them when it
// returns, and an entry no running sweep holds leaves the registry.
// Entries created with no hold on their identity (direct MCWarmup calls)
// stay for the life of the process, until ResetCache. The -warm-dir files
// are the cross-run reuse tier.
package warm

import (
	"sync"
	"sync/atomic"

	"vertical3d/internal/registry"
)

var (
	mcSnaps registry.Registry[MCIdentity, *mcSnapshot]

	cacheDirMu sync.RWMutex
	cacheDir   string
)

// counters aggregates process-lifetime cache telemetry. All fields are
// atomics: cells update them from arbitrary worker goroutines.
var counters struct {
	hits          atomic.Uint64
	misses        atomic.Uint64
	builtInstrs   atomic.Uint64
	skippedInstrs atomic.Uint64
	fileLoads     atomic.Uint64
	loadErrors    atomic.Uint64
	saveErrors    atomic.Uint64
	quarantines   atomic.Uint64
	restoreErrors atomic.Uint64
}

// Counters is a point-in-time snapshot of the cache's telemetry.
type Counters struct {
	// Hits counts multicore warmups served from a snapshot already in
	// memory; Misses counts warmups that had to load or build one.
	Hits, Misses uint64

	// BuiltInstrs counts instructions warmed to build snapshots (paid
	// once per identity); SkippedInstrs counts instructions sweep cells
	// skipped by restoring snapshots instead of re-warming.
	BuiltInstrs, SkippedInstrs uint64

	// FileLoads counts snapshots restored from -warm-dir; LoadErrors
	// counts unreadable, corrupt, foreign or unrestorable files (rebuilt
	// from the trace); SaveErrors counts failed snapshot writes (cache
	// left stale); Quarantines counts damaged files renamed aside;
	// RestoreErrors counts cells that fell back to local warming after a
	// restore was refused.
	FileLoads, LoadErrors, SaveErrors, Quarantines, RestoreErrors uint64
}

// Stats returns current cache telemetry.
func Stats() Counters {
	return Counters{
		Hits:          counters.hits.Load(),
		Misses:        counters.misses.Load(),
		BuiltInstrs:   counters.builtInstrs.Load(),
		SkippedInstrs: counters.skippedInstrs.Load(),
		FileLoads:     counters.fileLoads.Load(),
		LoadErrors:    counters.loadErrors.Load(),
		SaveErrors:    counters.saveErrors.Load(),
		Quarantines:   counters.quarantines.Load(),
		RestoreErrors: counters.restoreErrors.Load(),
	}
}

// ResetCache drops every cached multicore snapshot and probe tape,
// process-lifetime entries included, and zeroes the counters (TapeBuilds
// too). Tests and benchmarks use it to measure cold-versus-warm sweeps in
// one process; sweeps need not, since their entries leave when they
// return.
func ResetCache() {
	mcSnaps.Reset()
	tapes.Reset()
	counters.hits.Store(0)
	counters.misses.Store(0)
	counters.builtInstrs.Store(0)
	counters.skippedInstrs.Store(0)
	counters.fileLoads.Store(0)
	counters.loadErrors.Store(0)
	counters.saveErrors.Store(0)
	counters.quarantines.Store(0)
	counters.restoreErrors.Store(0)
	tapeBuilds.Store(0)
}

// Resident reports how many multicore warmup snapshots the registry
// holds.
func Resident() int { return len(mcSnaps.Values()) }

// HoldMC keeps an identity's multicore warmup snapshot resident until
// release is called. The snapshot copies the warm state out, so it holds
// no recording; the caller holds the per-core streams itself.
func HoldMC(id MCIdentity) (release func()) {
	return mcSnaps.Hold(id)
}

// SetCacheDir enables the on-disk snapshot cache rooted at dir ("" turns
// it off), creating the directory if needed. Multicore warmup snapshots
// are loaded from and saved to it as .m3dwarm files.
func SetCacheDir(dir string) error {
	if dir != "" {
		if err := seam.Get().MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	cacheDirMu.Lock()
	cacheDir = dir
	cacheDirMu.Unlock()
	return nil
}

// CacheDir returns the configured on-disk cache directory ("" when the
// disk layer is off).
func CacheDir() string {
	cacheDirMu.RLock()
	defer cacheDirMu.RUnlock()
	return cacheDir
}
