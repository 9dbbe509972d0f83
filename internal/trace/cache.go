// The recording cache memoizes Record: a recording is a pure function of
// the (Profile, seed, stream) triple, and the experiment sweeps replay the
// same handful of workload streams once per design point — a Fig6 sweep
// re-generated the bit-identical stream |designs| times per benchmark
// before this cache existed. All key components are comparable value
// types, so the key is the tuple itself, and the registry
// (internal/registry) single-flights misses so concurrent cells never
// record the same stream twice. Recordings are extend-on-demand but never
// mutated below their materialised length, so sharing them read-only
// across goroutines is safe.
//
// Lifetime: an experiment sweep holds the keys its cells replay (Hold)
// and releases them when it returns, and a recording nobody holds leaves
// the registry — a long-running server's memory is bounded by its
// in-flight sweeps, not by every seed it ever served. A SharedRecording
// call on a key no sweep holds creates an entry that stays for the life
// of the process, until ResetCache. The cache directory (SetCacheDir) is the cross-run
// reuse tier and is independent of either lifetime.
package trace

import (
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"sync"
	"sync/atomic"

	"vertical3d/internal/registry"
)

// recKey identifies one recorded stream. Profile is stored by value: two
// profiles with identical fields are the same stream input even if they
// come from distinct workload lookups.
type recKey struct {
	prof   Profile
	seed   int64
	stream int
}

var (
	recCache   registry.Registry[recKey, *Recording]
	recHits    atomic.Uint64
	recMisses  atomic.Uint64
	fileLoads  atomic.Uint64
	loadErrors atomic.Uint64
	saveErrors atomic.Uint64

	cacheDirMu sync.RWMutex
	cacheDir   string
)

// CacheCounters reports the recording cache effectiveness.
type CacheCounters struct {
	// Hits counts SharedRecording calls served by another call's
	// recording (including callers that waited on a concurrent first
	// recording).
	Hits uint64
	// Misses counts first-time recordings (or file loads) per key.
	Misses uint64
	// FileLoads counts misses satisfied from the cache directory instead
	// of generation.
	FileLoads uint64
	// LoadErrors counts cache files that existed but could not be trusted
	// — unreadable, corrupt (checksum or structure), or carrying a foreign
	// identity. Each one fell back to in-memory generation.
	LoadErrors uint64
	// SaveErrors counts failed best-effort writes to the cache directory.
	SaveErrors uint64
}

// CacheStats returns the cumulative counters of the recording cache.
func CacheStats() CacheCounters {
	return CacheCounters{
		Hits:       recHits.Load(),
		Misses:     recMisses.Load(),
		FileLoads:  fileLoads.Load(),
		LoadErrors: loadErrors.Load(),
		SaveErrors: saveErrors.Load(),
	}
}

// ResetCache empties the recording cache, process-lifetime entries
// included, and zeroes the counters. Tests and benchmarks use it to start
// cold; sweeps need not, since their entries leave when they return. The
// cache directory setting is untouched.
func ResetCache() {
	recCache.Reset()
	recHits.Store(0)
	recMisses.Store(0)
	fileLoads.Store(0)
	loadErrors.Store(0)
	saveErrors.Store(0)
}

// SetCacheDir points the recording cache at a directory for cross-run
// reuse: misses first try to load "<dir>/<name>.m3dtrace" and freshly
// recorded streams are saved there best-effort (failures are counted in
// CacheCounters.SaveErrors, never fatal). An empty dir disables the file
// layer. The directory is created if missing.
func SetCacheDir(dir string) error {
	if dir != "" {
		if err := getFS().MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("trace: cache dir: %w", err)
		}
	}
	cacheDirMu.Lock()
	cacheDir = dir
	cacheDirMu.Unlock()
	return nil
}

// CacheDir returns the configured cross-run cache directory ("" = none).
func CacheDir() string {
	cacheDirMu.RLock()
	defer cacheDirMu.RUnlock()
	return cacheDir
}

// CachedBytes reports the summed packed footprint of every resident
// recording (~31 bytes per materialised instruction).
func CachedBytes() int {
	total := 0
	for _, rec := range recCache.Values() {
		total += rec.Bytes()
	}
	return total
}

// CachedRecordings reports how many recordings are resident.
func CachedRecordings() int { return len(recCache.Values()) }

// Hold keeps the (prof, seed, stream) recording resident until release is
// called: the sweep entry points hold every stream their cells replay, so
// the sweep records each once, concurrent sweeps over one stream share
// it, and it leaves the cache when the last of them returns.
func Hold(prof Profile, seed int64, stream int) (release func()) {
	return recCache.Hold(recKey{prof: prof, seed: seed, stream: stream})
}

// SharedRecording returns the shared recording for the (prof, seed,
// stream) triple, materialising sizeHint instructions on first use (the
// recording extends on demand past the hint). All sweep cells replaying
// the same workload share one read-only recording; the first caller
// records (or loads from the cache directory) while concurrent callers
// for the same key wait on the single flight. A key no sweep holds stays
// resident for the life of the process.
func SharedRecording(prof Profile, seed int64, stream int, sizeHint int) *Recording {
	rec, first := recCache.Do(recKey{prof: prof, seed: seed, stream: stream}, func() *Recording {
		return loadOrRecord(prof, seed, stream, sizeHint)
	})
	if first {
		recMisses.Add(1)
	} else {
		recHits.Add(1)
	}
	return rec
}

// loadOrRecord materialises a cache miss: from the cache directory when a
// trustworthy file is there, else by recording (and saving best-effort).
func loadOrRecord(prof Profile, seed int64, stream int, sizeHint int) *Recording {
	if sizeHint <= 0 {
		sizeHint = 4096
	}
	dir := CacheDir()
	if dir == "" {
		return Record(prof, seed, stream, sizeHint)
	}
	path := filepath.Join(dir, FileName(prof, seed, stream))
	switch rec, err := LoadFile(path); {
	case err == nil && rec.prof == prof && rec.seed == seed && rec.stream == stream:
		fileLoads.Add(1)
		return rec
	case err == nil:
		// A file under our identity-hashed name with a foreign identity
		// inside is as untrustworthy as a corrupt one.
		loadErrors.Add(1)
	case !errors.Is(err, fs.ErrNotExist):
		loadErrors.Add(1)
	}
	rec := Record(prof, seed, stream, sizeHint)
	if err := SaveFile(path, rec); err != nil {
		saveErrors.Add(1)
	}
	return rec
}
