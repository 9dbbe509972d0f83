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
// Lifetime: each cell of an experiment sweep holds the keys it replays
// (Hold) until it settles, and a recording nobody holds leaves the
// registry — a long-running server's memory is bounded by the profiles
// its sweeps have in flight, not by every seed it ever served. A
// SharedRecording call on a key no sweep holds creates an entry that
// stays for the life of the process, until ResetCache. Nothing persists a
// recording across processes.
package trace

import (
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
	recCache  registry.Registry[recKey, *Recording]
	recHits   atomic.Uint64
	recMisses atomic.Uint64
)

// CacheCounters reports the recording cache effectiveness.
type CacheCounters struct {
	// Hits counts SharedRecording calls served by another call's
	// recording (including callers that waited on a concurrent first
	// recording).
	Hits uint64
	// Misses counts first-time recordings per key.
	Misses uint64
}

// CacheStats returns the cumulative counters of the recording cache.
func CacheStats() CacheCounters {
	return CacheCounters{Hits: recHits.Load(), Misses: recMisses.Load()}
}

// ResetCache empties the recording cache, process-lifetime entries
// included, and zeroes the counters. Tests and benchmarks use it to start
// cold; sweeps need not, since their entries leave as their cells settle.
func ResetCache() {
	recCache.Reset()
	recHits.Store(0)
	recMisses.Store(0)
}

// CachedBytes reports the summed footprint of every resident recording
// (Recording.Bytes: 8–10 bytes per materialised instruction on the
// synthetic workloads).
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
// called: every cell of a sweep holds the streams it replays from before
// the first cell starts, so the sweep records each once, concurrent
// sweeps over one stream share it, and it leaves the cache when the last
// cell holding it settles.
func Hold(prof Profile, seed int64, stream int) (release func()) {
	return recCache.Hold(recKey{prof: prof, seed: seed, stream: stream})
}

// SharedRecording returns the shared recording for the (prof, seed,
// stream) triple, materialising sizeHint instructions on first use (the
// recording extends on demand past the hint; a hint of 0 or less records
// 4096). All sweep cells replaying the same workload share one read-only
// recording; the first caller records while concurrent callers for the
// same key wait on the single flight. A key no sweep holds stays resident
// for the life of the process.
func SharedRecording(prof Profile, seed int64, stream int, sizeHint int) *Recording {
	if sizeHint <= 0 {
		sizeHint = 4096
	}
	rec, first := recCache.Do(recKey{prof: prof, seed: seed, stream: stream}, func() *Recording {
		return Record(prof, seed, stream, sizeHint)
	})
	if first {
		recMisses.Add(1)
	} else {
		recHits.Add(1)
	}
	return rec
}
