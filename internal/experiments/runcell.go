package experiments

// This file is the cell-level serving seam every sweep routes through:
// one (benchmark × design) cell consults, in order,
//
//	result cache → checkpoint journal → simulation
//
// The cache tier (sweep.Env.Cache) is optional
// and nil for the command-line one-shot runs; the m3dd daemon installs a
// process-wide cache so repeated and concurrent sweeps serve finished
// cells in O(1) and coalesce identical in-flight ones. The journal tier is
// the existing crash-safety layer and keeps its contract unchanged: Lookup
// before CellHook and simulation, record only successes.
//
// Bit-identity: the cache stores canonical JSON and decodes every serve
// from it — the same encoding the journal stores — and every journaled
// result type round-trips JSON bit-identically (the resume oracles prove
// it), so a sweep's results are deep-equal whether each cell was computed,
// journal-resumed, cache-served or coalesced, at any worker count.

import (
	"vertical3d/internal/journal"
	"vertical3d/internal/resultcache"
	"vertical3d/internal/sweep"
)

// cellRunner carries the per-sweep serving state into each cell task.
type cellRunner struct {
	cache *resultcache.Cache // nil = no cache tier
	key   resultcache.Key    // ID filled per sweep; Cell per call
	jn    *journal.Journal   // the sweep's journal (nil-safe)
	hook  func(bench, design string)
}

// openCells opens a sweep's serving tiers under id: env's result cache
// and checkpoint journal, and its CellHook. A journal that cannot open is
// recorded on h and the sweep runs unjournaled. The caller closes the
// runner's journal.
func openCells(env sweep.Env, id journal.Identity, h *healthRecorder) cellRunner {
	jn := env.OpenJournal(id, func(err error) {
		h.add("journal", "", "journaling disabled for this run (journal could not open)", err)
	})
	return cellRunner{cache: env.Cache, key: resultcache.Key{ID: id}, jn: jn, hook: env.CellHook}
}

// runCell executes one sweep cell through the serving seam. sim runs the
// actual simulation; it is only called when neither the cache nor the
// journal has the cell. The error a failed sim returns passes through
// unwrapped (tasks add their "<experiment> <bench>/<design>:" context), and
// failed cells are cached nowhere.
func runCell[T any](cr cellRunner, bench, design, cellKey string, sim func() (T, error)) (T, error) {
	compute := func() (any, error) {
		var cached T
		if cr.jn.Lookup(cellKey, &cached) {
			return cached, nil
		}
		if cr.hook != nil {
			cr.hook(bench, design)
		}
		r, err := sim()
		if err != nil {
			return nil, err
		}
		_ = cr.jn.Record(cellKey, r) // append failures are counted, never fatal
		return r, nil
	}
	if cr.cache == nil {
		// No cache tier: preserve the exact pre-cache behaviour, including
		// returning the simulated value without a JSON round-trip.
		v, err := compute()
		if err != nil {
			var zero T
			return zero, err
		}
		return v.(T), nil
	}
	key := cr.key
	key.Cell = cellKey
	var out T
	_, err := cr.cache.Do(key, &out, compute)
	return out, err
}
