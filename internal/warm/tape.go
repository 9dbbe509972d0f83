// Probe tapes for single-core cells. A tape (uarch.Tape) records what the
// fetch stage's cache, predictor and store-ring probes observe over one
// stream, which depends only on the stream and the Geometry. Every design
// of a sweep that shares the geometry replays one tape instead of probing
// a hierarchy of its own — full cells through fetch, sampled cells through
// fetch and fast-forward alike.
//
// A tape's builder is a functional warmer over a private trace.Generator:
// the tape extends on demand and the generator continues from where it
// stopped, so the stream is never recorded and a single-core sweep holds
// no trace recording. Tapes share the snapshot registry's lifetime rules: a
// sweep holds the identities its cells replay (HoldTape) and an identity
// no sweep holds leaves the registry. Tapes never go to disk.

package warm

import (
	"sync/atomic"

	"vertical3d/internal/config"
	"vertical3d/internal/registry"
	"vertical3d/internal/trace"
	"vertical3d/internal/uarch"
)

// TapeIdentity keys one probe tape: the stream and the geometry its
// probes depend on.
type TapeIdentity struct {
	Prof   trace.Profile
	Seed   int64
	Stream int
	Geom   Geometry
}

var (
	tapes      registry.Registry[TapeIdentity, *uarch.Tape]
	tapeBuilds atomic.Uint64
)

// SharedTape returns the probe tape of cfg's geometry over the (prof,
// seed, stream) stream, creating it single-flight on first use over a
// generator of its own. Nil means the geometry's fill levels cannot be
// classified and the cell must probe a hierarchy of its own.
func SharedTape(prof trace.Profile, seed int64, stream int, cfg config.Config) *uarch.Tape {
	id := TapeIdentity{Prof: prof, Seed: seed, Stream: stream, Geom: GeometryOf(cfg)}
	t, _ := tapes.Do(id, func() *uarch.Tape {
		tapeBuilds.Add(1)
		t, err := uarch.NewTape(cfg, trace.NewGenerator(prof, seed, stream))
		if err != nil {
			return nil
		}
		return t
	})
	return t
}

// HoldTape keeps an identity's tape resident until release is called.
func HoldTape(id TapeIdentity) (release func()) {
	return tapes.Hold(id)
}

// ResidentTapes reports how many probe tapes the registry holds and their
// recorded bytes.
func ResidentTapes() (count, bytes int) {
	for _, t := range tapes.Values() {
		if t != nil {
			count++
			bytes += t.Bytes()
		}
	}
	return count, bytes
}

// TapeBuilds reports how many probe tapes have been created since the
// last ResetCache, one per SharedTape miss.
func TapeBuilds() uint64 { return tapeBuilds.Load() }
