// Probe tapes for full-simulation cells. A tape (uarch.Tape) records what
// the fetch stage's cache, predictor and store-ring probes observe over
// one stream, which depends only on the stream and the Geometry — the
// same observation the snapshot ladders rest on. Every design of a sweep
// that shares the geometry replays one tape instead of probing a
// hierarchy of its own.
//
// Tapes share the snapshot registry's lifetime rules: a sweep holds the
// identities its cells replay (HoldTape) and an identity no sweep holds
// leaves the registry. A tape's builder replays the stream's shared
// recording, so HoldTape holds the recording too. Tapes never go to disk.

package warm

import (
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

var tapes registry.Registry[TapeIdentity, *uarch.Tape]

// SharedTape returns the probe tape of cfg's geometry over the (prof,
// seed, stream) stream, creating it single-flight on first use; its
// builder replays the shared recording, sized by sizeHint on first use.
// Nil means the geometry's fill levels cannot be classified and the cell
// must probe a hierarchy of its own.
func SharedTape(prof trace.Profile, seed int64, stream int, cfg config.Config, sizeHint int) *uarch.Tape {
	id := TapeIdentity{Prof: prof, Seed: seed, Stream: stream, Geom: GeometryOf(cfg)}
	t, _ := tapes.Do(id, func() *uarch.Tape {
		rec := trace.SharedRecording(prof, seed, stream, sizeHint)
		t, err := uarch.NewTape(cfg, trace.NewReplayer(rec))
		if err != nil {
			return nil
		}
		return t
	})
	return t
}

// HoldTape keeps an identity's tape, and the recording its builder
// replays, resident until release is called.
func HoldTape(id TapeIdentity) (release func()) {
	return registry.Releases{tapes.Hold(id), trace.Hold(id.Prof, id.Seed, id.Stream)}.Release
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
