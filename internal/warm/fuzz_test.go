package warm

import (
	"bytes"
	"runtime"
	"testing"

	"vertical3d/internal/trace"
	"vertical3d/internal/uarch"
)

// FuzzDecodeSnapshot feeds arbitrary bytes to the .m3dwarm decoder with a
// ladder payload. It must reject them with an error or return a snapshot
// that re-encodes to exactly the input; it must never panic, and never
// allocate more than a small multiple of the input plus a fixed allowance
// for its buffers.
func FuzzDecodeSnapshot(f *testing.F) {
	trace.ResetCache()
	ResetCache()
	defer trace.ResetCache()
	defer ResetCache()
	// Tiny caches keep the seed small enough to mutate quickly.
	id, cfg := testIdentity(f)
	cfg.Core.IL1.SizeKB, cfg.Core.DL1.SizeKB, cfg.Core.L2.SizeKB, cfg.Core.L3.SizeKB = 1, 1, 2, 4
	id.Geom = GeometryOf(cfg)
	ck := Shared(id, cfg).checkpoint(0, 2_000)
	if ck == nil {
		f.Fatal("no checkpoint to seed from")
	}
	var b bytes.Buffer
	if err := encodeSnapshot(&b, fileHeader{Kind: kindLadder, Pos: ck.Pos, Cum: ck.Cum, Ladder: &id}, ck.State); err != nil {
		f.Fatal(err)
	}
	f.Add(b.Bytes())
	f.Add(b.Bytes()[:b.Len()/2])
	f.Add([]byte(fileMagic))

	f.Fuzz(func(t *testing.T, data []byte) {
		var st uarch.WarmState
		var hdr fileHeader
		var err error
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		hdr, err = decodeSnapshot(bytes.NewReader(data), &st)
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; n > 8*uint64(len(data))+1<<20 {
			t.Fatalf("decoding %d bytes allocated %d", len(data), n)
		}
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := encodeSnapshot(&out, hdr, &st); err != nil {
			t.Fatalf("an accepted snapshot does not re-encode: %v", err)
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("an accepted snapshot re-encodes to %d different bytes (input %d)", out.Len(), len(data))
		}
	})
}
