package warm

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"vertical3d/internal/trace"
)

// FuzzDecodeSnapshot feeds arbitrary bytes to the .m3dwarm decoder with a
// multicore payload. It must reject them with an error or return a
// snapshot that survives a round trip: it re-encodes, and the re-encoding
// decodes to the same header and state (gob writes the directory map in
// no fixed order, so the bytes themselves may differ). It must never
// panic, and never allocate more than a small multiple of the input plus
// a fixed allowance for its buffers.
func FuzzDecodeSnapshot(f *testing.F) {
	trace.ResetCache()
	ResetCache()
	defer trace.ResetCache()
	defer ResetCache()
	// Two cores with tiny caches keep the seed small enough to mutate
	// quickly.
	id, mc := testMC(f)
	mc.Cores = 2
	mc.PerCore.Core.IL1.SizeKB, mc.PerCore.Core.DL1.SizeKB, mc.PerCore.Core.L2.SizeKB, mc.PerCore.Core.L3.SizeKB = 1, 1, 2, 4
	id = mcIdentity(id.Prof, id.Seed, 2_000, mc)
	memState, cores := mcRun(f, id, mc)
	var b bytes.Buffer
	if err := encodeSnapshot(&b, fileHeader{Pos: id.Warmup, MC: id}, &mcSnapshot{Mem: memState, Cores: cores}); err != nil {
		f.Fatal(err)
	}
	f.Add(b.Bytes())
	f.Add(b.Bytes()[:b.Len()/2])
	f.Add([]byte(fileMagic))

	f.Fuzz(func(t *testing.T, data []byte) {
		var st mcSnapshot
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
		var again mcSnapshot
		hdr2, err := decodeSnapshot(&out, &again)
		if err != nil {
			t.Fatalf("a re-encoded snapshot does not decode: %v", err)
		}
		if hdr2 != hdr || !reflect.DeepEqual(again, st) {
			t.Fatal("an accepted snapshot changes in a round trip")
		}
	})
}
