package trace

import (
	"math/rand"
	"sync"
	"testing"
)

// TestReplayMatchesGenerator is the encoding's differential oracle: a
// replayer over a recording must reproduce the generator's stream
// instruction by instruction, including past the recorded length (the
// on-demand extension path), for a recording Record built and for one a
// Recorder built, whose extension first rebuilds its generator.
func TestReplayMatchesGenerator(t *testing.T) {
	const recorded, replayed = 10_000, 25_000 // force two extensions
	p := testProfile()
	rc := NewRecorder(recorded)
	g := NewGenerator(p, 7, 3)
	for range recorded {
		rc.Append(g.Next())
	}
	for name, rec := range map[string]*Recording{"Record": Record(p, 7, 3, recorded), "Recorder": rc.Finish(p, 7, 3)} {
		if rec.Len() != recorded {
			t.Fatalf("%s: materialised %d instructions, want %d", name, rec.Len(), recorded)
		}
		want := NewGenerator(p, 7, 3)
		r := NewReplayer(rec)
		for i := 0; i < replayed; i++ {
			g, got := want.Next(), r.Next()
			if got != g {
				t.Fatalf("%s: instruction %d differs: replay %+v vs generate %+v", name, i, got, g)
			}
		}
		if r.Pos() != replayed {
			t.Fatalf("%s: Pos() = %d, want %d", name, r.Pos(), replayed)
		}
		if rec.Len() < replayed {
			t.Fatalf("%s: recording did not extend: Len() = %d < %d", name, rec.Len(), replayed)
		}
	}
}

// TestReplayerBatchSizesAgree replays the same recording with Next and
// with NextBatch at awkward batch sizes; every variant must agree.
func TestReplayerBatchSizesAgree(t *testing.T) {
	const n = 8192
	p := testProfile()
	rec := Record(p, 11, 0, n/2) // half-sized so batches cross the extension
	ref := make([]Inst, n)
	NewGenerator(p, 11, 0).NextBatch(ref)
	for _, batch := range []int{1, 3, 7, 64, 333, n} {
		r := NewReplayer(rec)
		buf := make([]Inst, batch)
		for pos := 0; pos < n; {
			k := min(batch, n-pos)
			if got := r.NextBatch(buf[:k]); got != k {
				t.Fatalf("batch=%d: NextBatch returned %d, want %d", batch, got, k)
			}
			for i := 0; i < k; i++ {
				if buf[i] != ref[pos+i] {
					t.Fatalf("batch=%d: instruction %d differs", batch, pos+i)
				}
			}
			pos += k
		}
	}
}

// TestRecorderAppendRoundTrip encodes a hand-rolled stream through the
// Recorder and checks the decode is exact for extreme field values: wide
// registers and kinds (escapes), PCs off the implied successor, and
// Targets on non-branches.
func TestRecorderAppendRoundTrip(t *testing.T) {
	ins := []Inst{
		{PC: 0, Kind: ALU, Src1: -1, Src2: -1, Dst: -1},
		{PC: ^uint64(0), Addr: ^uint64(0), Target: ^uint64(0), Kind: Branch, Taken: true, Src1: 32767, Src2: -32768, Dst: 0},
		{PC: 0x40_0000, Kind: Store, Addr: 0x7000_0123, Complex: true, Src1: 5, Src2: -1, Dst: -1},
		{PC: 0x40_0004, Kind: Load, Addr: 0x1000_0040, Dst: 17, Src1: 3, Src2: -1, Taken: false, Complex: false},
		{PC: 0x40_0008, Kind: ALU, Target: 0x40_0100, Src1: 126, Src2: -1, Dst: 126},
		{PC: 0x40_000c, Kind: Kind(200), Src1: -1, Src2: -1, Dst: -1},
		{PC: 0x40_0010, Kind: Mul, Src1: 127, Src2: -2, Dst: 0},
		{PC: 0x40_0014, Kind: Branch, Taken: true, Src1: -1, Src2: -1, Dst: -1},
		{PC: 0, Kind: Store, Addr: 1 << 40, Src1: 0, Src2: 1, Dst: -1},
	}
	rc := NewRecorder(len(ins))
	for _, in := range ins {
		rc.Append(in)
	}
	if rc.Len() != len(ins) {
		t.Fatalf("Recorder.Len() = %d, want %d", rc.Len(), len(ins))
	}
	rec := rc.Finish(testProfile(), 1, 0)
	for i, want := range ins {
		if got := rec.At(i); got != want {
			t.Fatalf("instruction %d round-trip: got %+v want %+v", i, got, want)
		}
	}
}

// TestConcurrentReplayAndExtension hammers one recording from many
// replayers with random batch sizes while the recording extends under
// them; every replayer must observe the reference stream. Run under -race
// in CI, this is the shared-recording safety proof.
func TestConcurrentReplayAndExtension(t *testing.T) {
	const n = 30_000
	p := testProfile()
	ref := make([]Inst, n)
	NewGenerator(p, 5, 1).NextBatch(ref)
	rec := Record(p, 5, 1, 1_000) // small so every replayer triggers extension

	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			r := NewReplayer(rec)
			buf := make([]Inst, 512)
			for pos := 0; pos < n; {
				k := min(1+rng.Intn(len(buf)), n-pos)
				r.NextBatch(buf[:k])
				for i := 0; i < k; i++ {
					if buf[i] != ref[pos+i] {
						errs <- "replayer diverged from reference stream"
						return
					}
				}
				pos += k
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestChunkBoundaryReplayMatchesGenerator replays a recording whose hint
// ends mid-chunk through NextBatch batches that straddle chunk boundaries;
// they must reproduce a fresh generator, and the recording must grow by
// whole chunks only as far as the last read.
func TestChunkBoundaryReplayMatchesGenerator(t *testing.T) {
	const n = 4*recChunk + 123
	p := testProfile()
	ref := make([]Inst, n)
	NewGenerator(p, 13, 4).NextBatch(ref)
	rec := Record(p, 13, 4, recChunk+recChunk/2)

	r := NewReplayer(rec)
	buf := make([]Inst, 3000) // 3000 does not divide recChunk
	for pos := 0; pos < n; {
		k := min(len(buf), n-pos)
		r.NextBatch(buf[:k])
		for i := range buf[:k] {
			if buf[i] != ref[pos+i] {
				t.Fatalf("NextBatch: instruction %d differs", pos+i)
			}
		}
		pos += k
	}

	if got, want := rec.Len(), (n+recChunk-1)/recChunk*recChunk; got != want {
		t.Fatalf("recording grew to %d instructions, want %d (whole chunks, none past the last read)", got, want)
	}
}
