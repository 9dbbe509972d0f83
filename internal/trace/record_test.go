package trace

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// TestReplayMatchesGenerator is the packed-encoding differential oracle:
// a replayer over a recording must reproduce the generator's stream
// instruction by instruction, including past the recorded length (the
// on-demand extension path).
func TestReplayMatchesGenerator(t *testing.T) {
	const recorded, replayed = 10_000, 25_000 // force two extensions
	p := testProfile()
	rec := Record(p, 7, 3, recorded)
	if rec.Len() != recorded {
		t.Fatalf("Record materialised %d instructions, want %d", rec.Len(), recorded)
	}
	want := NewGenerator(p, 7, 3)
	r := NewReplayer(rec)
	for i := 0; i < replayed; i++ {
		g, got := want.Next(), r.Next()
		if got != g {
			t.Fatalf("instruction %d differs: replay %+v vs generate %+v", i, got, g)
		}
	}
	if r.Pos() != replayed {
		t.Fatalf("Pos() = %d, want %d", r.Pos(), replayed)
	}
	if rec.Len() < replayed {
		t.Fatalf("recording did not extend: Len() = %d < %d", rec.Len(), replayed)
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

// TestRecorderAppendRoundTrip packs a hand-rolled stream through the
// Recorder and checks the packed decode is exact for extreme field values.
func TestRecorderAppendRoundTrip(t *testing.T) {
	ins := []Inst{
		{PC: 0, Kind: ALU, Src1: -1, Src2: -1, Dst: -1},
		{PC: ^uint64(0), Addr: ^uint64(0), Target: ^uint64(0), Kind: Branch, Taken: true, Src1: 32767, Src2: -32768, Dst: 0},
		{PC: 0x40_0000, Kind: Store, Addr: 0x7000_0123, Complex: true, Src1: 5, Src2: -1, Dst: -1},
		{PC: 0x40_0004, Kind: Load, Addr: 0x1000_0040, Dst: 17, Src1: 3, Src2: -1, Taken: false, Complex: false},
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
	if want := recChunk * 31; rec.Bytes() != want {
		t.Fatalf("Bytes() = %d, want %d (one chunk of 31-byte slots)", rec.Bytes(), want)
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

// TestFileRoundTrip encodes a recording, decodes it, and checks identity,
// payload equality and post-load extension (which rebuilds the generator
// from the stored profile and fast-forwards it).
func TestFileRoundTrip(t *testing.T) {
	const n = 4_000
	p := testProfile()
	rec := Record(p, 9, 2, n)
	var buf bytes.Buffer
	if err := rec.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRecording(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Profile() != p || got.Seed() != 9 || got.Stream() != 2 || got.Len() != n {
		t.Fatalf("decoded identity mismatch: %+v seed=%d stream=%d n=%d", got.Profile(), got.Seed(), got.Stream(), got.Len())
	}
	// Read past the stored length: the loaded recording must rebuild its
	// generator and keep matching the original stream.
	want := NewGenerator(p, 9, 2)
	r := NewReplayer(got)
	for i := 0; i < 2*n; i++ {
		if g, x := want.Next(), r.Next(); x != g {
			t.Fatalf("instruction %d differs after file round-trip", i)
		}
	}
}

// TestReadRecordingRejectsGarbage checks magic and header validation.
func TestReadRecordingRejectsGarbage(t *testing.T) {
	for name, data := range map[string][]byte{
		"empty":     {},
		"bad magic": []byte("NOTTRACE\x00\x00\x00\x00"),
		"truncated": []byte(fileMagic + "\xff\xff\x00\x00"),
	} {
		if _, err := ReadRecording(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: ReadRecording accepted garbage", name)
		}
	}
}

// TestSaveLoadFile exercises the atomic file writer and loader on disk.
func TestSaveLoadFile(t *testing.T) {
	dir := t.TempDir()
	p := testProfile()
	rec := Record(p, 3, 0, 1_000)
	path := filepath.Join(dir, FileName(p, 3, 0))
	if err := SaveFile(path, rec); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1_000; i++ {
		if got.At(i) != rec.At(i) {
			t.Fatalf("instruction %d differs after save/load", i)
		}
	}
	// No stray temp files from the atomic writer.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("cache dir holds %d entries, want 1 (temp file leaked?)", len(entries))
	}
}

// TestFileNameDistinguishesProfiles ensures two profiles that share a Name
// but differ in any statistical field get distinct cache files.
func TestFileNameDistinguishesProfiles(t *testing.T) {
	a := testProfile()
	b := testProfile()
	b.DepMean++
	if FileName(a, 1, 0) == FileName(b, 1, 0) {
		t.Fatal("distinct profiles with the same Name mapped to the same file")
	}
	if FileName(a, 1, 0) != FileName(a, 1, 0) {
		t.Fatal("FileName is not deterministic")
	}
	if FileName(a, 1, 0) == FileName(a, 2, 0) || FileName(a, 1, 0) == FileName(a, 1, 1) {
		t.Fatal("seed/stream not reflected in the file name")
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
	if got, want := rec.Bytes(), rec.Len()/recChunk*chunkBytes; got != want {
		t.Fatalf("Bytes() = %d, want %d allocated chunk bytes", got, want)
	}
}

// TestSaveFileFormatPinned pins the bytes SaveFile writes for multi-chunk
// recordings — one ending mid-chunk, one grown by extension — to digests
// taken before recordings were chunked: the .m3dtrace format is
// independent of the in-memory layout.
func TestSaveFileFormatPinned(t *testing.T) {
	p := testProfile()
	grown := Record(p, 7, 1, 0)
	grown.At(recChunk - 1)
	grown.At(3*recChunk - 1)
	for _, tc := range []struct {
		name string
		rec  *Recording
		sha  string
	}{
		{"partial", Record(p, 9, 2, 20_000), "bf5350b09d49c6647c9edda3e74a1c05eab3dba3829ac2ffa4d8f1f699fbfbdf"},
		{"grown", grown, "6bd4bf4a58833349aea7a49ac74b67d8a4443715644e743a336c32ebbc1190f7"},
	} {
		path := filepath.Join(t.TempDir(), FileName(p, tc.rec.Seed(), tc.rec.Stream()))
		if err := SaveFile(path, tc.rec); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(b)); got != tc.sha {
			t.Errorf("%s: SaveFile of %d instructions wrote sha256 %s, want %s", tc.name, tc.rec.Len(), got, tc.sha)
		}
		loaded, err := LoadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, i := range []int{0, recChunk - 1, recChunk, tc.rec.Len() - 1} {
			if loaded.At(i) != tc.rec.At(i) {
				t.Fatalf("%s: instruction %d differs after a save and load", tc.name, i)
			}
		}
	}
}
