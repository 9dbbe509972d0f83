package trace

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"testing"

	"vertical3d/internal/fsio"
)

// TestLoadRejectsBitFlippedLanes proves the CRC trailer catches a single
// flipped bit anywhere in the lane payload and tags the error with both
// ErrCorrupt and the recording's identity.
func TestLoadRejectsBitFlippedLanes(t *testing.T) {
	dir := t.TempDir()
	p := testProfile()
	rec := Record(p, 42, 0, 512)
	path := filepath.Join(dir, FileName(p, 42, 0))
	if err := SaveFile(path, rec); err != nil {
		t.Fatal(err)
	}

	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one bit in the middle of the lane section (well past the JSON
	// header, well before the trailer).
	b[len(b)/2] ^= 0x01
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	_, err = LoadFile(path)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt, got %v", err)
	}
	for _, want := range []string{p.Name, "seed=42", "stream=0", "checksum"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error not identity-tagged, missing %q: %v", want, err)
		}
	}
}

// TestLoadRejectsTruncatedTrailer proves a file cut before the checksum —
// the wreckage of a torn rename — is rejected, not trusted.
func TestLoadRejectsTruncatedTrailer(t *testing.T) {
	dir := t.TempDir()
	p := testProfile()
	rec := Record(p, 42, 0, 128)
	path := filepath.Join(dir, FileName(p, 42, 0))
	if err := SaveFile(path, rec); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b[:len(b)-2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(path); err == nil {
		t.Fatal("truncated trailer accepted")
	}
}

// TestSharedRecordingFallsBackOnCorruptFile proves the single-flight cache
// regenerates in memory when the cache file is damaged, counts the load
// error, and still returns a bit-identical stream.
func TestSharedRecordingFallsBackOnCorruptFile(t *testing.T) {
	ResetCache()
	defer ResetCache()
	dir := t.TempDir()
	if err := SetCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	defer SetCacheDir("")

	p := testProfile()
	want := Record(p, 42, 0, 256)
	path := filepath.Join(dir, FileName(p, 42, 0))
	if err := SaveFile(path, want); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0x80
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	got := SharedRecording(p, 42, 0, 256)
	if got == nil {
		t.Fatal("no recording")
	}
	wr, gr := NewReplayer(want), NewReplayer(got)
	for i := 0; i < 256; i++ {
		a, b := wr.Next(), gr.Next()
		if a != b {
			t.Fatalf("instr %d differs after fallback: %+v vs %+v", i, a, b)
		}
	}
	s := CacheStats()
	if s.LoadErrors != 1 || s.FileLoads != 0 {
		t.Fatalf("load-error accounting: %+v", s)
	}
}

// TestSharedRecordingSurvivesFlakyTraceDir proves injected read faults on
// the cache directory degrade to generation, and injected save faults are
// counted but never fatal.
func TestSharedRecordingSurvivesFlakyTraceDir(t *testing.T) {
	ResetCache()
	defer ResetCache()
	dir := t.TempDir()
	in := fsio.NewInjector(3, fsio.OS,
		fsio.Rule{Op: fsio.OpOpen, Match: ".m3dtrace", Err: syscall.EIO},
		fsio.Rule{Op: fsio.OpSync, Match: ".m3dtrace", Err: syscall.EIO},
	)
	SetFS(in)
	defer SetFS(nil)
	if err := SetCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	defer SetCacheDir("")

	p := testProfile()
	got := SharedRecording(p, 42, 0, 256)
	if got == nil {
		t.Fatal("flaky dir killed the recording path")
	}
	SetFS(nil)
	want := Record(p, 42, 0, 256)
	wr, gr := NewReplayer(want), NewReplayer(got)
	for i := 0; i < 256; i++ {
		if wr.Next() != gr.Next() {
			t.Fatalf("instr %d differs under fault injection", i)
		}
	}
	s := CacheStats()
	if s.SaveErrors != 1 {
		t.Fatalf("failed save not counted: %+v", s)
	}
	// The open fault fires on a file that was never written (the save
	// failed), so it reads as absent-vs-corrupt depending on timing; what
	// matters is the sweep got its stream.
}

// encodeClaim returns a trace file whose canonical header claims n
// instructions, followed by lane bytes: a file truncated after them.
func encodeClaim(t testing.TB, n int, lanes []byte) []byte {
	t.Helper()
	hdr, err := json.Marshal(fileHeader{Profile: testProfile(), Seed: 42, N: n})
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	b.WriteString(fileMagic)
	_ = binary.Write(&b, binary.LittleEndian, uint32(len(hdr)))
	b.Write(hdr)
	b.Write(lanes)
	return b.Bytes()
}

// allocated reports the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestReadRecordingBoundsAllocation feeds a tiny file whose header claims
// 2^31 instructions, ~66 GB of lanes: the reader must reject it without
// allocating for the claim, and the cache must fall back to recording.
func TestReadRecordingBoundsAllocation(t *testing.T) {
	data := encodeClaim(t, 1<<31, make([]byte, 16))
	var err error
	if n := allocated(func() { _, err = ReadRecording(bytes.NewReader(data)) }); n > 1<<20 {
		t.Errorf("reading a %d-byte file allocated %d bytes", len(data), n)
	}
	if err == nil {
		t.Fatal("a file claiming 2^31 instructions with 16 lane bytes was accepted")
	}

	ResetCache()
	defer ResetCache()
	dir := t.TempDir()
	if err := SetCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	defer SetCacheDir("")
	p := testProfile()
	if err := os.WriteFile(filepath.Join(dir, FileName(p, 42, 0)), data, 0o644); err != nil {
		t.Fatal(err)
	}
	rec := SharedRecording(p, 42, 0, 64)
	if st := CacheStats(); st.LoadErrors != 1 || st.FileLoads != 0 {
		t.Errorf("cache counters %+v, want one load error and no file load", st)
	}
	g, rp := NewGenerator(p, 42, 0), NewReplayer(rec)
	for i := 0; i < 64; i++ {
		if a, b := g.Next(), rp.Next(); a != b {
			t.Fatalf("instruction %d of the fallback recording differs from generation", i)
		}
	}
}
