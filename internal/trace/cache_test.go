package trace

import (
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// TestSharedRecordingIdentityAndCounters checks the keyed cache returns
// one shared recording per (profile, seed, stream) and counts hits and
// misses.
func TestSharedRecordingIdentityAndCounters(t *testing.T) {
	ResetCache()
	defer ResetCache()
	p := testProfile()

	a := SharedRecording(p, 42, 0, 1_000)
	b := SharedRecording(p, 42, 0, 1_000)
	if a != b {
		t.Fatal("same key returned distinct recordings")
	}
	if c := SharedRecording(p, 42, 1, 1_000); c == a {
		t.Fatal("different stream returned the same recording")
	}
	if d := SharedRecording(p, 43, 0, 1_000); d == a {
		t.Fatal("different seed returned the same recording")
	}
	q := p
	q.BranchBias = 0.51
	if e := SharedRecording(q, 42, 0, 1_000); e == a {
		t.Fatal("different profile returned the same recording")
	}
	st := CacheStats()
	if st.Misses != 4 || st.Hits != 1 {
		t.Fatalf("CacheStats = %+v, want 4 misses / 1 hit", st)
	}
	if CachedBytes() < 4*1_000*31 {
		t.Fatalf("CachedBytes = %d, want at least %d", CachedBytes(), 4*1_000*31)
	}

	ResetCache()
	if st := CacheStats(); st != (CacheCounters{}) {
		t.Fatalf("CacheStats after reset = %+v, want zeroes", st)
	}
	if f := SharedRecording(p, 42, 0, 1_000); f == a {
		t.Fatal("ResetCache did not evict the recording")
	}
}

// TestSharedRecordingSingleFlight launches racing lookups of one cold key;
// every caller must get the same recording and the stream must be correct
// (the single-flight winner records once, everyone else waits).
func TestSharedRecordingSingleFlight(t *testing.T) {
	ResetCache()
	defer ResetCache()
	p := testProfile()

	const workers = 16
	recs := make([]*Recording, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			recs[w] = SharedRecording(p, 77, 0, 2_000)
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if recs[w] != recs[0] {
			t.Fatal("racing callers received distinct recordings")
		}
	}
	st := CacheStats()
	if st.Hits+st.Misses != workers || st.Misses != 1 {
		t.Fatalf("CacheStats = %+v, want exactly 1 miss out of %d lookups", st, workers)
	}
	want := NewGenerator(p, 77, 0)
	r := NewReplayer(recs[0])
	for i := 0; i < 2_000; i++ {
		if g, x := want.Next(), r.Next(); x != g {
			t.Fatalf("instruction %d of the single-flight recording differs", i)
		}
	}
}

// TestCacheDirSaveAndLoad simulates two runs sharing a -trace-dir: the
// first records and saves, the second (fresh in-memory cache) loads the
// file instead of regenerating, bit-identically.
func TestCacheDirSaveAndLoad(t *testing.T) {
	dir := t.TempDir()
	ResetCache()
	defer func() {
		ResetCache()
		if err := SetCacheDir(""); err != nil {
			t.Fatal(err)
		}
	}()
	if err := SetCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	if CacheDir() != dir {
		t.Fatalf("CacheDir() = %q, want %q", CacheDir(), dir)
	}
	p := testProfile()

	// Run 1: miss → record → save.
	first := SharedRecording(p, 42, 0, 1_500)
	path := filepath.Join(dir, FileName(p, 42, 0))
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("recording was not saved to the cache dir: %v", err)
	}
	if st := CacheStats(); st.FileLoads != 0 || st.SaveErrors != 0 {
		t.Fatalf("run 1 CacheStats = %+v, want no file loads and no save errors", st)
	}

	// Run 2: fresh process (in-memory cache emptied) → file load.
	ResetCache()
	second := SharedRecording(p, 42, 0, 1_500)
	if st := CacheStats(); st.FileLoads != 1 {
		t.Fatalf("run 2 CacheStats = %+v, want 1 file load", st)
	}
	if second == first {
		t.Fatal("run 2 should hold a freshly loaded recording")
	}
	for i := 0; i < 1_500; i++ {
		if first.At(i) != second.At(i) {
			t.Fatalf("instruction %d differs between recorded and file-loaded runs", i)
		}
	}
	// Extension past the stored length still matches generation.
	want := NewGenerator(p, 42, 0)
	r := NewReplayer(second)
	for i := 0; i < 3_000; i++ {
		if g, x := want.Next(), r.Next(); x != g {
			t.Fatalf("instruction %d differs after post-load extension", i)
		}
	}
}

// TestCacheDirIgnoresMismatchedFile plants a file whose name matches a key
// but whose header identity differs; the loader must reject it and record
// fresh rather than replay a wrong stream.
func TestCacheDirIgnoresMismatchedFile(t *testing.T) {
	dir := t.TempDir()
	ResetCache()
	defer func() {
		ResetCache()
		if err := SetCacheDir(""); err != nil {
			t.Fatal(err)
		}
	}()
	if err := SetCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	p := testProfile()

	// A recording of a DIFFERENT stream saved under this key's file name.
	wrong := Record(p, 99, 9, 500)
	if err := SaveFile(filepath.Join(dir, FileName(p, 42, 0)), wrong); err != nil {
		t.Fatal(err)
	}
	rec := SharedRecording(p, 42, 0, 500)
	if st := CacheStats(); st.FileLoads != 0 {
		t.Fatalf("mismatched file was trusted: %+v", st)
	}
	want := NewGenerator(p, 42, 0)
	for i := 0; i < 500; i++ {
		if g := want.Next(); rec.At(i) != g {
			t.Fatalf("instruction %d wrong after rejecting mismatched file", i)
		}
	}
}

// TestSetCacheDirCreatesDirectory checks the directory is created and that
// an uncreatable path errors.
func TestSetCacheDirCreatesDirectory(t *testing.T) {
	base := t.TempDir()
	defer func() {
		if err := SetCacheDir(""); err != nil {
			t.Fatal(err)
		}
	}()
	nested := filepath.Join(base, "a", "b", "traces")
	if err := SetCacheDir(nested); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(nested); err != nil || !fi.IsDir() {
		t.Fatalf("cache dir was not created: %v", err)
	}
	// A path under a regular file cannot be created.
	file := filepath.Join(base, "plain")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := SetCacheDir(filepath.Join(file, "sub")); err == nil {
		t.Fatal("SetCacheDir under a regular file should fail")
	}
}

// TestSharedRecordingHeldLifetime races holders and SharedRecording
// callers on one key: every caller shares one recording, the key is
// recorded once, and the entry leaves the cache when the last hold is
// released — while a key first recorded with no hold on it stays.
func TestSharedRecordingHeldLifetime(t *testing.T) {
	ResetCache()
	defer ResetCache()
	p := testProfile()

	pinned := SharedRecording(p, 7, 0, 500)

	const workers = 8
	var ready, wg sync.WaitGroup
	ready.Add(workers)
	wg.Add(workers)
	recs := make([]*Recording, workers)
	releases := make([]func(), workers)
	for i := range workers {
		go func() {
			defer wg.Done()
			releases[i] = Hold(p, 8, 0)
			ready.Done()
			recs[i] = SharedRecording(p, 8, 0, 500)
		}()
	}
	ready.Wait()
	wg.Wait()
	for i := range recs {
		if recs[i] != recs[0] {
			t.Fatalf("holder %d got a distinct recording", i)
		}
	}
	if st := CacheStats(); st.Misses != 2 {
		t.Fatalf("CacheStats = %+v, want 2 misses (one per key)", st)
	}
	if n := CachedRecordings(); n != 2 {
		t.Fatalf("CachedRecordings = %d while held, want 2", n)
	}

	// Release concurrently; a release called twice counts once.
	for _, rel := range releases[1:] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rel()
			rel()
		}()
	}
	wg.Wait()
	if n := CachedRecordings(); n != 2 {
		t.Fatalf("CachedRecordings = %d with one hold left, want 2", n)
	}
	releases[0]()
	if n := CachedRecordings(); n != 1 {
		t.Fatalf("CachedRecordings = %d after the last release, want 1 (the unscoped key)", n)
	}
	if CachedBytes() != pinned.Bytes() {
		t.Fatalf("CachedBytes = %d, want the unscoped recording's %d", CachedBytes(), pinned.Bytes())
	}

	// The released recording stays valid for a caller still replaying it.
	if got, want := recs[0].At(0), NewGenerator(p, 8, 0).Next(); got != want {
		t.Fatalf("released recording's first instruction = %+v, want %+v", got, want)
	}
	// An unscoped key survives holds and releases of its own.
	Hold(p, 7, 0)()
	if SharedRecording(p, 7, 0, 500) != pinned {
		t.Fatal("an unscoped recording left the cache")
	}
	// A released key records afresh.
	if SharedRecording(p, 8, 0, 500) == recs[0] {
		t.Fatal("a released key served its old recording")
	}
}
