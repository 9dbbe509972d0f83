package trace

import (
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
	c := SharedRecording(p, 42, 1, 1_000)
	if c == a {
		t.Fatal("different stream returned the same recording")
	}
	d := SharedRecording(p, 43, 0, 1_000)
	if d == a {
		t.Fatal("different seed returned the same recording")
	}
	q := p
	q.BranchBias = 0.51
	e := SharedRecording(q, 42, 0, 1_000)
	if e == a {
		t.Fatal("different profile returned the same recording")
	}
	st := CacheStats()
	if st.Misses != 4 || st.Hits != 1 {
		t.Fatalf("CacheStats = %+v, want 4 misses / 1 hit", st)
	}
	if want := a.Bytes() + c.Bytes() + d.Bytes() + e.Bytes(); CachedBytes() != want || want < 4*1_000*4 {
		t.Fatalf("CachedBytes = %d, want the four recordings' %d (at least a control word per instruction)", CachedBytes(), want)
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
