// Chaos tests for the shared trace-recording cache: injected panics and
// mid-sweep cancellation must not corrupt or evict the process-wide
// recordings that record-once/replay-many shares across sweep cells.
package faultinject_test

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"vertical3d/internal/config"
	"vertical3d/internal/experiments"
	"vertical3d/internal/guard/faultinject"
	"vertical3d/internal/parallel"
	"vertical3d/internal/trace"
	"vertical3d/internal/workload"
)

// TestChaosSharedRecordingsSurvivePanics runs the Fig6 chaos scenario with
// the trace cache enabled (the default) and checks the replay contract:
//
//  1. healthy cells of every poisoned keep-going sweep are bit-identical to
//     a fault-free reference run,
//  2. the panics never force a re-recording — across all chaos runs the
//     cache still holds exactly one recording per profile, and
//  3. a final fault-free run replaying from the chaos-survived recordings
//     is bit-identical to the reference, proving the shared buffers were
//     neither corrupted nor evicted by recovered panics.
func TestChaosSharedRecordingsSurvivePanics(t *testing.T) {
	trace.ResetCache()
	defer trace.ResetCache()
	suite, profiles, opt := fig6Fixture(t)
	// Each sweep releases its recordings when it returns; holding them
	// across every sweep below lets them all replay the reference run's.
	for _, p := range profiles {
		defer trace.Hold(p, opt.Seed, opt.StreamID)()
	}

	ref, err := experiments.Fig6With(suite, profiles, opt)
	if err != nil {
		t.Fatal(err)
	}
	wantMisses := uint64(len(profiles))
	if st := trace.CacheStats(); st.Misses != wantMisses {
		t.Fatalf("reference run recorded %d streams, want %d", st.Misses, wantMisses)
	}
	victimBench, victim := profiles[1].Name, victimDesign(t)

	for _, w := range workerCounts {
		in := faultinject.New()
		in.PanicAt(faultinject.Key(victimBench, victim.String()))
		copt := opt
		copt.Workers = w
		copt.KeepGoing = true
		copt.CellHook = in.Hook()
		f, err := experiments.Fig6With(suite, profiles, copt)
		if err != nil {
			t.Fatalf("workers=%d: keep-going sweep must complete: %v", w, err)
		}
		var pe *parallel.PanicError
		if !errors.As(f.Errors[victimBench][victim], &pe) {
			t.Fatalf("workers=%d: poisoned cell error = %v, want *parallel.PanicError", w, f.Errors[victimBench][victim])
		}
		for _, b := range ref.Benchmarks {
			for _, d := range config.SingleCoreDesigns() {
				if b == victimBench && d == victim {
					continue
				}
				if !reflect.DeepEqual(f.Runs[b][d], ref.Runs[b][d]) {
					t.Errorf("workers=%d: healthy cell %s/%s differs from the fault-free run", w, b, d)
				}
			}
		}
		// The chaos sweep must have replayed the reference run's recordings,
		// not re-recorded them: miss count frozen since the reference run.
		if st := trace.CacheStats(); st.Misses != wantMisses {
			t.Fatalf("workers=%d: chaos run re-recorded streams: %d misses, want %d", w, st.Misses, wantMisses)
		}
	}

	// Recordings that lived through every panic must still replay the exact
	// reference streams.
	again, err := experiments.Fig6With(suite, profiles, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again.Runs, ref.Runs) {
		t.Error("fault-free run after the chaos sweeps differs — shared recordings were corrupted")
	}
	if st := trace.CacheStats(); st.Misses != wantMisses {
		t.Errorf("final run re-recorded streams: %d misses, want %d (eviction under chaos?)", st.Misses, wantMisses)
	}
}

// TestChaosPanicDuringRecordingDoesNotPoisonCache panics inside the very
// first cell that would record a profile's stream (at Workers=1 the victim
// is the first cell to touch that key). The next cell of the same profile
// must then record the stream itself and every healthy cell must stay
// bit-identical to a fault-free run: a panicking first toucher may waste
// its own cell but must never leave a broken, truncated or missing
// recording behind for the survivors.
func TestChaosPanicDuringRecordingDoesNotPoisonCache(t *testing.T) {
	trace.ResetCache()
	defer trace.ResetCache()
	suite, profiles, opt := fig6Fixture(t)
	ref, err := experiments.Fig6With(suite, profiles, opt)
	if err != nil {
		t.Fatal(err)
	}

	trace.ResetCache()
	// Workers=1 dispatches cells sequentially in (benchmark-major,
	// design-minor) order, so cell 0 — profiles[0] × designs[0] — is the
	// cell whose replayer would trigger the recording of profile 0's
	// stream. Poison exactly that cell.
	first := config.SingleCoreDesigns()[0]
	in := faultinject.New()
	in.PanicAt(faultinject.Key(profiles[0].Name, first.String()))
	copt := opt
	copt.Workers = 1
	copt.KeepGoing = true
	copt.CellHook = in.Hook()
	f, err := experiments.Fig6With(suite, profiles, copt)
	if err != nil {
		t.Fatal(err)
	}
	if f.FailedCells() != 1 {
		t.Fatalf("%d failed cells, want 1", f.FailedCells())
	}
	for _, b := range ref.Benchmarks {
		for _, d := range config.SingleCoreDesigns() {
			if b == profiles[0].Name && d == first {
				continue
			}
			if !reflect.DeepEqual(f.Runs[b][d], ref.Runs[b][d]) {
				t.Errorf("healthy cell %s/%s differs after the recorder cell panicked", b, d)
			}
		}
	}
	if st := trace.CacheStats(); st.Misses != uint64(len(profiles)) {
		t.Errorf("cache holds %d recordings, want %d (one per profile)", st.Misses, len(profiles))
	}
}

// TestChaosCancellationLeavesRecordingsIntact cancels a pool sweep whose
// cells replay a shared recording. Cells past the cancellation point are
// skipped, but the recording itself must survive: the cache still holds
// exactly one copy and it still replays bit-identically to a fresh
// generator.
func TestChaosCancellationLeavesRecordingsIntact(t *testing.T) {
	trace.ResetCache()
	defer trace.ResetCache()
	prof, err := workload.ByName("Mcf")
	if err != nil {
		t.Fatal(err)
	}
	const n = 12
	const cancelAt = 3
	const instrs = 5_000
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var mu sync.Mutex
	sums := map[int]uint64{}
	pool := parallel.Pool{Workers: 1}
	_, errs := parallel.MapPartial(ctx, pool, n, func(_ context.Context, i int) (int, error) {
		r := trace.NewReplayer(trace.SharedRecording(prof, 42, 0, instrs))
		var sum uint64
		for k := 0; k < instrs; k++ {
			sum += r.Next().PC
		}
		mu.Lock()
		sums[i] = sum
		mu.Unlock()
		if i == cancelAt {
			cancel()
		}
		return i, nil
	})
	for i := cancelAt + 1; i < n; i++ {
		if !errors.Is(errs[i], context.Canceled) {
			t.Errorf("cell %d after the cancel: errs=%v, want context.Canceled", i, errs[i])
		}
	}
	for i := 1; i <= cancelAt; i++ {
		if sums[i] != sums[0] {
			t.Errorf("cell %d replayed a different stream than cell 0", i)
		}
	}
	st := trace.CacheStats()
	if st.Misses != 1 {
		t.Errorf("cache recorded %d streams, want 1", st.Misses)
	}
	// The surviving recording still matches generation exactly.
	want := trace.NewGenerator(prof, 42, 0)
	r := trace.NewReplayer(trace.SharedRecording(prof, 42, 0, instrs))
	for k := 0; k < instrs; k++ {
		if g, x := want.Next(), r.Next(); x != g {
			t.Fatalf("instruction %d differs after the cancelled sweep", k)
		}
	}
	if st := trace.CacheStats(); st.Misses != 1 {
		t.Errorf("post-cancel verification re-recorded the stream: %+v", st)
	}
}
