// Chaos tests for the shared trace-recording and probe-tape caches:
// injected panics and mid-sweep cancellation must not corrupt or evict the
// process-wide recordings and tapes that sweep cells share.
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
	"vertical3d/internal/registry"
	"vertical3d/internal/trace"
	"vertical3d/internal/uarch"
	"vertical3d/internal/warm"
	"vertical3d/internal/workload"
)

// sharedMode is one way a Fig6 sweep runs its cells, full or sampled.
// Both replay one probe tape per (profile, geometry) — sampled cells
// fast-forward over it too — and record no trace.
type sharedMode struct {
	name string
	opt  experiments.RunOptions
}

// sharedModes returns the full-mode and sampled variants of fig6Fixture,
// the number of probe tapes one sweep over the fixture builds, and a hold
// that keeps those tapes resident across several sweeps.
func sharedModes(t *testing.T) (*config.Suite, []trace.Profile, []sharedMode, uint64, func() (release func())) {
	t.Helper()
	suite, profiles, full := fig6Fixture(t)
	var tapes []warm.TapeIdentity
	geoms := map[warm.Geometry]bool{}
	for _, p := range profiles {
		for _, d := range config.SingleCoreDesigns() {
			g := warm.GeometryOf(suite.Configs[d])
			geoms[g] = true
			tapes = append(tapes, warm.TapeIdentity{Prof: p, Seed: full.Seed, Stream: full.StreamID, Geom: g})
		}
	}
	sampled := full
	sampled.Sample = true
	sampled.SampleParams = uarch.SampleParams{Interval: 4_000, Warmup: 500, Unit: 1_000}
	hold := func() func() {
		var rs registry.Releases
		for _, id := range tapes {
			rs = append(rs, warm.HoldTape(id))
		}
		return rs.Release
	}
	modes := []sharedMode{{name: "full", opt: full}, {name: "sampled", opt: sampled}}
	return suite, profiles, modes, uint64(len(profiles) * len(geoms)), hold
}

// resetShared empties the trace and warm registries now and when the test
// ends.
func resetShared(t *testing.T) {
	trace.ResetCache()
	warm.ResetCache()
	t.Cleanup(func() {
		trace.ResetCache()
		warm.ResetCache()
	})
}

// TestChaosSharedRecordingsSurvivePanics runs the Fig6 chaos scenario with
// the trace cache enabled (the default), in full and sampled mode (shared
// probe tapes either way), and checks the replay contract:
//
//  1. healthy cells of every poisoned keep-going sweep are bit-identical to
//     a fault-free reference run,
//  2. the panics never force a rebuild — across all chaos runs the caches
//     still hold exactly one tape per profile and geometry, and
//  3. a final fault-free run replaying from the chaos-survived tapes is
//     bit-identical to the reference, proving the shared buffers were
//     neither corrupted nor evicted by recovered panics.
//
// The sweeps record no trace at all.
func TestChaosSharedRecordingsSurvivePanics(t *testing.T) {
	suite, profiles, modes, want, hold := sharedModes(t)
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			resetShared(t)
			// Each sweep releases its entries when it returns; holding them
			// across every sweep below lets them all replay the reference
			// run's.
			defer hold()()
			opt := m.opt

			ref, err := experiments.Fig6With(suite, profiles, opt)
			if err != nil {
				t.Fatal(err)
			}
			if n := warm.TapeBuilds(); n != want {
				t.Fatalf("reference run built %d shared entries, want %d", n, want)
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
				// The chaos sweep must have replayed the reference run's
				// entries, not rebuilt them: build count frozen since then.
				if n := warm.TapeBuilds(); n != want {
					t.Fatalf("workers=%d: chaos run rebuilt shared entries: %d built, want %d", w, n, want)
				}
			}

			// Entries that lived through every panic must still replay the
			// exact reference results.
			again, err := experiments.Fig6With(suite, profiles, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(again.Runs, ref.Runs) {
				t.Error("fault-free run after the chaos sweeps differs — shared entries were corrupted")
			}
			if n := warm.TapeBuilds(); n != want {
				t.Errorf("final run rebuilt shared entries: %d built, want %d (eviction under chaos?)", n, want)
			}
			if st := trace.CacheStats(); st.Misses != 0 {
				t.Errorf("taped sweeps recorded %d trace(s), want none", st.Misses)
			}
		})
	}
}

// TestChaosPanicDuringRecordingDoesNotPoisonCache panics inside the very
// first cell that would build a profile's probe tape (at Workers=1 the
// victim is the first cell to touch that key). The next cell of the same
// profile must then build the tape itself and every healthy cell must stay
// bit-identical to a fault-free run: a panicking first toucher may waste
// its own cell but must never leave a broken, truncated or missing tape
// behind for the survivors.
func TestChaosPanicDuringRecordingDoesNotPoisonCache(t *testing.T) {
	suite, profiles, modes, want, _ := sharedModes(t)
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			resetShared(t)
			ref, err := experiments.Fig6With(suite, profiles, m.opt)
			if err != nil {
				t.Fatal(err)
			}

			trace.ResetCache()
			warm.ResetCache()
			// Workers=1 dispatches cells sequentially, starting with cell 0
			// — profiles[0] × designs[0] — the cell that would build
			// profile 0's shared entry. Poison exactly that cell.
			first := config.SingleCoreDesigns()[0]
			in := faultinject.New()
			in.PanicAt(faultinject.Key(profiles[0].Name, first.String()))
			copt := m.opt
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
						t.Errorf("healthy cell %s/%s differs after the first cell panicked", b, d)
					}
				}
			}
			if n := warm.TapeBuilds(); n != want {
				t.Errorf("the sweep built %d shared entries, want %d", n, want)
			}
		})
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
