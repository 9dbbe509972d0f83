package experiments

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"vertical3d/internal/config"
	"vertical3d/internal/multicore"
	"vertical3d/internal/tech"
	"vertical3d/internal/trace"
	"vertical3d/internal/uarch"
	"vertical3d/internal/warm"
)

// sampledOracleOptions returns sweep sizing small enough for a unit test
// but large enough that every cell crosses many snapshot-stride boundaries
// (stride = Interval/32 = 125).
func sampledOracleOptions() RunOptions {
	return RunOptions{
		Warmup: 6_000, Measure: 24_000, Seed: 5,
		Sample:       true,
		SampleParams: uarch.SampleParams{Interval: 4_000, Warmup: 500, Unit: 1_000},
	}
}

// TestOracleFig6WarmCacheInvariant is the warm-state snapshot acceptance
// gate for the single-core sweep: with the snapshot cache enabled and
// disabled, at one, two and eight workers, on both kernels, every Run map
// and derived ratio of a sampled sweep must deep-equal. Runs carry the full
// Stats/HierStats/Energy of every cell, so this subsumes a per-cell
// comparison of everything the pipeline measures — including the
// repriced ExtraFetch/ExtraData sums the sampling estimator regresses on.
// Every combination starts from cold trace and warm caches, so each
// warm-on sweep builds its ladders itself, concurrently with the cells
// that restore from them (two workers is the design-major schedule of a
// 2-core host: two profiles' ladders built side by side).
func TestOracleFig6WarmCacheInvariant(t *testing.T) {
	defer trace.ResetCache()
	defer warm.ResetCache()
	s, err := config.Derive(tech.N22())
	if err != nil {
		t.Fatal(err)
	}
	profiles := oracleProfiles(t, "Mcf", "Gobmk")
	opt := sampledOracleOptions()

	var results []*Fig6Result
	for _, k := range []uarch.Kernel{uarch.KernelReference, uarch.KernelEvent} {
		for _, w := range []int{1, 2, 8} {
			for _, warmOn := range []bool{false, true} {
				trace.ResetCache()
				warm.ResetCache()
				o := opt
				o.Kernel, o.Workers, o.WarmCache = k, w, warmOn
				f, err := Fig6With(s, profiles, o)
				if err != nil {
					t.Fatalf("kernel=%v workers=%d warm=%v: %v", k, w, warmOn, err)
				}
				results = append(results, f)
				if !warmOn {
					continue
				}
				// The ladders warmed instructions once and every reuse
				// skipped a fast-forward prefix.
				st := warm.Stats()
				if st.BuiltInstrs == 0 || st.SkippedInstrs == 0 || st.Hits == 0 {
					t.Errorf("kernel=%v workers=%d: cold warm-cache sweep built %d, skipped %d instrs with %d hits; want all > 0",
						k, w, st.BuiltInstrs, st.SkippedInstrs, st.Hits)
				}
			}
		}
	}
	base := results[0]
	for i, f := range results[1:] {
		if !reflect.DeepEqual(base.Runs, f.Runs) {
			t.Errorf("Fig6 Runs diverge between variant 0 and %d", i+1)
		}
		if !reflect.DeepEqual(base.Speedup, f.Speedup) || !reflect.DeepEqual(base.NormEnergy, f.NormEnergy) {
			t.Errorf("Fig6 derived ratios diverge between variant 0 and %d", i+1)
		}
	}
}

// TestOracleWarmSnapshotNoRebuild is the poisoned-builder oracle: once a
// sweep has populated the snapshot cache, an identical sweep must be
// served entirely from snapshots — the ladder builders must never warm
// another instruction. The build hook panicking inside a cell would fail
// that cell (and the sweep), and the atomic counter gives a readable
// failure even if a build happens outside any cell.
func TestOracleWarmSnapshotNoRebuild(t *testing.T) {
	trace.ResetCache()
	warm.ResetCache()
	defer trace.ResetCache()
	defer warm.ResetCache()
	defer warm.SetBuildHook(nil)
	s, err := config.Derive(tech.N22())
	if err != nil {
		t.Fatal(err)
	}
	profiles := oracleProfiles(t, "Mcf")
	opt := sampledOracleOptions()
	opt.WarmCache = true
	// Each sweep releases its ladders when it returns; holding them across
	// both sweeps lets the second one be served from the first's rungs.
	defer opt.holdCaches(s, profiles, config.SingleCoreDesigns())()

	first, err := Fig6With(s, profiles, opt)
	if err != nil {
		t.Fatal(err)
	}

	var rebuilds atomic.Uint64
	warm.SetBuildHook(func(id warm.Identity, from, to uint64) {
		rebuilds.Add(1)
		panic(fmt.Sprintf("warm builder re-ran for %s: [%d, %d)", id.Prof.Name, from, to))
	})
	second, err := Fig6With(s, profiles, opt)
	if err != nil {
		t.Fatalf("snapshot-served sweep failed: %v", err)
	}
	if n := rebuilds.Load(); n != 0 {
		t.Errorf("ladder builders warmed %d stretch(es) on a fully populated cache, want 0", n)
	}
	if !reflect.DeepEqual(first.Runs, second.Runs) {
		t.Error("snapshot-served sweep diverges from the sweep that built the snapshots")
	}
}

// TestOracleFig9WarmCacheInvariant is the multicore counterpart: one
// captured warmup per (profile, topology, geometry) identity, restored
// into every other design cell, must leave every Run map deep-equal to
// the uncached sweep at any worker count.
func TestOracleFig9WarmCacheInvariant(t *testing.T) {
	trace.ResetCache()
	warm.ResetCache()
	defer trace.ResetCache()
	defer warm.ResetCache()
	s, err := config.Derive(tech.N22())
	if err != nil {
		t.Fatal(err)
	}
	profiles := oracleProfiles(t, "Fft", "Barnes")
	opt := multicore.Options{TotalInstrs: 30_000, WarmupPerCore: 2_000, Phases: 2, Seed: 5, Sample: true}

	var results []*Fig9Result
	for _, k := range []uarch.Kernel{uarch.KernelReference, uarch.KernelEvent} {
		for _, w := range []int{1, 8} {
			for _, warmOn := range []bool{false, true} {
				o := opt
				o.Kernel, o.Workers, o.WarmCache = k, w, warmOn
				f, err := Fig9With(s, profiles, o)
				if err != nil {
					t.Fatalf("kernel=%v workers=%d warm=%v: %v", k, w, warmOn, err)
				}
				results = append(results, f)
			}
		}
	}
	base := results[0]
	for i, f := range results[1:] {
		if !reflect.DeepEqual(base.Runs, f.Runs) {
			t.Errorf("Fig9 Runs diverge between variant 0 and %d", i+1)
		}
		if !reflect.DeepEqual(base.Speedup, f.Speedup) || !reflect.DeepEqual(base.NormEnergy, f.NormEnergy) {
			t.Errorf("Fig9 derived ratios diverge between variant 0 and %d", i+1)
		}
	}
	if st := warm.Stats(); st.Hits == 0 && st.SkippedInstrs == 0 {
		t.Error("multicore warm cache skipped no warmups across the sweep cells")
	}
}
