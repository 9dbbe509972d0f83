package experiments

import (
	"reflect"
	"testing"

	"vertical3d/internal/config"
	"vertical3d/internal/multicore"
	"vertical3d/internal/tech"
	"vertical3d/internal/trace"
	"vertical3d/internal/uarch"
	"vertical3d/internal/warm"
)

// sampledOracleOptions returns sampled sweep sizing small enough for a
// unit test but large enough for several sampling intervals per cell.
func sampledOracleOptions() RunOptions {
	return RunOptions{
		Warmup: 6_000, Measure: 24_000, Seed: 5,
		Sample:       true,
		SampleParams: uarch.SampleParams{Interval: 4_000, Warmup: 500, Unit: 1_000},
	}
}

// TestOracleFig6WarmCacheInvariant pins that the warm-state snapshot
// cache no longer touches a single-core cell: sampled cells fast-forward
// over their probe tapes, so a sampled Fig6 sweep must deep-equal with the
// cache on and off, on both kernels and at one and eight workers, and the
// cache must neither build nor restore a snapshot for it.
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
		for _, w := range []int{1, 8} {
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
				if st := warm.Stats(); st != (warm.Counters{}) {
					t.Errorf("kernel=%v workers=%d warm=%v: single-core sweep moved the snapshot cache: %+v", k, w, warmOn, st)
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

// TestOracleWarmSnapshotNoRebuild is the no-rebuild oracle: once a sampled
// Fig9 sweep has populated the snapshot cache, an identical sweep must be
// served entirely from snapshots — no multicore warmup is built again, and
// every cell restores — with results deep-equal to the sweep that built
// them.
func TestOracleWarmSnapshotNoRebuild(t *testing.T) {
	trace.ResetCache()
	warm.ResetCache()
	defer trace.ResetCache()
	defer warm.ResetCache()
	s, err := config.Derive(tech.N22())
	if err != nil {
		t.Fatal(err)
	}
	profiles := oracleProfiles(t, "Fft")
	designs := config.MulticoreDesigns()
	opt := multicore.Options{TotalInstrs: 30_000, WarmupPerCore: 2_000, Phases: 2, Seed: 5, Sample: true}
	opt.WarmCache = true
	// Each sweep releases its snapshots when it returns; holding them
	// across both sweeps lets the second one be served from the first's.
	mcs := config.DeriveMulticore(s)
	for _, d := range designs {
		defer multicore.Hold(mcs[d], profiles[0], opt)()
	}

	first, err := Fig9WithDesigns(s, profiles, designs, opt)
	if err != nil {
		t.Fatal(err)
	}
	built := warm.Stats()
	if built.Misses == 0 || built.BuiltInstrs == 0 {
		t.Fatalf("the first sweep built no snapshot: %+v", built)
	}
	second, err := Fig9WithDesigns(s, profiles, designs, opt)
	if err != nil {
		t.Fatalf("snapshot-served sweep failed: %v", err)
	}
	st := warm.Stats()
	if st.Misses != built.Misses || st.BuiltInstrs != built.BuiltInstrs {
		t.Errorf("a fully populated cache built %d more snapshot(s), %d more instrs, want none",
			st.Misses-built.Misses, st.BuiltInstrs-built.BuiltInstrs)
	}
	if st.Hits-built.Hits != uint64(len(designs)) {
		t.Errorf("the second sweep restored %d cell(s), want all %d", st.Hits-built.Hits, len(designs))
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
