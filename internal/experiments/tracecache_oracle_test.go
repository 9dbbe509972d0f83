package experiments

import (
	"reflect"
	"testing"

	"vertical3d/internal/config"
	"vertical3d/internal/multicore"
	"vertical3d/internal/tech"
	"vertical3d/internal/trace"
	"vertical3d/internal/uarch"
)

// TestOracleFig6TraceCacheInvariant is the record-once/replay-many
// acceptance gate for the single-core sweep: with the shared-recording
// cache enabled and disabled, at one and eight workers, on both kernels,
// every Run map and derived ratio must deep-equal. Runs carry the full
// Stats/HierStats/Energy of every cell, so this subsumes a per-cell
// comparison of everything the pipeline measures.
func TestOracleFig6TraceCacheInvariant(t *testing.T) {
	trace.ResetCache()
	defer trace.ResetCache()
	s, err := config.Derive(tech.N22())
	if err != nil {
		t.Fatal(err)
	}
	profiles := oracleProfiles(t, "Mcf", "Gobmk")
	opt := RunOptions{Warmup: 4_000, Measure: 15_000, Seed: 5}
	// Each sweep releases its recordings when it returns; holding them
	// across the variants keeps one recording per key for all of them.
	defer opt.holdCaches(s, profiles, nil)()

	var results []*Fig6Result
	for _, k := range []uarch.Kernel{uarch.KernelReference, uarch.KernelEvent} {
		for _, w := range []int{1, 8} {
			for _, noCache := range []bool{false, true} {
				o := opt
				o.Kernel, o.Workers, o.NoTraceCache = k, w, noCache
				f, err := Fig6With(s, profiles, o)
				if err != nil {
					t.Fatalf("kernel=%v workers=%d noCache=%v: %v", k, w, noCache, err)
				}
				results = append(results, f)
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
	// The cached variants must actually have shared recordings: one miss
	// per (profile, stream) key and a hit for every other cell.
	st := trace.CacheStats()
	if st.Misses != uint64(len(profiles)) {
		t.Errorf("trace cache recorded %d streams, want %d (one per profile)", st.Misses, len(profiles))
	}
	if st.Hits == 0 {
		t.Error("trace cache saw no hits across the sweep cells")
	}
}

// TestOracleFig9TraceCacheInvariant is the multicore counterpart,
// including the per-core stream keying (core i = stream StreamBase+i).
func TestOracleFig9TraceCacheInvariant(t *testing.T) {
	trace.ResetCache()
	defer trace.ResetCache()
	s, err := config.Derive(tech.N22())
	if err != nil {
		t.Fatal(err)
	}
	profiles := oracleProfiles(t, "Fft", "Barnes")
	opt := multicore.Options{TotalInstrs: 30_000, WarmupPerCore: 2_000, Phases: 2, Seed: 5}

	var results []*Fig9Result
	for _, k := range []uarch.Kernel{uarch.KernelReference, uarch.KernelEvent} {
		for _, w := range []int{1, 8} {
			for _, noCache := range []bool{false, true} {
				o := opt
				o.Kernel, o.Workers, o.NoTraceCache = k, w, noCache
				f, err := Fig9With(s, profiles, o)
				if err != nil {
					t.Fatalf("kernel=%v workers=%d noCache=%v: %v", k, w, noCache, err)
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
	if st := trace.CacheStats(); st.Hits == 0 {
		t.Error("trace cache saw no hits across the multicore sweep cells")
	}
}

// TestStreamIDPlumbing pins the stale-seed fix: RunOptions.StreamID must
// reach the generator (distinct ids ⇒ distinct streams ⇒ distinct
// results; equal ids ⇒ bit-identical results), with and without the
// trace cache, and multicore's StreamBase must shift every core's stream.
func TestStreamIDPlumbing(t *testing.T) {
	trace.ResetCache()
	defer trace.ResetCache()
	s, err := config.Derive(tech.N22())
	if err != nil {
		t.Fatal(err)
	}
	profiles := oracleProfiles(t, "Mcf")
	designs := []config.Design{config.Base}
	base := RunOptions{Warmup: 2_000, Measure: 8_000, Seed: 5}

	run := func(stream int, noCache bool) *Fig6Result {
		o := base
		o.StreamID, o.NoTraceCache = stream, noCache
		f, err := Fig6WithDesigns(s, profiles, designs, o)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	s0, s7 := run(0, false), run(7, false)
	if reflect.DeepEqual(s0.Runs, s7.Runs) {
		t.Error("StreamID=0 and StreamID=7 produced identical runs — stream id is not plumbed through")
	}
	if !reflect.DeepEqual(s7.Runs, run(7, false).Runs) {
		t.Error("same StreamID is not deterministic")
	}
	if !reflect.DeepEqual(s7.Runs, run(7, true).Runs) {
		t.Error("StreamID=7 differs between cached replay and per-cell generation")
	}

	// Multicore: shifting StreamBase must change the streams the cores
	// draw, deterministically.
	prof := oracleProfiles(t, "Fft")[0]
	mcs := config.DeriveMulticore(s)
	mrun := func(streamBase int, noCache bool) multicore.RunResult {
		o := multicore.Options{TotalInstrs: 20_000, WarmupPerCore: 1_000, Phases: 2, Seed: 5,
			StreamBase: streamBase, NoTraceCache: noCache}
		r, err := multicore.Run(mcs[config.MCBase], prof, o)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	m0, m100 := mrun(0, false), mrun(100, false)
	if reflect.DeepEqual(m0.CoreStats, m100.CoreStats) {
		t.Error("StreamBase=0 and StreamBase=100 produced identical multicore runs")
	}
	if !reflect.DeepEqual(m100, mrun(100, false)) {
		t.Error("same StreamBase is not deterministic")
	}
	if !reflect.DeepEqual(m100, mrun(100, true)) {
		t.Error("StreamBase=100 differs between cached replay and per-cell generation")
	}
}
