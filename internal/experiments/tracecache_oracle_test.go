package experiments

import (
	"reflect"
	"testing"

	"vertical3d/internal/config"
	"vertical3d/internal/multicore"
	"vertical3d/internal/registry"
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

// TestOracleFig6TraceCacheInvariant is the record-once/replay-many
// acceptance gate for the single-core sweep: with the trace cache enabled
// and disabled, at one and eight workers, every Run map and derived ratio
// must deep-equal, for full-mode sweeps on both kernels and for sampled
// ones on the event kernel. Runs carry the full Stats/HierStats/Energy of
// every cell, so this subsumes a per-cell comparison of everything the
// pipeline measures.
//
// Sharing is asserted too: full and sampled cells alike replay one probe
// tape per (profile, geometry) across all variants — sampled cells
// fast-forward over it — and record no trace.
func TestOracleFig6TraceCacheInvariant(t *testing.T) {
	trace.ResetCache()
	warm.ResetCache()
	defer trace.ResetCache()
	defer warm.ResetCache()
	s, err := config.Derive(tech.N22())
	if err != nil {
		t.Fatal(err)
	}
	profiles := oracleProfiles(t, "Mcf", "Gobmk")
	designs := config.SingleCoreDesigns()
	full := RunOptions{Warmup: 4_000, Measure: 15_000, Seed: 5}
	sampled := sampledOracleOptions()
	// Each sweep releases its tapes and recordings when it returns;
	// holding them across the variants keeps one per key for all of them.
	var holds registry.Releases
	for _, opt := range []RunOptions{full, sampled} {
		for _, prof := range profiles {
			for _, d := range designs {
				holds = append(holds, opt.holdCaches(s.Configs[d], prof))
			}
		}
	}
	defer holds.Release()

	variants := func(opt RunOptions, kernels ...uarch.Kernel) {
		var results []*Fig6Result
		for _, k := range kernels {
			for _, w := range []int{1, 8} {
				for _, noCache := range []bool{false, true} {
					o := opt
					o.Kernel, o.Workers, o.NoTraceCache = k, w, noCache
					f, err := Fig6With(s, profiles, o)
					if err != nil {
						t.Fatalf("sample=%v kernel=%v workers=%d noCache=%v: %v", opt.Sample, k, w, noCache, err)
					}
					results = append(results, f)
				}
			}
		}
		base := results[0]
		for i, f := range results[1:] {
			if !reflect.DeepEqual(base.Runs, f.Runs) {
				t.Errorf("sample=%v: Fig6 Runs diverge between variant 0 and %d", opt.Sample, i+1)
			}
			if !reflect.DeepEqual(base.Speedup, f.Speedup) || !reflect.DeepEqual(base.NormEnergy, f.NormEnergy) {
				t.Errorf("sample=%v: Fig6 derived ratios diverge between variant 0 and %d", opt.Sample, i+1)
			}
		}
	}

	// Full mode: one tape per (profile, geometry), no recording at all.
	variants(full, uarch.KernelReference, uarch.KernelEvent)
	geoms := map[warm.Geometry]bool{}
	for _, d := range designs {
		geoms[warm.GeometryOf(s.Configs[d])] = true
	}
	if n, want := warm.TapeBuilds(), uint64(len(profiles)*len(geoms)); n != want {
		t.Errorf("full-mode variants built %d probe tapes, want %d (one per profile and geometry)", n, want)
	}
	if st := trace.CacheStats(); st.Misses != 0 || st.Hits != 0 {
		t.Errorf("full-mode variants touched the trace cache: %+v, want no recording", st)
	}

	// Sampled mode replays the same tapes: same seed and stream, so no
	// new tape and still no recording. The reference kernel is slow under
	// -race, and TestOracleFig6TapeInvariant covers it, so one kernel
	// suffices here.
	variants(sampled, uarch.KernelEvent)
	if n, want := warm.TapeBuilds(), uint64(len(profiles)*len(geoms)); n != want {
		t.Errorf("sampled variants built %d more probe tapes, want none", n-want)
	}
	if st := trace.CacheStats(); st.Misses != 0 || st.Hits != 0 {
		t.Errorf("sampled variants touched the trace cache: %+v, want no recording", st)
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
			StreamBase: streamBase}
		o.NoTraceCache = noCache
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
