package experiments

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"vertical3d/internal/config"
	"vertical3d/internal/multicore"
	"vertical3d/internal/parallel"
	"vertical3d/internal/tech"
	"vertical3d/internal/trace"
	"vertical3d/internal/warm"
	"vertical3d/internal/workload"
)

// residentPeak is a CellHook that records the most trace recordings and
// probe tapes resident at any cell start.
type residentPeak struct {
	mu          sync.Mutex
	recs, tapes int
}

func (p *residentPeak) hook(string, string) {
	tp, _ := warm.ResidentTapes()
	r := trace.CachedRecordings()
	p.mu.Lock()
	p.recs, p.tapes = max(p.recs, r), max(p.tapes, tp)
	p.mu.Unlock()
}

// requireEmpty fails unless the trace and tape registries hold nothing.
func requireEmpty(t *testing.T, when string) {
	t.Helper()
	tp, tb := warm.ResidentTapes()
	if r := trace.CachedRecordings(); r != 0 || tp != 0 || tb != 0 {
		t.Errorf("%s: %d recording(s), %d probe tape(s) of %d bytes resident, want none",
			when, r, tp, tb)
	}
}

// TestTraceCacheReleasedAfterSweeps checks the sweep-scoped lifetime of
// the trace and tape registries: every entry point keeps its probe tapes
// and recordings resident while its cells run — each stream recorded
// once — and releases them when it returns, on success and on failure. A single-core sweep, sampled or not, keeps no recording
// resident at all, and a recording made outside any sweep stays.
func TestTraceCacheReleasedAfterSweeps(t *testing.T) {
	trace.ResetCache()
	warm.ResetCache()
	defer trace.ResetCache()
	defer warm.ResetCache()
	s, err := config.Derive(tech.N22())
	if err != nil {
		t.Fatal(err)
	}
	profiles := oracleProfiles(t, "Mcf", "Gobmk")

	opt := sampledOracleOptions()
	var p6 residentPeak
	opt.CellHook = p6.hook
	if _, err := Fig6With(s, profiles, opt); err != nil {
		t.Fatal(err)
	}
	if st := trace.CacheStats(); st.Misses != 0 {
		t.Errorf("sampled Fig6 recorded %d streams, want none", st.Misses)
	}
	if p6.tapes == 0 || p6.recs != 0 {
		t.Errorf("sampled Fig6 cells saw %d tape(s) and %d recording(s) resident, want only tapes",
			p6.tapes, p6.recs)
	}
	requireEmpty(t, "after Fig6")

	mopt := multicore.Options{TotalInstrs: 30_000, WarmupPerCore: 2_000, Phases: 2, Seed: 5, Sample: true}
	var p9 residentPeak
	mopt.CellHook = p9.hook
	if _, err := Fig9With(s, oracleProfiles(t, "Fft"), mopt); err != nil {
		t.Fatal(err)
	}
	if p9.recs == 0 || p9.tapes != 0 {
		t.Errorf("Fig9 cells saw %d recording(s) and %d tape(s) resident, want only recordings", p9.recs, p9.tapes)
	}
	requireEmpty(t, "after Fig9")

	lopt := QuickRunOptions()
	lopt.Warmup, lopt.Measure = 2_000, 8_000
	if _, err := LPStudy(s, []string{"Mcf"}, lopt); err != nil {
		t.Fatal(err)
	}
	requireEmpty(t, "after LPStudy")

	// Full-mode cells replay probe tapes too, which leave with the sweep.
	// The tapes generate their streams, so no cell sees a recording
	// resident.
	var pf residentPeak
	fullOpt := lopt
	fullOpt.CellHook = pf.hook
	if _, err := Fig6With(s, profiles, fullOpt); err != nil {
		t.Fatal(err)
	}
	if pf.tapes == 0 {
		t.Error("full-mode Fig6 cells saw no probe tape resident")
	}
	if pf.recs != 0 {
		t.Errorf("full-mode Fig6 cells saw %d recording(s) resident, want none", pf.recs)
	}
	requireEmpty(t, "after a full-mode Fig6")

	// A sweep cancelled mid-way.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	copt := lopt
	copt.Context = ctx
	copt.CellHook = func(_, design string) {
		if design == config.TSV3D.String() {
			cancel()
		}
	}
	if _, err := Fig6With(s, profiles, copt); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sweep error = %v, want context.Canceled", err)
	}
	requireEmpty(t, "after a cancelled Fig6")

	// A fail-fast sweep that stops on a panicking cell.
	fopt := lopt
	fopt.CellHook = func(_, design string) {
		if design == config.M3DHet.String() {
			panic("injected")
		}
	}
	_, err = Fig6With(s, profiles, fopt)
	var pe *parallel.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("poisoned sweep error = %v, want *parallel.PanicError", err)
	}
	requireEmpty(t, "after a failed Fig6")

	// A recording made outside any sweep outlives the sweeps that share
	// it: core 0 of a Fig9 cell replays stream 0.
	fft := oracleProfiles(t, "Fft")
	pinned := trace.SharedRecording(fft[0], mopt.Seed, 0, 1_000)
	if _, err := Fig9WithDesigns(s, fft, []config.MulticoreDesign{config.MCBase}, mopt); err != nil {
		t.Fatal(err)
	}
	if n := trace.CachedRecordings(); n != 1 || trace.SharedRecording(fft[0], mopt.Seed, 0, 1_000) != pinned {
		t.Errorf("the unscoped recording left the cache (%d resident)", n)
	}
}

// fig9LifetimeSweep runs a small sampled Fig9 sweep at one worker with
// hook as its CellHook and checks the per-profile lifetime: each
// profile's first cell starts with no earlier profile's recording
// resident, every stream is recorded exactly once, and nothing stays
// resident after the sweep.
func fig9LifetimeSweep(t *testing.T, retry parallel.Retry, hook func(bench, design string)) {
	t.Helper()
	trace.ResetCache()
	warm.ResetCache()
	defer trace.ResetCache()
	defer warm.ResetCache()
	s, err := config.Derive(tech.N22())
	if err != nil {
		t.Fatal(err)
	}
	profiles := oracleProfiles(t, "Barnes", "Fft", "Canneal")
	designs := config.MulticoreDesigns()
	mcs := config.DeriveMulticore(s)
	streams := 0
	for _, d := range designs {
		streams = max(streams, mcs[d].Cores)
	}
	streams *= len(profiles)

	mopt := multicore.Options{TotalInstrs: 24_000, WarmupPerCore: 1_000, Phases: 2, Seed: 5, Sample: true}
	mopt.Workers, mopt.Retry = 1, retry
	var stale []string
	mopt.CellHook = func(bench, design string) {
		if design == designs[0].String() {
			if n := trace.CachedRecordings(); n != 0 {
				stale = append(stale, fmt.Sprintf("%s: %d", bench, n))
			}
		}
		hook(bench, design)
	}
	if _, err := Fig9WithDesigns(s, profiles, designs, mopt); err != nil {
		t.Fatal(err)
	}
	if len(stale) != 0 {
		t.Errorf("a profile's first cell saw earlier profiles' recordings resident: %v", stale)
	}
	if st := trace.CacheStats(); st.Misses != uint64(streams) {
		t.Errorf("Fig9 recorded %d streams, want %d (each distinct stream once)", st.Misses, streams)
	}
	requireEmpty(t, "after Fig9")
}

// TestFig9RecordingLifetimePerProfile checks that a Fig9 sweep drops each
// profile's recordings as soon as the profile's last
// cell settles, instead of holding every profile's until it returns.
func TestFig9RecordingLifetimePerProfile(t *testing.T) {
	fig9LifetimeSweep(t, parallel.Retry{}, func(string, string) {})
}

// TestFig9RecordingLifetimeUnderRetry makes each profile's last cell panic
// on its first attempt and succeed on the retry. The profile must stay
// held until the retry settles: released on the failed attempt, the retry
// would record its streams again and leave them pinned in the cache.
func TestFig9RecordingLifetimeUnderRetry(t *testing.T) {
	last := config.MulticoreDesigns()[len(config.MulticoreDesigns())-1].String()
	failed := map[string]bool{}
	fig9LifetimeSweep(t, parallel.Retry{Attempts: 2}, func(bench, design string) {
		if design == last && !failed[bench] {
			failed[bench] = true
			panic("injected")
		}
	})
	if len(failed) != 3 {
		t.Errorf("%d profile(s) saw the injected panic, want 3", len(failed))
	}
}

// fig6TapeBound is the most profiles whose probe tapes a staggered Fig6
// sweep on w workers can hold at a cell start. A resident tape belongs to
// a started profile that has a cell not yet dispatched or still in
// flight. When a cell starts, the started profiles with a cell at its
// slot or later are at most w+1: the profile p−w whose remaining designs
// are being dispatched and the w profiles p−w+1 … p whose first designs
// started after its own. The w−1 other cells in flight may each belong
// to an older profile. A sweep-wide hold, or design-major dispatch, keeps
// every profile's tape: seven here.
func fig6TapeBound(w int) int { return 2 * w }

// fig6LifetimeSweeps runs a seven-profile Fig6 sweep, full and sampled, at
// one and two workers, with retry and the CellHook hook(subtest) returns.
// Each sweep must keep at most fig6TapeBound profiles' tapes resident at
// any cell start, build each tape exactly once, and leave nothing
// resident.
func fig6LifetimeSweeps(t *testing.T, retry parallel.Retry, hook func(t *testing.T) func(bench, design string)) {
	s, err := config.Derive(tech.N22())
	if err != nil {
		t.Fatal(err)
	}
	var profiles []trace.Profile
	for i, p := range workload.SPEC2006() {
		if i%3 == 0 {
			profiles = append(profiles, p)
		}
	}
	if len(profiles) != 7 {
		t.Fatalf("%d profiles, want 7", len(profiles))
	}
	geoms := map[warm.Geometry]bool{}
	for _, d := range config.SingleCoreDesigns() {
		geoms[warm.GeometryOf(s.Configs[d])] = true
	}
	for _, sample := range []bool{false, true} {
		for _, w := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/workers=%d", modeName(sample), w), func(t *testing.T) {
				trace.ResetCache()
				warm.ResetCache()
				defer trace.ResetCache()
				defer warm.ResetCache()
				opt := RunOptions{Warmup: 2_000, Measure: 8_000, Seed: 5}
				if sample {
					opt = sampledOracleOptions()
				}
				opt.Workers, opt.Retry = w, retry
				var peak residentPeak
				h := hook(t)
				opt.CellHook = func(bench, design string) {
					peak.hook(bench, design)
					h(bench, design)
				}
				if _, err := Fig6With(s, profiles, opt); err != nil {
					t.Fatal(err)
				}
				t.Logf("at most %d probe tape(s) resident at a cell start", peak.tapes)
				if peak.tapes == 0 {
					t.Fatal("no cell saw a probe tape resident; the bound below would be vacuous")
				}
				if bound := fig6TapeBound(w) * len(geoms); peak.tapes > bound {
					t.Errorf("a cell saw %d probe tapes resident, want at most %d (%d profiles' worth)",
						peak.tapes, bound, fig6TapeBound(w))
				}
				if n, want := warm.TapeBuilds(), uint64(len(profiles)*len(geoms)); n != want {
					t.Errorf("%d probe tapes built, want %d (each once)", n, want)
				}
				requireEmpty(t, "after Fig6")
			})
		}
	}
}

// modeName names a subtest by its sweep's simulation mode.
func modeName(sample bool) string {
	if sample {
		return "sampled"
	}
	return "full"
}

// TestFig6TapeLifetimePerProfile checks that a Fig6 sweep drops each
// profile's probe tape once the profile's last cell settles, so only the
// profiles in flight stay resident, instead of holding every profile's
// tape until it returns.
func TestFig6TapeLifetimePerProfile(t *testing.T) {
	fig6LifetimeSweeps(t, parallel.Retry{}, func(*testing.T) func(string, string) {
		return func(string, string) {}
	})
}

// TestFig6TapeLifetimeUnderRetry makes each profile's last design panic on
// its first attempt and succeed on the retry. The tape must stay held
// until the retry settles: released on the failed attempt, the retry
// would build the tape again into an unheld slot and leave it pinned.
func TestFig6TapeLifetimeUnderRetry(t *testing.T) {
	designs := config.SingleCoreDesigns()
	last := designs[len(designs)-1].String()
	fig6LifetimeSweeps(t, parallel.Retry{Attempts: 2}, func(t *testing.T) func(string, string) {
		var mu sync.Mutex
		failed := map[string]bool{}
		t.Cleanup(func() {
			if len(failed) != 7 {
				t.Errorf("%d profile(s) saw the injected panic, want 7", len(failed))
			}
		})
		return func(bench, design string) {
			mu.Lock()
			first := design == last && !failed[bench]
			failed[bench] = failed[bench] || first
			mu.Unlock()
			if first {
				panic("injected")
			}
		}
	})
}
