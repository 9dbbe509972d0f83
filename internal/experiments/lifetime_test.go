package experiments

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"vertical3d/internal/config"
	"vertical3d/internal/multicore"
	"vertical3d/internal/parallel"
	"vertical3d/internal/tech"
	"vertical3d/internal/trace"
	"vertical3d/internal/warm"
)

// residentPeak is a CellHook that records the most trace recordings,
// multicore snapshots and probe tapes resident at any cell start.
type residentPeak struct {
	mu               sync.Mutex
	recs, mcs, tapes int
}

func (p *residentPeak) hook(string, string) {
	m := warm.Resident()
	tp, _ := warm.ResidentTapes()
	r := trace.CachedRecordings()
	p.mu.Lock()
	p.recs, p.mcs, p.tapes = max(p.recs, r), max(p.mcs, m), max(p.tapes, tp)
	p.mu.Unlock()
}

// requireEmpty fails unless the trace and warm registries hold nothing.
func requireEmpty(t *testing.T, when string) {
	t.Helper()
	m := warm.Resident()
	tp, tb := warm.ResidentTapes()
	if r := trace.CachedRecordings(); r != 0 || m != 0 || tp != 0 || tb != 0 {
		t.Errorf("%s: %d recording(s), %d multicore snapshot(s), %d probe tape(s) of %d bytes resident, want none",
			when, r, m, tp, tb)
	}
}

// TestTraceCacheReleasedAfterSweeps checks the sweep-scoped lifetime of
// the trace and warm registries: every entry point keeps its probe tapes,
// recordings and multicore snapshots resident while its cells run — each
// stream recorded once — and releases them when it returns, on success
// and on failure. A single-core sweep, sampled or not, keeps no recording
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
	opt.WarmCache = true
	var p6 residentPeak
	opt.CellHook = p6.hook
	if _, err := Fig6With(s, profiles, opt); err != nil {
		t.Fatal(err)
	}
	if st := trace.CacheStats(); st.Misses != 0 {
		t.Errorf("sampled Fig6 recorded %d streams, want none", st.Misses)
	}
	if p6.tapes == 0 || p6.recs != 0 || p6.mcs != 0 {
		t.Errorf("sampled Fig6 cells saw %d tape(s), %d recording(s) and %d snapshot(s) resident, want only tapes",
			p6.tapes, p6.recs, p6.mcs)
	}
	requireEmpty(t, "after Fig6")

	mopt := multicore.Options{TotalInstrs: 30_000, WarmupPerCore: 2_000, Phases: 2, Seed: 5, Sample: true}
	mopt.WarmCache = true
	var p9 residentPeak
	mopt.CellHook = p9.hook
	if _, err := Fig9With(s, oracleProfiles(t, "Fft"), mopt); err != nil {
		t.Fatal(err)
	}
	if p9.recs == 0 || p9.mcs == 0 {
		t.Errorf("Fig9 cells saw %d recording(s) and %d snapshot(s) resident, want both > 0", p9.recs, p9.mcs)
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
	mopt.WarmCache, mopt.Workers, mopt.Retry = true, 1, retry
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
// profile's recordings and warm snapshots as soon as the profile's last
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
	fig9LifetimeSweep(t, parallel.Retry{Attempts: 2, BaseDelay: time.Millisecond}, func(bench, design string) {
		if design == last && !failed[bench] {
			failed[bench] = true
			panic("injected")
		}
	})
	if len(failed) != 3 {
		t.Errorf("%d profile(s) saw the injected panic, want 3", len(failed))
	}
}
