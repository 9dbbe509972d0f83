package experiments

import (
	"context"
	"errors"
	"sync"
	"testing"

	"vertical3d/internal/config"
	"vertical3d/internal/multicore"
	"vertical3d/internal/parallel"
	"vertical3d/internal/tech"
	"vertical3d/internal/trace"
	"vertical3d/internal/warm"
)

// residentPeak is a CellHook that records the most trace recordings, warm
// ladders, multicore snapshots and probe tapes resident at any cell start.
type residentPeak struct {
	mu                        sync.Mutex
	recs, ladders, mcs, tapes int
}

func (p *residentPeak) hook(string, string) {
	l, m := warm.Resident()
	tp, _ := warm.ResidentTapes()
	r := trace.CachedRecordings()
	p.mu.Lock()
	p.recs, p.ladders, p.mcs, p.tapes = max(p.recs, r), max(p.ladders, l), max(p.mcs, m), max(p.tapes, tp)
	p.mu.Unlock()
}

// requireEmpty fails unless the trace and warm registries hold nothing.
func requireEmpty(t *testing.T, when string) {
	t.Helper()
	l, m := warm.Resident()
	tp, tb := warm.ResidentTapes()
	if r := trace.CachedRecordings(); r != 0 || l != 0 || m != 0 || tp != 0 || tb != 0 {
		t.Errorf("%s: %d recording(s), %d ladder(s), %d multicore snapshot(s), %d probe tape(s) of %d bytes resident, want none",
			when, r, l, m, tp, tb)
	}
}

// TestTraceCacheReleasedAfterSweeps checks the sweep-scoped lifetime of
// the trace and warm registries: every entry point keeps its recordings,
// ladders and multicore snapshots resident while its cells run — each
// stream recorded once — and releases them when it returns, on success
// and on failure. A recording made outside any sweep stays.
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
	if st := trace.CacheStats(); st.Misses != uint64(len(profiles)) {
		t.Errorf("Fig6 recorded %d streams, want %d (one per profile)", st.Misses, len(profiles))
	}
	if p6.recs == 0 || p6.ladders == 0 {
		t.Errorf("Fig6 cells saw %d recording(s) and %d ladder(s) resident, want both > 0", p6.recs, p6.ladders)
	}
	requireEmpty(t, "after Fig6")

	mopt := multicore.Options{TotalInstrs: 30_000, WarmupPerCore: 2_000, Phases: 2, Seed: 5, Sample: true, WarmCache: true}
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
	if _, err := LPStudy([]string{"Mcf"}, lopt); err != nil {
		t.Fatal(err)
	}
	requireEmpty(t, "after LPStudy")

	// Full-mode cells replay probe tapes, which leave with the sweep.
	var pf residentPeak
	fullOpt := lopt
	fullOpt.CellHook = pf.hook
	if _, err := Fig6With(s, profiles, fullOpt); err != nil {
		t.Fatal(err)
	}
	if pf.tapes == 0 {
		t.Error("full-mode Fig6 cells saw no probe tape resident")
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

	// A recording made outside any sweep outlives the sweeps that share it.
	pinned := trace.SharedRecording(profiles[0], lopt.Seed, lopt.StreamID, 1_000)
	if _, err := Fig6WithDesigns(s, profiles[:1], []config.Design{config.Base}, lopt); err != nil {
		t.Fatal(err)
	}
	if n := trace.CachedRecordings(); n != 1 || trace.SharedRecording(profiles[0], lopt.Seed, lopt.StreamID, 1_000) != pinned {
		t.Errorf("the unscoped recording left the cache (%d resident)", n)
	}
}
