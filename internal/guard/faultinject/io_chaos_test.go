// I/O chaos campaigns: drive the full sweep stack (experiments → journal
// → trace) through seeded storage faults injected underneath unmodified
// production code via the fsio seam, and assert the degrade-don't-die
// contract — the sweep completes, every healthy cell stays bit-identical
// to an uninjected run, and each downgrade appears in the result's
// machine-readable Health block.
package faultinject_test

import (
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"vertical3d/internal/config"
	"vertical3d/internal/experiments"
	"vertical3d/internal/fsio"
	"vertical3d/internal/journal"
	"vertical3d/internal/multicore"
	"vertical3d/internal/trace"
	"vertical3d/internal/uarch"
	"vertical3d/internal/workload"
)

// journalInjector routes journal.Open through an injector for the duration
// of the test.
func journalInjector(t *testing.T, seed int64, rules ...fsio.Rule) *fsio.Injector {
	t.Helper()
	in := fsio.NewInjector(seed, nil, rules...)
	journal.SetFS(in)
	t.Cleanup(func() { journal.SetFS(nil) })
	return in
}

// healthRoundTrip asserts the Health block is machine-readable: it must
// survive a JSON round trip unchanged and carry the expected layer tag.
func healthRoundTrip(t *testing.T, h experiments.Health, layer string) {
	t.Helper()
	raw, err := json.Marshal(h)
	if err != nil {
		t.Fatalf("Health does not marshal: %v", err)
	}
	var back experiments.Health
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("Health does not unmarshal: %v", err)
	}
	if !reflect.DeepEqual(back, h) {
		t.Errorf("Health JSON round trip lost data:\n  sent %+v\n  got  %+v", h, back)
	}
	if !strings.Contains(string(raw), `"layer":"`+layer+`"`) {
		t.Errorf("Health JSON carries no %q event: %s", layer, raw)
	}
}

// TestChaosDiskFullMidSweep fills the disk under the journal a few appends
// into a sweep: the journal must quarantine its active segment and degrade
// to unjournaled execution, while the sweep completes with every cell
// bit-identical to an uninjected run; a later run with the same directory
// must recover full journaling.
func TestChaosDiskFullMidSweep(t *testing.T) {
	suite, profiles, opt := fig6Fixture(t)
	ref, err := experiments.Fig6With(suite, profiles, opt)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	// Let the segment header and the first three appends through, then
	// every journal write hits a full disk. Workers=1 keeps the append
	// order (and so the counters) deterministic.
	journalInjector(t, 7, fsio.Rule{Op: fsio.OpWrite, Match: ".m3dj", After: 4})
	jopt := opt
	jopt.JournalDir = dir
	jopt.Workers = 1
	f, err := experiments.Fig6With(suite, profiles, jopt)
	if err != nil {
		t.Fatalf("disk-full sweep must complete: %v", err)
	}
	if n := f.FailedCells(); n != 0 {
		t.Fatalf("%d failed cells on a full disk, want 0 (degrade, don't die)", n)
	}
	if !reflect.DeepEqual(f.Runs, ref.Runs) {
		t.Error("disk-full Runs differ from the uninjected run")
	}
	if !reflect.DeepEqual(f.Speedup, ref.Speedup) {
		t.Error("disk-full Speedup differs from the uninjected run")
	}
	if !f.Journal.Degraded {
		t.Error("journal stats do not report the downgrade")
	}
	if f.Journal.Appends != 3 || f.Journal.AppendErrors != 1 {
		t.Errorf("journal counters = %+v, want 3 appends then 1 append error", f.Journal)
	}
	q, err := filepath.Glob(filepath.Join(dir, "*.m3dj.quarantine"))
	if err != nil || len(q) != 1 {
		t.Fatalf("quarantine files = %v (err %v), want exactly the active segment", q, err)
	}
	if !f.Health.Degraded {
		t.Fatal("Health does not report the degraded run")
	}
	found := false
	for _, e := range f.Health.Events {
		if e.Layer == "journal" && strings.Contains(e.Action, "unjournaled") {
			found = true
			if !strings.Contains(e.Cause, "no space left") {
				t.Errorf("downgrade event does not carry the ENOSPC cause: %+v", e)
			}
		}
	}
	if !found {
		t.Fatalf("no journal downgrade event in %+v", f.Health.Events)
	}
	healthRoundTrip(t, f.Health, "journal")

	// The disk "recovers": a fresh run with the same directory must ignore
	// the quarantined segment, journal every cell and report clean health.
	journal.SetFS(nil)
	f2, err := experiments.Fig6With(suite, profiles, jopt)
	if err != nil {
		t.Fatal(err)
	}
	total := len(profiles) * len(f.Designs)
	if f2.Journal.Hits != 0 || f2.Journal.Appends != total {
		t.Errorf("recovery run journal = %+v, want 0 hits and %d appends", f2.Journal, total)
	}
	if f2.Health.Degraded {
		t.Errorf("recovery run still degraded: %+v", f2.Health.Events)
	}
	if !reflect.DeepEqual(f2.Runs, ref.Runs) {
		t.Error("recovery Runs differ from the uninjected run")
	}
}

// TestChaosBitFlippedJournalTail corrupts the tail of a journaled sweep's
// segment: the resume must cut the torn tail, re-execute exactly the lost
// cells, and reconstruct the uninjected result bit for bit — with no
// degradation event, since torn-tail recovery is the journal's normal
// crash contract, not a downgrade.
func TestChaosBitFlippedJournalTail(t *testing.T) {
	suite, profiles, opt := fig6Fixture(t)
	ref, err := experiments.Fig6With(suite, profiles, opt)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	jopt := opt
	jopt.JournalDir = dir
	jopt.Workers = 1
	f1, err := experiments.Fig6With(suite, profiles, jopt)
	if err != nil {
		t.Fatal(err)
	}
	total := len(profiles) * len(f1.Designs)
	if f1.Journal.Appends != total {
		t.Fatalf("phase 1 journaled %d cells, want %d", f1.Journal.Appends, total)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "*.m3dj"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments = %v (err %v), want one", segs, err)
	}
	raw, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0x10 // flip one bit inside the last record's payload
	if err := os.WriteFile(segs[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}

	executed := 0
	jopt.CellHook = func(bench, design string) { executed++ }
	f2, err := experiments.Fig6With(suite, profiles, jopt)
	if err != nil {
		t.Fatalf("resume over a bit-flipped tail must complete: %v", err)
	}
	if f2.Journal.TornTails != 1 {
		t.Errorf("TornTails = %d, want 1", f2.Journal.TornTails)
	}
	if f2.Journal.Hits != total-1 || executed != 1 {
		t.Errorf("resume merged %d and executed %d cells, want %d and 1",
			f2.Journal.Hits, executed, total-1)
	}
	if f2.Health.Degraded {
		t.Errorf("torn-tail recovery is not a downgrade, but Health = %+v", f2.Health.Events)
	}
	if !reflect.DeepEqual(f2.Runs, ref.Runs) {
		t.Error("resumed Runs differ from the uninjected run")
	}
	if !reflect.DeepEqual(f2.NormEnergy, ref.NormEnergy) {
		t.Error("resumed NormEnergy differs from the uninjected run")
	}
}

// TestChaosReadOnlyJournalDir denies the journal its directory (the
// injected shape of a read-only filesystem — chmod is useless here, tests
// may run as root): the sweep must run unjournaled with a Health event
// instead of aborting.
func TestChaosReadOnlyJournalDir(t *testing.T) {
	suite, profiles, opt := fig6Fixture(t)
	ref, err := experiments.Fig6With(suite, profiles, opt)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	journalInjector(t, 11, fsio.Rule{Op: fsio.OpMkdir, Match: dir, Err: fs.ErrPermission})
	jopt := opt
	jopt.JournalDir = dir
	f, err := experiments.Fig6With(suite, profiles, jopt)
	if err != nil {
		t.Fatalf("sweep with an unwritable journal dir must complete: %v", err)
	}
	if !reflect.DeepEqual(f.Runs, ref.Runs) {
		t.Error("unjournaled Runs differ from the uninjected run")
	}
	if f.Journal != (journal.Stats{}) {
		t.Errorf("journal stats = %+v, want zero (never opened)", f.Journal)
	}
	if !f.Health.Degraded {
		t.Fatal("Health does not report the downgrade")
	}
	found := false
	for _, e := range f.Health.Events {
		if e.Layer == "journal" && strings.Contains(e.Action, "journaling disabled") &&
			strings.Contains(e.Cause, "permission denied") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no journaling-disabled event in %+v", f.Health.Events)
	}
	healthRoundTrip(t, f.Health, "journal")
}

// TestChaosFlakyTraceDir runs sweeps against a trace-cache directory
// whose writes fail. Single-core sweeps, full and sampled, generate their
// probe tapes and make no .m3dtrace I/O at all. A sampled Fig9 sweep
// records its streams: every recording save errors out, the sweep falls
// back to the in-memory single-flight cache, results stay bit-identical,
// and the Health block reports the stale cache.
func TestChaosFlakyTraceDir(t *testing.T) {
	suite, profiles, full := fig6Fixture(t)
	sampled := full
	sampled.Sample = true
	sampled.SampleParams = uarch.SampleParams{Interval: 4_000, Warmup: 500, Unit: 1_000}
	mcProfiles := workload.Parallel()[:1]
	mopt := multicore.Options{TotalInstrs: 30_000, WarmupPerCore: 2_000, Phases: 2, Seed: 42, Sample: true}
	var refs []*experiments.Fig6Result
	for _, opt := range []experiments.RunOptions{full, sampled} {
		ref, err := experiments.Fig6With(suite, profiles, opt)
		if err != nil {
			t.Fatal(err)
		}
		refs = append(refs, ref)
	}
	mcRef, err := experiments.Fig9With(suite, mcProfiles, mopt)
	if err != nil {
		t.Fatal(err)
	}

	trace.ResetCache() // drop any recording the reference runs cached
	t.Cleanup(trace.ResetCache)
	dir := t.TempDir()
	if err := trace.SetCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = trace.SetCacheDir("") })

	// Single-core sweeps: tripwires on every load, save and sync of a
	// trace file.
	trip := fsio.NewInjector(13, nil,
		fsio.Rule{Op: fsio.OpOpen, Match: ".m3dtrace"},
		fsio.Rule{Op: fsio.OpCreate, Match: dir},
		fsio.Rule{Op: fsio.OpSync, Match: ".m3dtrace"})
	trace.SetFS(trip)
	t.Cleanup(func() { trace.SetFS(nil) })
	for i, opt := range []experiments.RunOptions{full, sampled} {
		f, err := experiments.Fig6With(suite, profiles, opt)
		if err != nil {
			t.Fatalf("sample=%v: sweep over a trace dir must complete: %v", opt.Sample, err)
		}
		if !reflect.DeepEqual(f.Runs, refs[i].Runs) {
			t.Errorf("sample=%v: Runs over a trace dir differ from the run without one", opt.Sample)
		}
		if n := trip.Injected(); n != 0 || f.Health.Degraded {
			t.Errorf("sample=%v: sweep touched the trace dir: %d tripwire(s) fired, health %+v", opt.Sample, n, f.Health)
		}
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Errorf("single-core sweeps left %d file(s) in the trace dir (%v), want none", len(entries), err)
	}
	if st := trace.CacheStats(); st != (trace.CacheCounters{}) {
		t.Errorf("single-core sweeps used the trace cache: %+v", st)
	}

	// Sampled Fig9: every recording's save fails at its sync.
	in := fsio.NewInjector(13, nil, fsio.Rule{Op: fsio.OpSync, Match: ".m3dtrace"})
	trace.SetFS(in)
	f, err := experiments.Fig9With(suite, mcProfiles, mopt)
	if err != nil {
		t.Fatalf("sweep over a flaky trace dir must complete: %v", err)
	}
	if !reflect.DeepEqual(f.Runs, mcRef.Runs) {
		t.Error("flaky-trace-dir Runs differ from the uninjected run")
	}
	streams := 0
	for _, mc := range config.DeriveMulticore(suite) {
		streams = max(streams, mc.Cores)
	}
	if n := in.InjectedOp(fsio.OpSync); n != streams*len(mcProfiles) {
		t.Errorf("injected %d sync faults, want one per recorded stream (%d)", n, streams*len(mcProfiles))
	}
	if !f.Health.Degraded {
		t.Fatal("Health does not report the failed cache saves")
	}
	found := false
	for _, e := range f.Health.Events {
		if e.Layer == "trace" && strings.Contains(e.Action, "save(s) failed") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no trace save-failure event in %+v", f.Health.Events)
	}
	healthRoundTrip(t, f.Health, "trace")
}

// TestChaosSampleBudgetFallback runs a sampled sweep under an absurdly
// tight oracle budget: every cell must fall back to full simulation —
// producing results bit-identical to a full (unsampled) run — with one
// "sample" Health event per cell.
func TestChaosSampleBudgetFallback(t *testing.T) {
	suite, profiles, opt := fig6Fixture(t)
	full, err := experiments.Fig6With(suite, profiles, opt)
	if err != nil {
		t.Fatal(err)
	}

	sopt := opt
	sopt.Sample = true
	sopt.SampleParams = uarch.SampleParams{Interval: 4_000, Warmup: 500, Unit: 1_000}
	sopt.SampleErrorBudget = 1e-12
	f, err := experiments.Fig6With(suite, profiles, sopt)
	if err != nil {
		t.Fatalf("sampled sweep with fallback must complete: %v", err)
	}
	if !reflect.DeepEqual(f.Runs, full.Runs) {
		t.Error("fallback Runs differ from the full-simulation run")
	}
	total := len(profiles) * len(f.Designs)
	if !f.Health.Degraded || len(f.Health.Events) != total {
		t.Fatalf("Health = %+v, want %d sample fallback events", f.Health, total)
	}
	for _, e := range f.Health.Events {
		if e.Layer != "sample" || !strings.Contains(e.Action, "full simulation") {
			t.Errorf("unexpected event %+v", e)
		}
		if !strings.Contains(e.Cause, "budget") {
			t.Errorf("fallback event does not carry the budget breach: %+v", e)
		}
	}
	healthRoundTrip(t, f.Health, "sample")
}
