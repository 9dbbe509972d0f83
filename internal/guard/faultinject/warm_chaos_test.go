// Warm-state snapshot chaos campaigns: drive sampled multicore sweeps
// through storage faults injected underneath the .m3dwarm cache (bit
// flips, full disks, unwritable directories) and assert the
// degrade-don't-die contract — the sweep completes, results stay
// bit-identical to an uninjected run, and every downgrade appears in the
// Health block under the "warm" layer.
package faultinject_test

import (
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"vertical3d/internal/config"
	"vertical3d/internal/experiments"
	"vertical3d/internal/fsio"
	"vertical3d/internal/multicore"
	"vertical3d/internal/tech"
	"vertical3d/internal/trace"
	"vertical3d/internal/warm"
	"vertical3d/internal/workload"
)

// sampledFixture is a small sampled Fig9 sweep with the snapshot cache on:
// one multicore warmup snapshot per design's topology. Both caches are
// reset before and after the test so runs inside one test share state
// only when the test wants them to.
func sampledFixture(t *testing.T) (*config.Suite, []trace.Profile, multicore.Options) {
	t.Helper()
	suite, err := config.Derive(tech.N22())
	if err != nil {
		t.Fatal(err)
	}
	profiles := workload.Parallel()[:1]
	opt := multicore.Options{TotalInstrs: 30_000, WarmupPerCore: 2_000, Phases: 2, Seed: 42, Sample: true}
	opt.WarmCache = true
	trace.ResetCache()
	warm.ResetCache()
	t.Cleanup(func() {
		trace.ResetCache()
		warm.ResetCache()
	})
	return suite, profiles, opt
}

// warmInjector routes the snapshot file layer through an injector for the
// duration of the test.
func warmInjector(t *testing.T, seed int64, rules ...fsio.Rule) *fsio.Injector {
	t.Helper()
	in := fsio.NewInjector(seed, nil, rules...)
	warm.SetFS(in)
	t.Cleanup(func() { warm.SetFS(nil) })
	return in
}

// warmDir points the snapshot cache at a temp directory for the test.
func warmDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	if err := warm.SetCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = warm.SetCacheDir("") })
	return dir
}

// TestChaosBitFlippedWarmSnapshot corrupts a persisted snapshot between
// two sampled Fig9 sweeps: the second sweep must quarantine the damaged
// file, rebuild the snapshot from the trace, produce bit-identical
// results, and report the regeneration in the Health block.
func TestChaosBitFlippedWarmSnapshot(t *testing.T) {
	suite, profiles, opt := sampledFixture(t)
	dir := warmDir(t)

	ref, err := experiments.Fig9With(suite, profiles, opt)
	if err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.m3dwarm"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no snapshots persisted (%v, err %v)", files, err)
	}
	sort.Strings(files)
	victim := files[0]
	raw, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x20
	if err := os.WriteFile(victim, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	// A "fresh process" (in-memory cache dropped) must survive the
	// damaged file: quarantine, rebuild, identical results.
	warm.ResetCache()
	f, err := experiments.Fig9With(suite, profiles, opt)
	if err != nil {
		t.Fatalf("sweep over a corrupt snapshot must complete: %v", err)
	}
	if !reflect.DeepEqual(f.Runs, ref.Runs) {
		t.Error("corrupt-snapshot Runs differ from the uninjected run")
	}
	if !reflect.DeepEqual(f.Speedup, ref.Speedup) {
		t.Error("corrupt-snapshot Speedup differs from the uninjected run")
	}
	if _, err := os.Stat(victim + ".quarantine"); err != nil {
		t.Errorf("corrupt snapshot not quarantined: %v", err)
	}
	if !f.Health.Degraded {
		t.Fatal("Health does not report the regeneration")
	}
	found := false
	for _, e := range f.Health.Events {
		if e.Layer == "warm" && strings.Contains(e.Action, "regenerated") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no warm regeneration event in %+v", f.Health.Events)
	}
	healthRoundTrip(t, f.Health, "warm")
}

// TestChaosDiskFullWarmDir fills the disk under the snapshot directory
// mid-save: every snapshot write fails, the sweep keeps its in-memory
// snapshots (results bit-identical), and the Health block reports the
// stale snapshot directory.
func TestChaosDiskFullWarmDir(t *testing.T) {
	suite, profiles, opt := sampledFixture(t)
	ref, err := experiments.Fig9With(suite, profiles, opt)
	if err != nil {
		t.Fatal(err)
	}

	warm.ResetCache()
	warmDir(t)
	in := warmInjector(t, 17, fsio.Rule{Op: fsio.OpWrite, Match: ".m3dwarm", After: 2})
	f, err := experiments.Fig9With(suite, profiles, opt)
	if err != nil {
		t.Fatalf("sweep over a full snapshot disk must complete: %v", err)
	}
	if !reflect.DeepEqual(f.Runs, ref.Runs) {
		t.Error("disk-full Runs differ from the uninjected run")
	}
	if in.InjectedOp(fsio.OpWrite) == 0 {
		t.Fatal("no write faults were injected under the snapshot dir")
	}
	if warm.Stats().SaveErrors == 0 {
		t.Error("failed snapshot saves were not counted")
	}
	if !f.Health.Degraded {
		t.Fatal("Health does not report the failed snapshot saves")
	}
	found := false
	for _, e := range f.Health.Events {
		if e.Layer == "warm" && strings.Contains(e.Action, "save(s) failed") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no warm save-failure event in %+v", f.Health.Events)
	}
	healthRoundTrip(t, f.Health, "warm")
}

// TestChaosReadOnlyWarmDir denies the snapshot layer its temp files (the
// injected shape of a read-only snapshot directory): every save fails at
// creation, the sweep runs from the in-memory snapshots with
// bit-identical results, and the Health block reports the stale
// directory.
func TestChaosReadOnlyWarmDir(t *testing.T) {
	suite, profiles, opt := sampledFixture(t)
	ref, err := experiments.Fig9With(suite, profiles, opt)
	if err != nil {
		t.Fatal(err)
	}

	warm.ResetCache()
	dir := warmDir(t)
	warmInjector(t, 19, fsio.Rule{Op: fsio.OpCreate, Match: dir})
	f, err := experiments.Fig9With(suite, profiles, opt)
	if err != nil {
		t.Fatalf("sweep with an unwritable snapshot dir must complete: %v", err)
	}
	if !reflect.DeepEqual(f.Runs, ref.Runs) {
		t.Error("read-only-dir Runs differ from the uninjected run")
	}
	if warm.Stats().SaveErrors == 0 {
		t.Error("refused snapshot saves were not counted")
	}
	if !f.Health.Degraded {
		t.Fatal("Health does not report the refused saves")
	}
	found := false
	for _, e := range f.Health.Events {
		if e.Layer == "warm" && strings.Contains(e.Action, "save(s) failed") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no warm save-failure event in %+v", f.Health.Events)
	}
	healthRoundTrip(t, f.Health, "warm")
}
