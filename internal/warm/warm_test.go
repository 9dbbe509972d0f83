package warm

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"vertical3d/internal/config"
	"vertical3d/internal/mem"
	"vertical3d/internal/tech"
	"vertical3d/internal/trace"
	"vertical3d/internal/uarch"
	"vertical3d/internal/workload"
)

// testMC returns a small real multicore warmup identity and its
// configuration: the Fig 9 Base topology over Mcf, 3,000 warmup
// instructions per core.
func testMC(t testing.TB) (MCIdentity, config.MCConfig) {
	t.Helper()
	s, err := config.Derive(tech.N22())
	if err != nil {
		t.Fatal(err)
	}
	prof, err := workload.ByName("Mcf")
	if err != nil {
		t.Fatal(err)
	}
	return mcIdentity(prof, 7, 3_000, config.DeriveMulticore(s)[config.MCBase]), config.DeriveMulticore(s)[config.MCBase]
}

// mcIdentity keys a warmup of prof on mc.
func mcIdentity(prof trace.Profile, seed int64, warmup uint64, mc config.MCConfig) MCIdentity {
	return MCIdentity{Prof: prof, Seed: seed, Cores: mc.Cores, SharedL2: mc.SharedL2,
		Warmup: warmup, Geom: GeometryOf(mc.PerCore)}
}

// mcWarm builds a fresh multicore run of id on mc, warms it through
// MCWarmup and returns the warm state it reached: the memory system and
// every core's functional state.
func mcWarm(id MCIdentity, mc config.MCConfig) (*mem.MCState, []uarch.CoreWarmState, error) {
	backend, err := mem.NewMulticore(mc)
	if err != nil {
		return nil, nil, err
	}
	cores := make([]*uarch.Core, mc.Cores)
	for i := range cores {
		rp := trace.NewReplayer(trace.SharedRecording(id.Prof, id.Seed, i, 0))
		if cores[i], err = uarch.NewCore(i, mc.PerCore, rp, backend); err != nil {
			return nil, nil, err
		}
	}
	MCWarmup(id, backend, cores, func() {
		for _, c := range cores {
			c.FastForward(id.Warmup)
		}
	})
	var states []uarch.CoreWarmState
	for _, c := range cores {
		st, err := c.SnapshotWarm()
		if err != nil {
			return nil, nil, err
		}
		states = append(states, st)
	}
	return backend.State(), states, nil
}

// mcRun is mcWarm on the test's own goroutine.
func mcRun(t testing.TB, id MCIdentity, mc config.MCConfig) (*mem.MCState, []uarch.CoreWarmState) {
	t.Helper()
	m, cores, err := mcWarm(id, mc)
	if err != nil {
		t.Fatal(err)
	}
	return m, cores
}

func resetAll(t *testing.T) {
	t.Helper()
	trace.ResetCache()
	ResetCache()
	t.Cleanup(func() {
		trace.ResetCache()
		ResetCache()
		if err := SetCacheDir(""); err != nil {
			t.Error(err)
		}
	})
}

// tempCacheDir points the snapshot cache at a fresh temp directory.
func tempCacheDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	if err := SetCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestMCDiskRoundTrip checks the cross-run tier: a warmup writes exactly
// one snapshot file, and a fresh process (simulated by dropping the
// in-memory cache) restores the same state from it without warming.
func TestMCDiskRoundTrip(t *testing.T) {
	resetAll(t)
	dir := tempCacheDir(t)
	id, mc := testMC(t)
	wantMem, wantCores := mcRun(t, id, mc)
	files, err := filepath.Glob(filepath.Join(dir, "*.m3dwarm"))
	if err != nil || len(files) != 1 {
		t.Fatalf("cache directory holds %d snapshot files (%v), want 1", len(files), err)
	}

	ResetCache()
	gotMem, gotCores := mcRun(t, id, mc)
	st := Stats()
	if st.BuiltInstrs != 0 || st.FileLoads != 1 {
		t.Errorf("disk-served warmup: %+v, want nothing built and 1 file load", st)
	}
	if !reflect.DeepEqual(gotMem, wantMem) || !reflect.DeepEqual(gotCores, wantCores) {
		t.Error("disk-served warm state differs from the built state")
	}
}

// rebuiltFrom checks that a warmup over a damaged snapshot file counted
// the damage, quarantined the file and reached the state the undamaged
// run reached.
func rebuiltFrom(t *testing.T, path string, id MCIdentity, mc config.MCConfig, wantMem *mem.MCState, wantCores []uarch.CoreWarmState) {
	t.Helper()
	ResetCache()
	gotMem, gotCores := mcRun(t, id, mc)
	if st := Stats(); st.LoadErrors == 0 || st.Quarantines == 0 {
		t.Errorf("damaged file not counted: %+v", st)
	}
	if _, err := os.Stat(path + ".quarantine"); err != nil {
		t.Errorf("damaged file not quarantined: %v", err)
	}
	if !reflect.DeepEqual(gotMem, wantMem) || !reflect.DeepEqual(gotCores, wantCores) {
		t.Error("rebuilt warm state differs from the original")
	}
}

func TestCorruptSnapshotQuarantinedAndRebuilt(t *testing.T) {
	resetAll(t)
	dir := tempCacheDir(t)
	id, mc := testMC(t)
	wantMem, wantCores := mcRun(t, id, mc)

	path := filepath.Join(dir, mcFileName(id))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	rebuiltFrom(t, path, id, mc, wantMem, wantCores)
}

// TestHeaderDigitFlipQuarantined pins that the checksum covers the JSON
// header: one changed digit of the position still decodes to a canonical
// header, so only the checksum can catch it.
func TestHeaderDigitFlipQuarantined(t *testing.T) {
	resetAll(t)
	dir := tempCacheDir(t)
	id, mc := testMC(t)
	wantMem, wantCores := mcRun(t, id, mc)

	path := filepath.Join(dir, mcFileName(id))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	field := []byte(`{"Pos":`)
	i := bytes.Index(raw, field)
	if i < 0 {
		t.Fatalf("no Pos in the header: %.120q", raw)
	}
	d := i + len(field) // first digit of the position
	raw[d] = '0' + (raw[d]-'0'+1)%10
	if raw[d] == '0' {
		raw[d] = '9' // keep the number canonical: no leading zero
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	var snap mcSnapshot
	if _, err := decodeSnapshot(bytes.NewReader(raw), &snap); !errorsIsCorrupt(err) {
		t.Fatalf("load of a header with a changed digit: err = %v, want ErrCorrupt", err)
	}
	rebuiltFrom(t, path, id, mc, wantMem, wantCores)
}

func TestDecodeSnapshotRejectsDamage(t *testing.T) {
	var snap mcSnapshot
	for name, raw := range map[string]string{
		"empty":     "",
		"truncated": fileMagic,
		"bad magic": "NOTWARM0" + strings.Repeat("x", 64),
		"version 2": "M3DWARM2" + strings.Repeat("x", 64),
	} {
		if _, err := decodeSnapshot(strings.NewReader(raw), &snap); !errorsIsCorrupt(err) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
}

// TestForeignSnapshotQuarantined pins the identity re-verification: a
// well-formed file whose header identity differs from the requested one
// (a hash collision or a renamed file) is quarantined, never trusted.
func TestForeignSnapshotQuarantined(t *testing.T) {
	resetAll(t)
	dir := tempCacheDir(t)
	id, mc := testMC(t)
	wantMem, wantCores := mcRun(t, id, mc)

	// Masquerade the snapshot of a different seed under this identity's
	// name.
	other := id
	other.Seed = 8
	ResetCache()
	mcRun(t, other, mc)
	dst := filepath.Join(dir, mcFileName(id))
	if err := os.Rename(filepath.Join(dir, mcFileName(other)), dst); err != nil {
		t.Fatal(err)
	}
	rebuiltFrom(t, dst, id, mc, wantMem, wantCores)
}

// TestWarmHoldMCLifetime races snapshot holders against MCWarmup: every
// caller shares one snapshot, and it leaves the registry when the last
// hold is released. A snapshot first built with no hold on it stays.
func TestWarmHoldMCLifetime(t *testing.T) {
	resetAll(t)
	id, mc := testMC(t)

	const holders = 4
	releases := make(chan func(), holders)
	done := make(chan struct{}, holders)
	for range holders {
		go func() {
			releases <- HoldMC(id)
			if _, _, err := mcWarm(id, mc); err != nil {
				t.Error(err)
			}
			done <- struct{}{}
		}()
	}
	for range holders {
		<-done
	}
	if n := Resident(); n != 1 {
		t.Fatalf("while held: %d snapshot(s), want 1", n)
	}
	if st := Stats(); st.Misses != 1 || st.Hits != holders-1 {
		t.Errorf("stats = %+v, want one build and %d restores", st, holders-1)
	}
	for range holders {
		rel := <-releases
		go rel()
		defer rel() // a second release is a no-op
	}
	waitFor(t, func() bool { return Resident() == 0 })

	// A snapshot first built with no hold on it is process-lifetime.
	mcRun(t, id, mc)
	HoldMC(id)()
	if n := Resident(); n != 1 {
		t.Fatalf("%d resident snapshot(s), want the unscoped one", n)
	}
}

// waitFor polls cond for up to five seconds.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
		time.Sleep(time.Millisecond)
	}
}

// writeSnapshot writes a snapshot file under name in dir, framed exactly as
// the cache writes its own.
func writeSnapshot(t *testing.T, dir, name string, hdr fileHeader, payload any) {
	t.Helper()
	var b bytes.Buffer
	if err := encodeSnapshot(&b, hdr, payload); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, name), b.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestMCSnapshotWithBadPayloadRebuilt pins the snapshot loader against
// well-formed files whose payload the run cannot take: a core standing
// elsewhere in its stream than the header's position, a store-ring head
// past the ring, a cache way memo past the cache, a memory state without
// its per-core cache hierarchy, and a core missing. They
// pass the checksum and identity checks, so the restore itself must refuse
// them before it mutates any core or cache — no panic, a counted load
// error, and the state a run with no cache directory reaches.
func TestMCSnapshotWithBadPayloadRebuilt(t *testing.T) {
	resetAll(t)
	id, mc := testMC(t)
	wantMem, wantCores := mcRun(t, id, mc)

	with := func(i int, edit func(*uarch.CoreWarmState)) []uarch.CoreWarmState {
		cores := append([]uarch.CoreWarmState(nil), wantCores...)
		edit(&cores[i])
		return cores
	}
	badMemo := *wantMem
	badMemo.DL1 = append([]mem.CacheState(nil), wantMem.DL1...)
	badMemo.DL1[1].LastIdx = int32(len(badMemo.DL1[1].Words))
	noHier := *wantMem
	noHier.IL1, noHier.DL1, noHier.L2 = nil, nil, nil

	last := len(wantCores) - 1
	for name, bad := range map[string]*mcSnapshot{
		"position":     {Mem: wantMem, Cores: with(last, func(s *uarch.CoreWarmState) { s.Pos++ })},
		"store head":   {Mem: wantMem, Cores: with(last, func(s *uarch.CoreWarmState) { s.StoreHead = len(s.StoreAddrs) })},
		"DL1 way memo": {Mem: &badMemo, Cores: wantCores},
		"no hierarchy": {Mem: &noHier, Cores: wantCores},
		"core count":   {Mem: wantMem, Cores: wantCores[:last]},
	} {
		t.Run(name, func(t *testing.T) {
			ResetCache()
			dir := tempCacheDir(t)
			writeSnapshot(t, dir, mcFileName(id), fileHeader{Pos: id.Warmup, MC: id}, bad)
			gotMem, gotCores := mcRun(t, id, mc)
			if st := Stats(); st.LoadErrors != 1 || st.SkippedInstrs != 0 {
				t.Errorf("stats = %+v, want 1 load error and nothing skipped", st)
			}
			if !reflect.DeepEqual(gotMem, wantMem) || !reflect.DeepEqual(gotCores, wantCores) {
				t.Error("warm state differs from the run without a cache directory")
			}
		})
	}
}

// TestMCSnapshotWithoutMemRebuilt: a warmup snapshot saved without its
// memory system is refused before any core or cache is touched, counted,
// and warmed afresh to the state a run with no cache directory reaches.
func TestMCSnapshotWithoutMemRebuilt(t *testing.T) {
	resetAll(t)
	id, mc := testMC(t)
	wantMem, wantCores := mcRun(t, id, mc)

	ResetCache()
	dir := tempCacheDir(t)
	writeSnapshot(t, dir, mcFileName(id), fileHeader{Pos: id.Warmup, MC: id}, &mcSnapshot{Cores: wantCores})
	gotMem, gotCores := mcRun(t, id, mc)
	if st := Stats(); st.LoadErrors != 1 || st.SkippedInstrs != 0 {
		t.Errorf("stats = %+v, want 1 load error and nothing skipped", st)
	}
	if !reflect.DeepEqual(gotMem, wantMem) || !reflect.DeepEqual(gotCores, wantCores) {
		t.Error("warm state differs from the run without a cache directory")
	}
}
