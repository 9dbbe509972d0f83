package warm

import (
	"bytes"
	"math"
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

// testIdentity returns a small real identity (config, profile) for ladder
// tests: stride = Interval/32 = 125.
func testIdentity(t testing.TB) (Identity, config.Config) {
	t.Helper()
	s, err := config.Derive(tech.N22())
	if err != nil {
		t.Fatal(err)
	}
	cfg := s.Configs[config.Base]
	prof, err := workload.ByName("Mcf")
	if err != nil {
		t.Fatal(err)
	}
	return Identity{
		Prof:   prof,
		Seed:   7,
		Stream: 0,
		Sample: uarch.SampleParams{Interval: 4_000, Warmup: 500, Unit: 1_000},
		Geom:   GeometryOf(cfg),
	}, cfg
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

func TestLadderBoundaries(t *testing.T) {
	resetAll(t)
	id, cfg := testIdentity(t)
	l := Shared(id, cfg)
	if l.stride != 125 {
		t.Fatalf("stride = %d, want 125", l.stride)
	}
	if ck := l.checkpoint(0, 124); ck != nil {
		t.Errorf("checkpoint below the first boundary = %+v, want nil", ck)
	}
	ck := l.checkpoint(0, 5_300)
	if ck == nil || ck.Pos != 5_250 {
		t.Fatalf("checkpoint(0, 5300) = %+v, want rung at 5250", ck)
	}
	if ck.Cum.Instrs != 5_250 {
		t.Errorf("rung carries %d cumulative instrs, want 5250", ck.Cum.Instrs)
	}
	// Rungs are lazy: only the requested boundary was materialised. A
	// boundary behind the frontier with no stored rung below it is
	// retro-filled from position zero by a fresh warmer.
	st := Stats()
	if ck2 := l.checkpoint(1_200, 3_999); ck2 == nil || ck2.Pos != 3_875 {
		t.Fatalf("checkpoint(1200, 3999) = %+v, want retro-filled rung at 3875", ck2)
	}
	if after := Stats(); after.BuiltInstrs != st.BuiltInstrs+3_875 {
		t.Errorf("retro-fill from zero built %d instrs, want 3875", after.BuiltInstrs-st.BuiltInstrs)
	}
	// A second request for the same boundary is a pure hit.
	st = Stats()
	if ck3 := l.checkpoint(1_200, 3_999); ck3 == nil || ck3.Pos != 3_875 {
		t.Fatalf("repeat checkpoint(1200, 3999) = %+v, want rung at 3875", ck3)
	}
	if after := Stats(); after.BuiltInstrs != st.BuiltInstrs {
		t.Errorf("repeat request built %d more instrs, want 0", after.BuiltInstrs-st.BuiltInstrs)
	}
	// Extend the frontier, then request an unmaterialised boundary behind
	// it: the builder rewinds onto the deepest stored rung below the
	// boundary and warms only the remainder.
	if ck4 := l.checkpoint(5_250, 8_000); ck4 == nil || ck4.Pos != 8_000 {
		t.Fatalf("checkpoint(5250, 8000) = %+v, want rung at 8000", ck4)
	}
	st = Stats()
	if ck5 := l.checkpoint(4_500, 7_300); ck5 == nil || ck5.Pos != 7_250 {
		t.Fatalf("checkpoint(4500, 7300) = %+v, want retro-filled rung at 7250", ck5)
	}
	if after := Stats(); after.BuiltInstrs != st.BuiltInstrs+2_000 {
		t.Errorf("retro-fill from rung 5250 built %d instrs, want 2000", after.BuiltInstrs-st.BuiltInstrs)
	}
	// A rung at or below the current position cannot help.
	if ck6 := l.checkpoint(5_250, 5_300); ck6 != nil {
		t.Errorf("checkpoint(5250, 5300) = %+v, want nil (boundary not past position)", ck6)
	}
}

func TestLadderDiskRoundTrip(t *testing.T) {
	resetAll(t)
	dir := t.TempDir()
	if err := SetCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	id, cfg := testIdentity(t)
	first := Shared(id, cfg).checkpoint(0, 5_000)
	if first == nil || first.Pos != 5_000 {
		t.Fatalf("checkpoint(0, 5000) = %+v, want rung at 5000", first)
	}
	// Lazy materialisation: exactly one rung (the requested boundary)
	// reaches disk, not one per stride grid point.
	files, err := filepath.Glob(filepath.Join(dir, "*.m3dwarm"))
	if err != nil || len(files) != 1 {
		t.Fatalf("cache directory holds %d snapshot files (%v), want 1", len(files), err)
	}

	// A fresh process (simulated by dropping the in-memory cache) must
	// reassemble the same ladder from disk without warming anything.
	ResetCache()
	second := Shared(id, cfg).checkpoint(0, 5_000)
	if second == nil {
		t.Fatal("disk-served checkpoint is nil")
	}
	st := Stats()
	if st.BuiltInstrs != 0 {
		t.Errorf("disk-served ladder warmed %d instrs, want 0", st.BuiltInstrs)
	}
	if st.FileLoads != 1 {
		t.Errorf("FileLoads = %d, want 1", st.FileLoads)
	}
	if first.Pos != second.Pos || !reflect.DeepEqual(first.Cum, second.Cum) {
		t.Error("disk-served rung differs from the built rung")
	}
	if !reflect.DeepEqual(first.State, second.State) {
		t.Error("disk-served warm state differs from the built state")
	}
}

func TestCorruptSnapshotQuarantinedAndRebuilt(t *testing.T) {
	resetAll(t)
	dir := t.TempDir()
	if err := SetCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	id, cfg := testIdentity(t)
	built := Shared(id, cfg).checkpoint(0, 2_000)
	if built == nil {
		t.Fatal("initial build failed")
	}

	// Flip one payload byte of the rung's file (the only one: rungs are
	// materialised lazily at the requested boundary).
	path := filepath.Join(dir, ladderFileName(id, 2_000))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	ResetCache()
	rebuilt := Shared(id, cfg).checkpoint(0, 2_000)
	if rebuilt == nil {
		t.Fatal("rebuild after corruption failed")
	}
	st := Stats()
	if st.LoadErrors == 0 || st.Quarantines == 0 {
		t.Errorf("corrupt file not counted: %+v", st)
	}
	if _, err := os.Stat(path + ".quarantine"); err != nil {
		t.Errorf("corrupt file not quarantined: %v", err)
	}
	if !reflect.DeepEqual(built.Cum, rebuilt.Cum) || !reflect.DeepEqual(built.State, rebuilt.State) {
		t.Error("rebuilt rung differs from the original")
	}
}

// TestHeaderDigitFlipQuarantined pins that the checksum covers the JSON
// header: one changed digit of a Cum counter still decodes to a canonical
// header, so only the checksum can catch it before the skewed observables
// reprice every cell restored from the rung.
func TestHeaderDigitFlipQuarantined(t *testing.T) {
	resetAll(t)
	dir := t.TempDir()
	if err := SetCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	id, cfg := testIdentity(t)
	built := Shared(id, cfg).checkpoint(0, 2_000)
	if built == nil {
		t.Fatal("initial build failed")
	}

	path := filepath.Join(dir, ladderFileName(id, 2_000))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	field := []byte(`"Cum":{"Instrs":`)
	i := bytes.Index(raw, field)
	if i < 0 {
		t.Fatalf("no Cum.Instrs in the header: %.120q", raw)
	}
	d := i + len(field) // first digit of the counter
	raw[d] = '0' + (raw[d]-'0'+1)%10
	if raw[d] == '0' {
		raw[d] = '9' // keep the number canonical: no leading zero
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	var st uarch.WarmState
	if _, err := decodeSnapshot(bytes.NewReader(raw), &st); !errorsIsCorrupt(err) {
		t.Fatalf("load of a header with a changed digit: err = %v, want ErrCorrupt", err)
	}

	ResetCache()
	rebuilt := Shared(id, cfg).checkpoint(0, 2_000)
	if rebuilt == nil {
		t.Fatal("rebuild after header damage failed")
	}
	if s := Stats(); s.LoadErrors == 0 || s.Quarantines == 0 {
		t.Errorf("damaged header not counted: %+v", s)
	}
	if _, err := os.Stat(path + ".quarantine"); err != nil {
		t.Errorf("damaged file not quarantined: %v", err)
	}
	if !reflect.DeepEqual(built.Cum, rebuilt.Cum) || !reflect.DeepEqual(built.State, rebuilt.State) {
		t.Error("rebuilt rung differs from the original")
	}
}

func TestDecodeSnapshotRejectsDamage(t *testing.T) {
	var st uarch.WarmState
	for name, raw := range map[string]string{
		"empty":     "",
		"truncated": fileMagic,
		"bad magic": "NOTWARM0" + strings.Repeat("x", 64),
	} {
		if _, err := decodeSnapshot(strings.NewReader(raw), &st); !errorsIsCorrupt(err) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
}

// TestForeignSnapshotQuarantined pins the identity re-verification: a
// well-formed file whose header identity differs from the requested one
// (a hash collision or a renamed file) is quarantined, never trusted.
func TestForeignSnapshotQuarantined(t *testing.T) {
	resetAll(t)
	dir := t.TempDir()
	if err := SetCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	id, cfg := testIdentity(t)
	if Shared(id, cfg).checkpoint(0, 1_000) == nil {
		t.Fatal("initial build failed")
	}

	// Masquerade the rung of a different seed under this identity's name.
	other := id
	other.Seed = 8
	ResetCache()
	if Shared(other, cfg).checkpoint(0, 1_000) == nil {
		t.Fatal("second build failed")
	}
	src := filepath.Join(dir, ladderFileName(other, 1_000))
	dst := filepath.Join(dir, ladderFileName(id, 1_000))
	if err := os.Rename(src, dst); err != nil {
		t.Fatal(err)
	}

	ResetCache()
	if Shared(id, cfg).checkpoint(0, 1_000) == nil {
		t.Fatal("rebuild past the foreign file failed")
	}
	st := Stats()
	if st.LoadErrors == 0 || st.Quarantines == 0 {
		t.Errorf("foreign file not counted: %+v", st)
	}
	if _, err := os.Stat(dst + ".quarantine"); err != nil {
		t.Errorf("foreign file not quarantined: %v", err)
	}
}

// TestWarmHoldLadderLifetime races ladder holders against Shared: every
// caller shares one ladder, the ladder's builder replays the held
// recording instead of pinning one of its own, and both leave their
// registries when the last hold is released. An unscoped ladder stays.
func TestWarmHoldLadderLifetime(t *testing.T) {
	resetAll(t)
	id, cfg := testIdentity(t)

	const holders = 6
	done := make(chan *Ladder, holders)
	releases := make(chan func(), holders)
	for range holders {
		go func() {
			releases <- HoldLadder(id)
			l := Shared(id, cfg)
			l.checkpoint(0, 1_000)
			done <- l
		}()
	}
	first := <-done
	for range holders - 1 {
		if l := <-done; l != first {
			t.Fatal("holders got distinct ladders")
		}
	}
	if n, _ := Resident(); n != 1 || trace.CachedRecordings() != 1 {
		t.Fatalf("while held: %d ladder(s), %d recording(s), want 1 and 1", n, trace.CachedRecordings())
	}
	for range holders {
		rel := <-releases
		go rel()
		defer rel() // a second release is a no-op
	}
	waitFor(t, func() bool { n, _ := Resident(); return n == 0 && trace.CachedRecordings() == 0 })

	// A ladder first built with no hold on it is process-lifetime.
	pinned := Shared(id, cfg)
	pinned.checkpoint(0, 1_000)
	HoldLadder(id)()
	if Shared(id, cfg) != pinned {
		t.Fatal("an unscoped ladder left the registry")
	}
	if n, _ := Resident(); n != 1 {
		t.Fatalf("%d resident ladder(s), want the unscoped one", n)
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

// TestLadderSnapshotWithBadPayloadRebuilt pins the rung loader against
// well-formed files whose payload the builder cannot take: no hierarchy, a
// store-ring head past the ring, an unseekable stream position, a cache way
// memo past the cache. They pass
// the checksum and structure checks, so the restore itself must refuse them
// before mutating the builder — no panic, a counted load error, and rungs
// equal to those a run with no cache directory builds, the rebuilt rung
// and the one the builder extends from it alike.
func TestLadderSnapshotWithBadPayloadRebuilt(t *testing.T) {
	resetAll(t)
	id, cfg := testIdentity(t)
	l := Shared(id, cfg)
	want, next := l.checkpoint(0, 2_000), l.checkpoint(0, 4_000)
	if want == nil || next == nil {
		t.Fatal("reference build failed")
	}
	badHead := want.State.Core
	badHead.StoreHead = len(badHead.StoreAddrs)
	badPos := want.State.Core
	badPos.Pos = math.MaxUint64
	badMemo := *want.State.Mem
	badMemo.DL1.LastIdx = int32(len(badMemo.DL1.Words))

	for name, bad := range map[string]*uarch.WarmState{
		"no hierarchy": {Core: want.State.Core},
		"store head":   {Core: badHead, Mem: want.State.Mem},
		"position":     {Core: badPos, Mem: want.State.Mem},
		"DL1 way memo": {Core: want.State.Core, Mem: &badMemo},
	} {
		t.Run(name, func(t *testing.T) {
			ResetCache()
			dir := t.TempDir()
			if err := SetCacheDir(dir); err != nil {
				t.Fatal(err)
			}
			writeSnapshot(t, dir, ladderFileName(id, want.Pos),
				fileHeader{Kind: kindLadder, Pos: want.Pos, Cum: want.Cum, Ladder: &id}, bad)
			l := Shared(id, cfg)
			got, gotNext := l.checkpoint(0, 2_000), l.checkpoint(0, 4_000)
			if got == nil || gotNext == nil {
				t.Fatal("rebuild past the rung failed")
			}
			if st := Stats(); st.LoadErrors != 1 || st.BuiltInstrs != next.Pos {
				t.Errorf("stats = %+v, want 1 load error and both rungs built", st)
			}
			if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotNext, next) {
				t.Error("rungs differ from those built without a cache directory")
			}
		})
	}
}

// TestMCSnapshotWithoutMemRebuilt is the multicore form: a warmup
// snapshot saved without its memory system is refused before any core or
// cache is touched, counted, and warmed afresh to the state a run with no
// cache directory reaches.
func TestMCSnapshotWithoutMemRebuilt(t *testing.T) {
	resetAll(t)
	id, _ := testIdentity(t)
	s, err := config.Derive(tech.N22())
	if err != nil {
		t.Fatal(err)
	}
	mc := config.DeriveMulticore(s)[config.MCBase]
	mcID := MCIdentity{Prof: id.Prof, Seed: id.Seed, Cores: mc.Cores, SharedL2: mc.SharedL2,
		Warmup: 3_000, Geom: GeometryOf(mc.PerCore)}
	run := func() (*mem.MCState, []uarch.CoreWarmState) {
		backend, err := mem.NewMulticore(mc)
		if err != nil {
			t.Fatal(err)
		}
		cores := make([]*uarch.Core, mc.Cores)
		for i := range cores {
			rp := trace.NewReplayer(trace.SharedRecording(mcID.Prof, mcID.Seed, i, 0))
			if cores[i], err = uarch.NewCore(i, mc.PerCore, rp, backend); err != nil {
				t.Fatal(err)
			}
		}
		MCWarmup(mcID, backend, cores, func() {
			for _, c := range cores {
				c.FastForward(mcID.Warmup)
			}
		})
		var states []uarch.CoreWarmState
		for _, c := range cores {
			st, err := c.SnapshotWarm()
			if err != nil {
				t.Fatal(err)
			}
			states = append(states, st.Core)
		}
		return backend.State(), states
	}
	wantMem, wantCores := run()

	ResetCache()
	dir := t.TempDir()
	if err := SetCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	writeSnapshot(t, dir, mcFileName(mcID),
		fileHeader{Kind: kindMC, Pos: mcID.Warmup, MC: &mcID},
		&mcSnapshot{Cores: wantCores})
	gotMem, gotCores := run()
	if st := Stats(); st.LoadErrors != 1 || st.SkippedInstrs != 0 {
		t.Errorf("stats = %+v, want 1 load error and nothing skipped", st)
	}
	if !reflect.DeepEqual(gotMem, wantMem) || !reflect.DeepEqual(gotCores, wantCores) {
		t.Error("warm state differs from the run without a cache directory")
	}
}
