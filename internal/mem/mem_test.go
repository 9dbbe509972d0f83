package mem

import (
	"testing"
	"testing/quick"

	"vertical3d/internal/config"
	"vertical3d/internal/tech"
)

func testConfig(t *testing.T) config.Config {
	t.Helper()
	s, err := config.Derive(tech.N22())
	if err != nil {
		t.Fatal(err)
	}
	return s.Configs[config.Base]
}

func mustCache(t *testing.T, sizeKB, assoc, lineBytes int) *Cache {
	t.Helper()
	c, err := NewCache(sizeKB, assoc, lineBytes)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func mustHierarchy(t *testing.T, cfg config.Config) *Hierarchy {
	t.Helper()
	h, err := NewHierarchy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func mustMulticore(t *testing.T, mc config.MCConfig) *Multicore {
	t.Helper()
	m, err := NewMulticore(mc)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestCacheHitAfterMiss(t *testing.T) {
	c := mustCache(t, 32, 4, 32)
	if hit, _, _ := c.Access(0x1000, false); hit {
		t.Error("first access must miss")
	}
	if hit, _, _ := c.Access(0x1000, false); !hit {
		t.Error("second access must hit")
	}
	if hit, _, _ := c.Access(0x101f, false); !hit {
		t.Error("same line must hit")
	}
	if hit, _, _ := c.Access(0x1020, false); hit {
		t.Error("next line must miss")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := mustCache(t, 1, 2, 32) // 32 lines, 2-way, 16 sets
	setStride := uint64(32 * 16)
	// Fill one set's two ways, then a third line evicts the LRU.
	c.Access(0, false)
	c.Access(setStride, false)
	c.Access(0, false) // touch way 0 so the other is LRU
	c.Access(2*setStride, false)
	if hit, _, _ := c.Access(0, false); !hit {
		t.Error("recently used line should survive")
	}
	if hit, _, _ := c.Access(setStride, false); hit {
		t.Error("LRU line should have been evicted")
	}
}

func TestCacheDirtyWriteback(t *testing.T) {
	c := mustCache(t, 1, 1, 32) // direct-mapped, 32 lines
	c.Access(0, true)           // dirty
	stride := uint64(32 * 32)
	_, victim, dirty := c.Access(stride, false)
	if !dirty || victim != 0 {
		t.Errorf("expected dirty writeback of line 0, got victim=%#x dirty=%v", victim, dirty)
	}
}

func TestCacheInvalidate(t *testing.T) {
	c := mustCache(t, 32, 4, 32)
	c.Access(0x4000, true)
	present, dirty := c.Invalidate(0x4000)
	if !present || !dirty {
		t.Errorf("invalidate should find dirty line, got %v/%v", present, dirty)
	}
	if c.Probe(0x4000) {
		t.Error("line must be gone after invalidate")
	}
	if p, _ := c.Invalidate(0x4000); p {
		t.Error("second invalidate should find nothing")
	}
}

func TestCacheBadGeometryErrors(t *testing.T) {
	cases := []struct {
		name                     string
		sizeKB, assoc, lineBytes int
	}{
		{"zero size", 0, 4, 32},
		{"negative assoc", 32, -1, 32},
		{"zero line", 32, 4, 0},
		{"non-power-of-two line", 32, 4, 48},
		{"non-power-of-two sets", 33, 4, 32},
		{"assoc exceeds lines", 1, 64, 32},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cache, err := NewCache(c.sizeKB, c.assoc, c.lineBytes)
			if err == nil {
				t.Fatalf("NewCache(%d, %d, %d) accepted bad geometry", c.sizeKB, c.assoc, c.lineBytes)
			}
			if cache != nil {
				t.Error("failed construction must return a nil cache")
			}
		})
	}
}

func TestHierarchyBadGeometryErrors(t *testing.T) {
	cfg := testConfig(t)
	cfg.Core.L2.SizeKB = 0
	if _, err := NewHierarchy(cfg); err == nil {
		t.Error("NewHierarchy accepted a zero-size L2")
	}
}

func TestMulticoreBadConfigErrors(t *testing.T) {
	mc := mcConfig(t, false, 4)
	mc.Cores = 0
	if _, err := NewMulticore(mc); err == nil {
		t.Error("NewMulticore accepted zero cores")
	}
	mc = mcConfig(t, true, 4)
	mc.PerCore.Core.DL1.LineBytes = 48
	if _, err := NewMulticore(mc); err == nil {
		t.Error("NewMulticore accepted a non-power-of-two DL1 line size")
	}
}

func TestHierarchyLatencyOrdering(t *testing.T) {
	h := mustHierarchy(t, testConfig(t))
	// Cold access goes to DRAM; the next hits L1.
	cold := h.DataExtra(0, 0x10_0000, false)
	warm := h.DataExtra(0, 0x10_0000, false)
	if warm != 0 {
		t.Errorf("warm access extra = %d, want 0", warm)
	}
	if cold <= 40 {
		t.Errorf("cold access extra = %d, should include DRAM latency", cold)
	}
}

func TestHierarchyL2Hit(t *testing.T) {
	cfg := testConfig(t)
	h := mustHierarchy(t, cfg)
	// Touch enough distinct lines to overflow the 32KB DL1 but stay in L2.
	for i := 0; i < 3000; i++ {
		h.DataExtra(0, uint64(i)*32, false)
	}
	// Re-walk: everything should now come from the DL1 (stream prefetch) or
	// the L2 — never from DRAM.
	l2rt := cfg.Core.L2.RTCycles
	near := 0
	for i := 0; i < 1000; i++ {
		if e := h.DataExtra(0, uint64(i)*32, false); e <= l2rt {
			near++
		}
	}
	if near < 900 {
		t.Errorf("expected nearly all accesses within L2 after warmup, got %d/1000", near)
	}
}

func TestStreamPrefetchHidesSequentialMisses(t *testing.T) {
	cfg := testConfig(t)
	seq := mustHierarchy(t, cfg)
	var seqExtra int
	for i := 0; i < 20_000; i++ {
		seqExtra += seq.DataExtra(0, 0x100_0000+uint64(i)*8, false)
	}
	rnd := mustHierarchy(t, cfg)
	var rndExtra int
	addr := uint64(1)
	for i := 0; i < 20_000; i++ {
		addr = addr*6364136223846793005 + 1442695040888963407
		rndExtra += rnd.DataExtra(0, 0x100_0000+(addr%(64<<20))&^7, false)
	}
	if seqExtra*4 > rndExtra {
		t.Errorf("sequential stream (%d extra cycles) should be far cheaper than random (%d)", seqExtra, rndExtra)
	}
}

func mcConfig(t *testing.T, shared bool, cores int) config.MCConfig {
	t.Helper()
	s, err := config.Derive(tech.N22())
	if err != nil {
		t.Fatal(err)
	}
	mcs := config.DeriveMulticore(s)
	mc := mcs[config.MCBase]
	if shared {
		mc = mcs[config.MCHet]
	}
	mc.Cores = cores
	return mc
}

func TestMulticoreCoherenceInvalidation(t *testing.T) {
	mc := mcConfig(t, false, 4)
	m := mustMulticore(t, mc)
	addr := uint64(0x5000_0000)

	m.DataExtra(0, addr, false) // core 0 reads
	m.DataExtra(1, addr, false) // core 1 reads: shared
	before := m.Extra.Invalidations
	m.DataExtra(0, addr, true) // core 0 writes: invalidates core 1
	if m.Extra.Invalidations <= before {
		t.Error("write to a shared line must invalidate the other sharer")
	}
	// Core 1 re-reads: must miss in its L1 (was invalidated).
	extra := m.DataExtra(1, addr, false)
	if extra == 0 {
		t.Error("invalidated line cannot hit in L1")
	}
}

func TestMulticoreDirtyForwarding(t *testing.T) {
	mc := mcConfig(t, false, 4)
	m := mustMulticore(t, mc)
	addr := uint64(0x6000_0000)
	m.DataExtra(2, addr, true) // core 2 owns the line Modified
	before := m.Extra.Forwards
	m.DataExtra(3, addr, false) // core 3 reads: must be forwarded
	if m.Extra.Forwards <= before {
		t.Error("read of a remotely-modified line must be forwarded")
	}
}

func TestSharedL2PairsSeeEachOthersLines(t *testing.T) {
	mc := mcConfig(t, true, 4)
	m := mustMulticore(t, mc)
	addr := uint64(0x7100_0000)
	m.DataExtra(0, addr, false)
	// Core 1 shares core 0's L2: its miss should cost only the L2 RT.
	extra := m.DataExtra(1, addr, false)
	if extra != mc.PerCore.Core.L2.RTCycles {
		t.Errorf("paired core should hit the shared L2 (extra=%d, want %d)", extra, mc.PerCore.Core.L2.RTCycles)
	}
}

func TestSharedRouterHalvesStops(t *testing.T) {
	private := mustMulticore(t, mcConfig(t, false, 4))
	shared := mustMulticore(t, mcConfig(t, true, 4))
	if private.stops != 4 || shared.stops != 2 {
		t.Errorf("stops: private=%d shared=%d, want 4 and 2", private.stops, shared.stops)
	}
	if shared.String() == private.String() {
		t.Error("topologies should describe themselves differently")
	}
}

func TestRingHops(t *testing.T) {
	m := mustMulticore(t, mcConfig(t, false, 8))
	cases := []struct{ a, b, want int }{
		{0, 0, 0}, {0, 1, 1}, {0, 4, 4}, {0, 7, 1}, {2, 6, 4}, {1, 7, 2},
	}
	for _, c := range cases {
		if got := m.hops(c.a, c.b); got != c.want {
			t.Errorf("hops(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestPropertyHopsSymmetricAndBounded(t *testing.T) {
	m := mustMulticore(t, mcConfig(t, false, 8))
	f := func(a, b uint8) bool {
		x, y := int(a)%8, int(b)%8
		h := m.hops(x, y)
		return h == m.hops(y, x) && h >= 0 && h <= 4
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMulticoreStatsAggregate(t *testing.T) {
	m := mustMulticore(t, mcConfig(t, false, 4))
	for c := 0; c < 4; c++ {
		for i := 0; i < 100; i++ {
			m.DataExtra(c, uint64(0x1000_0000+c<<20+i*64), false)
			m.FetchExtra(c, uint64(0x40_0000+i*32))
		}
	}
	s := m.Stats()
	if s.DL1.Accesses != 400 || s.IL1.Accesses != 400 {
		t.Errorf("expected 400 DL1/IL1 accesses, got %d/%d", s.DL1.Accesses, s.IL1.Accesses)
	}
	if s.DRAMAccesses == 0 {
		t.Error("cold misses should reach DRAM")
	}
}

func TestHierStatsArithmetic(t *testing.T) {
	a := HierStats{
		IL1:          CacheStats{Accesses: 10, Misses: 3, Writebacks: 1},
		L3:           CacheStats{Accesses: 7, Misses: 5, Writebacks: 2},
		DRAMAccesses: 5, NoCHops: 9, Invalidations: 4, Forwards: 2,
	}
	b := HierStats{
		IL1:          CacheStats{Accesses: 4, Misses: 1},
		DRAMAccesses: 1, NoCHops: 3,
	}
	if got := a.Add(b).Sub(b); got != a {
		t.Errorf("(a+b)-b = %+v, want %+v", got, a)
	}
	want := HierStats{
		IL1:          CacheStats{Accesses: 6, Misses: 2, Writebacks: 1},
		L3:           CacheStats{Accesses: 7, Misses: 5, Writebacks: 2},
		DRAMAccesses: 4, NoCHops: 6, Invalidations: 4, Forwards: 2,
	}
	if got := a.Sub(b); got != want {
		t.Errorf("a-b = %+v, want %+v", got, want)
	}
	// Scale rounds to nearest: 10*0.25 = 2.5 → 3, 3*0.25 = 0.75 → 1.
	sc := a.Scale(0.25)
	if sc.IL1 != (CacheStats{Accesses: 3, Misses: 1, Writebacks: 0}) || sc.DRAMAccesses != 1 || sc.NoCHops != 2 {
		t.Errorf("a*0.25 = %+v", sc)
	}
	if a.Scale(1) != a {
		t.Error("scaling by 1 changed the counters")
	}
}
