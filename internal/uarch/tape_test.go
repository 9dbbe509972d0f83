package uarch

import (
	"math/rand"
	"reflect"
	"testing"

	"vertical3d/internal/config"
	"vertical3d/internal/mem"
	"vertical3d/internal/tech"
	"vertical3d/internal/trace"
	"vertical3d/internal/workload"
)

// TestTapeCoreMatchesInline is the probe tape's oracle: for every SPEC
// profile, on both kernels, an M3D-Het core replaying a tape recorded over
// the Base configuration must reach the Stats of an inline M3D-Het core
// probing its own hierarchy at the warmup and measure boundaries of a
// quick-sized cell (20k + 60k instructions), and the tape's counters at
// each boundary's fetch count must equal the live hierarchy's. A single
// diverging probe changes a fill level, a forwarding or prediction bit, or
// a counter, and fails here; the two designs' different fill latencies
// check that each core prices the recorded levels itself.
func TestTapeCoreMatchesInline(t *testing.T) {
	const warmup, measure = 20_000, 60_000
	s := suite(t)
	cfg := s.Configs[config.M3DHet]
	for _, prof := range workload.SPEC2006() {
		prof := prof
		t.Run(prof.Name, func(t *testing.T) {
			t.Parallel()
			rec := trace.Record(prof, 3, 0, warmup+measure)
			for _, k := range []Kernel{KernelEvent, KernelReference} {
				tp, err := NewTape(s.Configs[config.Base], trace.NewReplayer(rec))
				if err != nil {
					t.Fatal(err)
				}
				h, err := mem.NewHierarchy(cfg)
				if err != nil {
					t.Fatal(err)
				}
				inline, err := NewCoreKernel(0, cfg, trace.NewReplayer(rec), h, k)
				if err != nil {
					t.Fatal(err)
				}
				taped, err := NewTapeCore(cfg, tp, k)
				if err != nil {
					t.Fatal(err)
				}
				for _, n := range []uint64{warmup, warmup + measure} {
					want, got := inline.Run(n), taped.Run(n)
					if got != want {
						t.Fatalf("%v at %d: tape-fed Stats diverge:\ninline %+v\ntape   %+v", k, n, want, got)
					}
					if hs, live := tp.HierStats(got.Fetched), h.Stats(); hs != live {
						t.Fatalf("%v at %d: tape HierStats diverge:\nlive %+v\ntape %+v", k, n, live, hs)
					}
				}
			}
		})
	}
}

// TestTapeRefusals covers the cases a tape cannot serve: a core without a
// tape and fill latencies that cannot be told apart.
func TestTapeRefusals(t *testing.T) {
	s := suite(t)
	cfg := s.Configs[config.Base]
	if _, err := NewTapeCore(cfg, nil, KernelEvent); err == nil {
		t.Error("NewTapeCore accepted a nil tape")
	}
	flat := cfg
	flat.Core.L3.RTCycles = 0 // an L3 hit costs what an L2 hit does
	prof, err := workload.ByName("Mcf")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewTape(flat, trace.NewGenerator(prof, 1, 0)); err == nil {
		t.Error("NewTape accepted fill latencies that cannot be classified")
	}
	tp, err := NewTape(cfg, trace.NewGenerator(prof, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewTapeCore(flat, tp, KernelEvent); err == nil {
		t.Error("NewTapeCore accepted fill latencies that cannot be classified")
	}
	if _, err := NewTapeCore(cfg, tp, KernelEvent); err != nil {
		t.Fatal(err)
	}
}

// TestTapeCoreSampledMatchesInline is the sampled form of the oracle: on
// both kernels, a tape-fed M3D-Het core's functional warmup and
// RunSampled — fast-forwards summed from tape words — must return the
// SampleResult and end in the Stats of an inline core that warms its own
// hierarchy, and the tape's counters read around each measured window must
// equal the live hierarchy's.
func TestTapeCoreSampledMatchesInline(t *testing.T) {
	s := suite(t)
	cfg := s.Configs[config.M3DHet]
	sp := SampleParams{Interval: 20_000, Warmup: 500, Unit: 2_000}
	for _, bench := range []string{"Mcf", "Gobmk", "Hmmer", "Lbm"} {
		prof, err := workload.ByName(bench)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []Kernel{KernelEvent, KernelReference} {
			h, err := mem.NewHierarchy(cfg)
			if err != nil {
				t.Fatal(err)
			}
			inline, err := NewCoreKernel(0, cfg, trace.NewGenerator(prof, 5, 0), h, k)
			if err != nil {
				t.Fatal(err)
			}
			tp, err := NewTape(s.Configs[config.Base], trace.NewGenerator(prof, 5, 0))
			if err != nil {
				t.Fatal(err)
			}
			taped, err := NewTapeCore(cfg, tp, k)
			if err != nil {
				t.Fatal(err)
			}
			run := func(c *Core, hier func() mem.HierStats) (SampleResult, []mem.HierStats) {
				c.FastForward(10_000)
				var wins []mem.HierStats
				res, err := c.RunSampled(120_000, sp, func(bool) { wins = append(wins, hier()) })
				if err != nil {
					t.Fatal(err)
				}
				return res, wins
			}
			want, wantWins := run(inline, h.Stats)
			got, gotWins := run(taped, func() mem.HierStats { return tp.HierStats(taped.Cursor()) })
			if got != want || taped.Stats != inline.Stats {
				t.Errorf("%s %v: tape-fed sampled run diverges:\ninline %+v\ntape   %+v", bench, k, want, got)
			}
			if !reflect.DeepEqual(gotWins, wantWins) {
				t.Errorf("%s %v: tape window HierStats diverge from the live hierarchy's", bench, k)
			}
			if got.Windows == 0 || got.FastForwarded == 0 {
				t.Errorf("%s %v: vacuous sampled run %+v", bench, k, got)
			}
		}
	}
}

// skipCases are (cursor, n) pairs at the tape's stride, chunk and
// recorded-end boundaries, in an order that matters on a fresh tape: the
// first skip records exactly one chunk, so the next cases start at, end at
// and straddle the recorded end before later ones extend the tape.
var skipCases = [][2]uint64{
	{0, tapeChunk}, {tapeChunk, 0}, {tapeChunk - 5, 5}, {tapeChunk - 1, 2},
	{0, 0}, {0, 1}, {0, tapeStride}, {1, tapeStride - 1}, {tapeStride - 1, 1},
	{tapeStride - 1, 2}, {tapeStride, 0}, {tapeStride, tapeStride}, {tapeStride + 3, 0},
	{tapeChunk, tapeChunk}, {tapeChunk - 3, 2*tapeChunk + 5}, {2*tapeChunk + 17, 3*tapeStride + 900},
	{3*tapeStride + 511, 511}, {3*tapeStride + 511, 1537},
}

// skipFixture returns a fresh probe tape over prof, recorded with the Base
// geometry, and two configurations whose fill latencies differ, so a skip
// is checked at two latency sets.
func skipFixture(t testing.TB, prof string) (*Tape, []config.Config) {
	s, err := config.Derive(tech.N22())
	if err != nil {
		t.Fatal(err)
	}
	p, err := workload.ByName(prof)
	if err != nil {
		t.Fatal(err)
	}
	tp, err := NewTape(s.Configs[config.Base], trace.NewGenerator(p, 7, 0))
	if err != nil {
		t.Fatal(err)
	}
	cfgs := []config.Config{s.Configs[config.Base], s.Configs[config.M3DHet]}
	if latencies(cfgs[0]) == latencies(cfgs[1]) {
		t.Fatal("the two configurations share fill latencies")
	}
	return tp, cfgs
}

func latencies(cfg config.Config) [3]int {
	l2, l3, dram := mem.FillLatenciesOf(cfg)
	return [3]int{l2, l3, dram}
}

// tapeCounterBits is the width of each counter field of a tape word, in
// tapeCounts order: wordSum's statement of the layout.
var tapeCounterBits = [12]uint{1, 1, 1, 2, 2, 2, 3, 3, 3, 3, 3, 3}

// wordSum is skipTape's per-word reference: it prices and observes every
// tape word from the start with WarmObs.observe, the inline warmer's
// accounting, and returns the observables of words [a, a+n), the miss-run
// state after them, and the hierarchy counter deltas summed over words
// [0, a+n).
func wordSum(c *Core, tp *Tape, a, n uint64) (WarmObs, bool, tapeCounts) {
	var pre, o WarmObs
	var counts tapeCounts
	run := false
	for i := uint64(0); i < a+n; {
		for _, w := range tp.window(int(i))[:min(uint64(tapeChunk)-i%tapeChunk, a+n-i)] {
			acc := &o
			if i < a {
				acc = &pre
			}
			acc.observe(trace.Kind(w&tpKindMask), c.priced(w), &run)
			sh := uint(tpCountShift)
			for j, b := range tapeCounterBits {
				counts[j] += w >> sh & (1<<b - 1)
				sh += b
			}
			i++
		}
	}
	return o, run, counts
}

// checkSkip fast-forwards a fresh tape-fed core of each configuration to a
// and then by n, and compares the second skip's observables, the core's
// miss-run state and the tape's HierStats at a+n with wordSum's.
func checkSkip(t testing.TB, tp *Tape, cfgs []config.Config, a, n uint64) {
	for _, cfg := range cfgs {
		c, err := NewTapeCore(cfg, tp, KernelEvent)
		if err != nil {
			t.Fatal(err)
		}
		c.FastForward(a)
		c.takeWarmObs()
		c.FastForward(n)
		got := c.takeWarmObs()
		want, run, counts := wordSum(c, tp, a, n)
		if got != want || c.dataMissRun != run {
			t.Fatalf("%v skip (%d, %d):\n got %+v run=%v\nwant %+v run=%v", cfg.Design, a, n, got, c.dataMissRun, want, run)
		}
		if got, want := tp.HierStats(a+n), counts.hierStats(); got != want {
			t.Fatalf("HierStats(%d):\n got %+v\nwant %+v", a+n, got, want)
		}
	}
}

// TestTapeSkipMatchesWordSum checks the checkpointed fast-forward against
// the per-word reference at the boundary cases and at seeded random
// positions, on a memory-bound and a branchy profile, so fills of every
// level, squash triggers and miss runs that cross checkpoints all occur.
func TestTapeSkipMatchesWordSum(t *testing.T) {
	for _, prof := range []string{"Mcf", "Gobmk"} {
		tp, cfgs := skipFixture(t, prof)
		for _, c := range skipCases {
			checkSkip(t, tp, cfgs, c[0], c[1])
		}
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 20; i++ {
			checkSkip(t, tp, cfgs, uint64(rng.Intn(5*tapeChunk)), uint64(rng.Intn(3*tapeChunk)))
		}
		if s := tp.snap.Load(); len(s.cums) != s.recorded()/tapeStride+1 || tp.Bytes() <= 8*s.recorded() {
			t.Errorf("%s: %d checkpoints over %d words, %d bytes", prof, len(s.cums), s.recorded(), tp.Bytes())
		}
		o, _, _ := wordSum(&Core{fillLat: [4]int32{0, 1, 2, 3}}, tp, 0, 4*tapeChunk)
		if o.ExtraFetch == 0 || o.ExtraData == 0 || o.Mispredicts == 0 || o.MissRuns == 0 {
			t.Errorf("%s: vacuous tape, observables %+v", prof, o)
		}
	}
}

// FuzzTapeSkip checks the checkpointed fast-forward against the per-word
// reference for arbitrary (cursor, n), each up to two and a half chunks.
func FuzzTapeSkip(f *testing.F) {
	for _, c := range skipCases {
		f.Add(uint32(c[0]), uint32(c[1]))
	}
	tp, cfgs := skipFixture(f, "Mcf")
	f.Fuzz(func(t *testing.T, a, n uint32) {
		const limit = 5*tapeChunk/2 + 1
		checkSkip(t, tp, cfgs, uint64(a%limit), uint64(n%limit))
	})
}
