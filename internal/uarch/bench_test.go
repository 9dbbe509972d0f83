package uarch

import (
	"testing"

	"vertical3d/internal/config"
	"vertical3d/internal/mem"
	"vertical3d/internal/tech"
	"vertical3d/internal/trace"
	"vertical3d/internal/workload"
)

// benchProfiles spans the behaviours that stress different kernel paths:
// Hmmer (core-bound, issue-limited), Mcf (memory-bound, long idle stretches
// — the idle-skip showcase), Gobmk (branchy, squash-heavy), Lbm (biased
// branches, streaming loads).
var benchProfiles = []string{"Hmmer", "Mcf", "Gobmk", "Lbm"}

// BenchmarkCoreRun measures simulator throughput in simulated MIPS
// (million retired instructions per wall-clock second) for both kernels on
// each profile. scripts/bench.sh parses the mips/ns_per_instr metrics into
// BENCH_core.json; the acceptance bar is event ≥ 2x reference on a
// memory-bound profile with no profile regressing.
func BenchmarkCoreRun(b *testing.B) {
	s, err := config.Derive(tech.N22())
	if err != nil {
		b.Fatal(err)
	}
	cfg := s.Configs[config.Base]
	const instrs = 150_000
	for _, k := range []Kernel{KernelEvent, KernelReference} {
		for _, bench := range benchProfiles {
			p, err := workload.ByName(bench)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(k.String()+"/"+bench, func(b *testing.B) {
				var retired uint64
				for i := 0; i < b.N; i++ {
					h, err := mem.NewHierarchy(cfg)
					if err != nil {
						b.Fatal(err)
					}
					c, err := NewCoreKernel(0, cfg, trace.NewGenerator(p, 42, 0), h, k)
					if err != nil {
						b.Fatal(err)
					}
					st := c.Run(instrs)
					retired += st.Instrs
				}
				sec := b.Elapsed().Seconds()
				if sec > 0 {
					b.ReportMetric(float64(retired)/sec/1e6, "mips")
					b.ReportMetric(sec*1e9/float64(retired), "ns_per_instr")
				}
			})
		}
	}
}

// BenchmarkKernelTape measures the detailed kernel alone, in ns per
// retired instruction: a tape-fed core on the Base design reads its probe
// outcomes from a tape recorded before the timer starts, so neither the
// trace generator nor the cache hierarchy is timed, unlike BenchmarkCoreRun.
func BenchmarkKernelTape(b *testing.B) {
	s, err := config.Derive(tech.N22())
	if err != nil {
		b.Fatal(err)
	}
	cfg := s.Configs[config.Base]
	const instrs = 150_000
	for _, bench := range benchProfiles {
		p, err := workload.ByName(bench)
		if err != nil {
			b.Fatal(err)
		}
		tp, err := NewTape(cfg, trace.NewGenerator(p, 42, 0))
		if err != nil {
			b.Fatal(err)
		}
		run := func() uint64 {
			c, err := NewTapeCore(cfg, tp, KernelEvent)
			if err != nil {
				b.Fatal(err)
			}
			return c.Run(instrs).Instrs
		}
		run() // records every word the timed runs fetch
		b.Run(bench, func(b *testing.B) {
			var retired uint64
			for i := 0; i < b.N; i++ {
				retired += run()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(retired), "ns_per_instr")
		})
	}
}

// BenchmarkTapeBuild measures probe-tape recording in ns per recorded
// instruction: the functional warmer's probes plus the word encoding, the
// counter deltas and the checkpoint sums, over the Base geometry.
func BenchmarkTapeBuild(b *testing.B) {
	s, err := config.Derive(tech.N22())
	if err != nil {
		b.Fatal(err)
	}
	const instrs = 32 * tapeChunk
	for _, bench := range benchProfiles {
		p, err := workload.ByName(bench)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(bench, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tp, err := NewTape(s.Configs[config.Base], trace.NewGenerator(p, 42, 0))
				if err != nil {
					b.Fatal(err)
				}
				tp.holding(instrs)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*instrs), "ns_per_instr")
		})
	}
}

// BenchmarkTapeSkip measures a tape-fed core's fast-forward over a tape
// recorded beforehand, in ns per skipped instruction and per skip. The
// skips are odd-sized so they start and end mid-stride.
func BenchmarkTapeSkip(b *testing.B) {
	s, err := config.Derive(tech.N22())
	if err != nil {
		b.Fatal(err)
	}
	p, err := workload.ByName("Mcf")
	if err != nil {
		b.Fatal(err)
	}
	const instrs, skip = 64 * tapeChunk, 20_001
	tp, err := NewTape(s.Configs[config.Base], trace.NewGenerator(p, 42, 0))
	if err != nil {
		b.Fatal(err)
	}
	tp.holding(instrs)
	b.ResetTimer()
	var skips int
	for i := 0; i < b.N; i++ {
		c, err := NewTapeCore(s.Configs[config.M3DHet], tp, KernelEvent)
		if err != nil {
			b.Fatal(err)
		}
		for c.Cursor()+skip <= instrs {
			c.FastForward(skip)
			skips++
		}
	}
	ns := float64(b.Elapsed().Nanoseconds())
	b.ReportMetric(ns/float64(skips*skip), "ns_per_instr")
	b.ReportMetric(ns/float64(skips), "ns_per_skip")
}
