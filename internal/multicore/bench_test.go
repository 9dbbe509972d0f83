package multicore

import (
	"testing"

	"vertical3d/internal/config"
	"vertical3d/internal/tech"
	"vertical3d/internal/trace"
	"vertical3d/internal/uarch"
	"vertical3d/internal/workload"
)

// BenchmarkMulticoreStep measures lockstep multicore throughput — the mode
// where cores advance one cycle at a time through Step, which never
// idle-skips. The event kernel's win here comes purely from the O(ready)
// issue stage and the indexed store forwarding, so this isolates those two
// optimisations from the idle-skip fast path measured by BenchmarkCoreRun.
func BenchmarkMulticoreStep(b *testing.B) {
	s, err := config.Derive(tech.N22())
	if err != nil {
		b.Fatal(err)
	}
	m := config.DeriveMulticore(s)
	p, err := workload.ByName("Fft")
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range []uarch.Kernel{uarch.KernelEvent, uarch.KernelReference} {
		b.Run(k.String(), func(b *testing.B) {
			opt := Options{TotalInstrs: 120_000, WarmupPerCore: 4_000, Phases: 2,
				Seed: 42, Lockstep: true, Kernel: k}
			var retired uint64
			for i := 0; i < b.N; i++ {
				r, err := Run(m[config.MCBase], p, opt)
				if err != nil {
					b.Fatal(err)
				}
				retired += r.Instrs
			}
			sec := b.Elapsed().Seconds()
			if sec > 0 {
				b.ReportMetric(float64(retired)/sec/1e6, "mips")
			}
		})
	}
}

// BenchmarkMulticoreRun measures a non-lockstep Run sized like
// DefaultOptions — the mode and size of a Fig9 sweep cell, where each
// core runs its phase to completion in turn through the coherent memory
// system. Every iteration starts from a cold trace cache, so the figure
// includes recording the per-core streams.
func BenchmarkMulticoreRun(b *testing.B) {
	s, err := config.Derive(tech.N22())
	if err != nil {
		b.Fatal(err)
	}
	m := config.DeriveMulticore(s)
	p, err := workload.ByName("Fft")
	if err != nil {
		b.Fatal(err)
	}
	opt := DefaultOptions()
	var retired uint64
	for i := 0; i < b.N; i++ {
		trace.ResetCache()
		r, err := Run(m[config.MCBase], p, opt)
		if err != nil {
			b.Fatal(err)
		}
		retired += r.Instrs
	}
	trace.ResetCache()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(retired)/sec/1e6, "mips")
	}
}
