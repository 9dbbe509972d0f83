// Benchmarks live in the external test package so they can pull a real
// workload profile (internal/workload imports trace, so an in-package test
// would be an import cycle).
package trace_test

import (
	"testing"

	"vertical3d/internal/trace"
	"vertical3d/internal/workload"
)

// benchProfile loads a representative SPEC-like profile for the
// generator/replayer throughput comparison.
func benchProfile(b *testing.B) trace.Profile {
	b.Helper()
	p, err := workload.ByName("Mcf")
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkGenerator measures synthesis throughput — the per-cell cost the
// recording cache eliminates. scripts/bench.sh parses ns_per_instr and
// minstr_per_s into BENCH_trace.json.
func BenchmarkGenerator(b *testing.B) {
	p := benchProfile(b)
	const batch = 4096
	buf := make([]trace.Inst, batch)
	g := trace.NewGenerator(p, 42, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.NextBatch(buf)
	}
	instrs := float64(b.N) * batch
	sec := b.Elapsed().Seconds()
	if sec > 0 {
		b.ReportMetric(sec*1e9/instrs, "ns_per_instr")
		b.ReportMetric(instrs/sec/1e6, "minstr_per_s")
	}
}

// BenchmarkReplayer measures replay throughput over a pre-materialised
// recording (the steady-state cost every sweep cell pays after the first).
func BenchmarkReplayer(b *testing.B) {
	p := benchProfile(b)
	const batch = 4096
	const length = 1 << 20
	rec := trace.Record(p, 42, 0, length)
	buf := make([]trace.Inst, batch)
	r := trace.NewReplayer(rec)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r.Pos()+batch > length { // stay inside the recording: measure replay, not extension
			r = trace.NewReplayer(rec)
		}
		r.NextBatch(buf)
	}
	instrs := float64(b.N) * batch
	sec := b.Elapsed().Seconds()
	if sec > 0 {
		b.ReportMetric(sec*1e9/instrs, "ns_per_instr")
		b.ReportMetric(instrs/sec/1e6, "minstr_per_s")
	}
}
