package trace_test

import (
	"testing"

	"vertical3d/internal/trace"
	"vertical3d/internal/workload"
)

// TestRecordingBytesPerInstr pins the recording footprint multicore
// sweeps keep resident: at most 12 bytes per instruction on every
// Parallel profile, at streams 0 and 7 (the first and last core of an
// 8-core design).
func TestRecordingBytesPerInstr(t *testing.T) {
	const n, limit = 100_000, 12.0
	for _, p := range workload.Parallel() {
		for _, stream := range []int{0, 7} {
			rec := trace.Record(p, 42, stream, n)
			if got := float64(rec.Bytes()) / float64(rec.Len()); got > limit {
				t.Errorf("%s stream %d: %.2f bytes per instruction, want at most %.0f", p.Name, stream, got, limit)
			} else if testing.Verbose() {
				t.Logf("%s stream %d: %.2f bytes per instruction", p.Name, stream, got)
			}
		}
	}
}
