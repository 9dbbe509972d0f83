package experiments

import (
	"testing"

	"vertical3d/internal/config"
	"vertical3d/internal/tech"
	"vertical3d/internal/trace"
)

// TestFig8HealthReportsDroppedRows proves the keep-going skip path is no
// longer silent: a benchmark whose Fig6 cells partially failed is dropped
// from the Figure 8 table, and every failed source cell behind the drop is
// recorded as a "fig8" DegradationEvent.
func TestFig8HealthReportsDroppedRows(t *testing.T) {
	trace.ResetCache()
	defer trace.ResetCache()
	s, err := config.Derive(tech.N22())
	if err != nil {
		t.Fatal(err)
	}
	profiles := oracleProfiles(t, "Mcf", "Gobmk")

	opt := QuickRunOptions()
	opt.KeepGoing = true
	opt.CellHook = func(bench, design string) {
		if bench == "Mcf" && design == config.TSV3D.String() {
			panic("injected: thermal-relevant cell lost")
		}
	}
	f, err := Fig6With(s, profiles, opt)
	if err != nil {
		t.Fatal(err)
	}
	if f.FailedCells() != 1 {
		t.Fatalf("want exactly the injected failure, got %d failed cells", f.FailedCells())
	}

	rows, h, err := Fig8Health(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Benchmark != "Gobmk" {
		t.Fatalf("want only Gobmk's thermal row, got %d row(s)", len(rows))
	}
	if !h.Degraded || len(h.Events) != 1 {
		t.Fatalf("want one degradation event for the dropped row, got %+v", h)
	}
	ev := h.Events[0]
	if ev.Layer != "fig8" || ev.Cell != "Mcf/TSV3D" {
		t.Errorf("event = %+v, want layer fig8 cell Mcf/TSV3D", ev)
	}
	if ev.Cause == "" {
		t.Error("event carries no cause")
	}

	// A fault-free source sweep reports a clean bill.
	clean, err := Fig6With(s, profiles, QuickRunOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, h, err = Fig8Health(clean); err != nil || h.Degraded {
		t.Errorf("clean sweep: err=%v degraded=%v", err, h.Degraded)
	}
}
