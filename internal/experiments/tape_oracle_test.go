package experiments

import (
	"reflect"
	"sync"
	"testing"

	"vertical3d/internal/config"
	"vertical3d/internal/tech"
	"vertical3d/internal/trace"
	"vertical3d/internal/uarch"
	"vertical3d/internal/warm"
)

// TestOracleFig6TapeInvariant is the probe tape's sweep-level gate: a Fig6
// sweep whose cells replay shared probe tapes must deep-equal one whose
// cells probe their own hierarchies (NoTraceCache), full and sampled, at
// one and eight workers, on both kernels. Sampled taped cells fast-forward
// by summing tape words, so the sampled comparison covers every
// fast-forward observable the estimator regresses on. The taped sweeps
// list the designs in a shuffled order, so a design other than Base starts
// every profile's tape and, at eight workers, all six designs of a profile
// extend and read it concurrently; each builds exactly one tape per
// profile and geometry.
func TestOracleFig6TapeInvariant(t *testing.T) {
	trace.ResetCache()
	warm.ResetCache()
	defer trace.ResetCache()
	defer warm.ResetCache()
	s, err := config.Derive(tech.N22())
	if err != nil {
		t.Fatal(err)
	}
	profiles := oracleProfiles(t, "Mcf", "Gobmk")
	shuffled := []config.Design{config.M3DHetAgg, config.TSV3D, config.M3DIso, config.Base, config.M3DHet, config.M3DHetNaive}
	geoms := map[warm.Geometry]bool{}
	for _, d := range shuffled {
		geoms[warm.GeometryOf(s.Configs[d])] = true
	}
	full := RunOptions{Warmup: 4_000, Measure: 15_000, Seed: 9}

	for _, opt := range []RunOptions{full, sampledOracleOptions()} {
		for _, k := range []uarch.Kernel{uarch.KernelReference, uarch.KernelEvent} {
			o := opt
			o.Kernel, o.NoTraceCache = k, true
			want, err := Fig6With(s, profiles, o)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range []int{1, 8} {
				var mu sync.Mutex
				peak := 0
				o := opt
				o.Kernel, o.Workers = k, w
				o.CellHook = func(string, string) {
					n, _ := warm.ResidentTapes()
					mu.Lock()
					peak = max(peak, n)
					mu.Unlock()
				}
				builds := warm.TapeBuilds()
				got, err := Fig6WithDesigns(s, profiles, shuffled, o)
				if err != nil {
					t.Fatalf("sample=%v kernel=%v workers=%d: %v", opt.Sample, k, w, err)
				}
				if peak == 0 {
					t.Errorf("sample=%v kernel=%v workers=%d: no cell saw a probe tape resident", opt.Sample, k, w)
				}
				if n := warm.TapeBuilds() - builds; n != uint64(len(profiles)*len(geoms)) {
					t.Errorf("sample=%v kernel=%v workers=%d: %d probe tapes built, want %d (profiles × geometries)",
						opt.Sample, k, w, n, len(profiles)*len(geoms))
				}
				if !reflect.DeepEqual(want.Runs, got.Runs) {
					t.Errorf("sample=%v kernel=%v workers=%d: taped Fig6 Runs diverge from the inline sweep", opt.Sample, k, w)
				}
				if !reflect.DeepEqual(want.Speedup, got.Speedup) || !reflect.DeepEqual(want.NormEnergy, got.NormEnergy) {
					t.Errorf("sample=%v kernel=%v workers=%d: taped Fig6 ratios diverge from the inline sweep", opt.Sample, k, w)
				}
			}
		}
	}
}
