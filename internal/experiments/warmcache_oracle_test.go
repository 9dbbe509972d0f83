package experiments

import (
	"fmt"
	"reflect"
	"testing"

	"vertical3d/internal/config"
	"vertical3d/internal/multicore"
	"vertical3d/internal/tech"
	"vertical3d/internal/trace"
	"vertical3d/internal/uarch"
	"vertical3d/internal/warm"
)

// TestOracleFig9WarmCacheInvariant is the sampled multicore oracle. A
// sampled cell fast-forwards each core's warmup through the core's own
// warmer, so every Run map must deep-equal across both kernels, one and
// eight workers, the WarmCache option (read by nothing; no snapshot is
// captured or restored) and the trace cache on and off (replayer-fed and
// generator-fed fast-forwards agree). The warmup must also be taken: a
// sampled sweep must differ from the full one.
func TestOracleFig9WarmCacheInvariant(t *testing.T) {
	trace.ResetCache()
	defer trace.ResetCache()
	s, err := config.Derive(tech.N22())
	if err != nil {
		t.Fatal(err)
	}
	profiles := oracleProfiles(t, "Fft", "Barnes")
	opt := multicore.Options{TotalInstrs: 30_000, WarmupPerCore: 2_000, Phases: 2, Seed: 5}
	full, err := Fig9With(s, profiles, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Sample = true

	variants := []struct{ warmOn, noCache bool }{{false, false}, {true, false}, {true, true}}
	var results []*Fig9Result
	var names []string
	for _, k := range []uarch.Kernel{uarch.KernelReference, uarch.KernelEvent} {
		for _, w := range []int{1, 8} {
			for _, v := range variants {
				o := opt
				o.Kernel, o.Workers, o.WarmCache, o.NoTraceCache = k, w, v.warmOn, v.noCache
				name := fmt.Sprintf("kernel=%v workers=%d warm=%v noCache=%v", k, w, v.warmOn, v.noCache)
				f, err := Fig9With(s, profiles, o)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				results = append(results, f)
				names = append(names, name)
			}
		}
	}
	base := results[0]
	for i, f := range results[1:] {
		if !reflect.DeepEqual(base.Runs, f.Runs) {
			t.Errorf("Fig9 Runs diverge between %s and %s", names[0], names[i+1])
		}
		if !reflect.DeepEqual(base.Speedup, f.Speedup) || !reflect.DeepEqual(base.NormEnergy, f.NormEnergy) {
			t.Errorf("Fig9 derived ratios diverge between %s and %s", names[0], names[i+1])
		}
	}
	if reflect.DeepEqual(full.Runs, base.Runs) {
		t.Error("sampled and full Fig9 sweeps agree: the functional warmup was not taken")
	}
	if st := warm.Stats(); st != (warm.Counters{}) {
		t.Errorf("sampled multicore sweeps moved the warm-snapshot counters: %+v, want none", st)
	}
}
