package uarch

import (
	"testing"

	"vertical3d/internal/config"
	"vertical3d/internal/mem"
	"vertical3d/internal/trace"
	"vertical3d/internal/workload"
)

// runKernel executes one benchmark on one kernel and returns the core stats
// and the full memory-hierarchy stats — every externally visible number.
func runKernel(t *testing.T, cfg config.Config, bench string, seed int64, k Kernel, instrs uint64) (Stats, mem.HierStats) {
	t.Helper()
	p, err := workload.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	gen := trace.NewGenerator(p, seed, 0)
	h, err := mem.NewHierarchy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCoreKernel(0, cfg, gen, h, k)
	if err != nil {
		t.Fatal(err)
	}
	st := c.Run(instrs)
	return st, h.Stats()
}

// TestOracleKernelsBitIdentical is the differential oracle of the event
// kernel: every workload profile, on the slowest and fastest single-core
// designs, must produce byte-for-byte identical Stats AND HierStats under
// both kernels. Any divergence in issue selection, store forwarding,
// idle-skip accounting or squash handling shows up here.
func TestOracleKernelsBitIdentical(t *testing.T) {
	s := suite(t)
	for _, d := range []config.Design{config.Base, config.M3DHet} {
		cfg := s.Configs[d]
		for _, bench := range workload.Names() {
			bench := bench
			t.Run(cfg.Name+"/"+bench, func(t *testing.T) {
				t.Parallel()
				refSt, refMem := runKernel(t, cfg, bench, 7, KernelReference, 25_000)
				evSt, evMem := runKernel(t, cfg, bench, 7, KernelEvent, 25_000)
				if refSt != evSt {
					t.Errorf("Stats diverge:\nref %+v\nevt %+v", refSt, evSt)
				}
				if refMem != evMem {
					t.Errorf("HierStats diverge:\nref %+v\nevt %+v", refMem, evMem)
				}
			})
		}
	}
}

// TestOracleStepEquivalentToRun pins the idle-skip transform: Run (which
// fast-forwards idle stretches) must land on exactly the same Stats as
// stepping the event kernel one cycle at a time, which never skips.
func TestOracleStepEquivalentToRun(t *testing.T) {
	s := suite(t)
	cfg := s.Configs[config.Base]
	for _, bench := range []string{"Mcf", "Hmmer", "Gobmk"} {
		p, err := workload.ByName(bench)
		if err != nil {
			t.Fatal(err)
		}
		mk := func() *Core {
			h, err := mem.NewHierarchy(cfg)
			if err != nil {
				t.Fatal(err)
			}
			c, err := NewCoreKernel(0, cfg, trace.NewGenerator(p, 11, 0), h, KernelEvent)
			if err != nil {
				t.Fatal(err)
			}
			return c
		}
		run, step := mk(), mk()
		run.Run(20_000)
		for step.Stats.Instrs < 20_000 {
			step.Step()
		}
		if run.Stats != step.Stats {
			t.Errorf("%s: Run (idle-skip) vs Step diverge:\nrun  %+v\nstep %+v", bench, run.Stats, step.Stats)
		}
	}
}

// TestKernelNames pins the kernel spellings journal identities key on, and
// that an unknown kernel is refused.
func TestKernelNames(t *testing.T) {
	if KernelEvent.String() != "event" || KernelReference.String() != "reference" {
		t.Errorf("kernel names = %q, %q; want event, reference", KernelEvent, KernelReference)
	}
	s := suite(t)
	cfg := s.Configs[config.Base]
	h, err := mem.NewHierarchy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := workload.ByName("Mcf")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewCoreKernel(0, cfg, trace.NewGenerator(p, 1, 0), h, Kernel(9)); err == nil {
		t.Error("NewCoreKernel accepted an unknown kernel")
	}
}
