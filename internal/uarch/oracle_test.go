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

// FuzzKernelsBitIdentical widens the differential oracle to fuzzed core
// geometries: ROB sizes on and off the 64-slot word boundary of the event
// kernel's slot bitsets, narrow and wide issue, long divides, and DRAM
// latencies that put wakeups several wake-wheel laps ahead. For each
// configuration that config validates it checks that the reference and
// event kernels agree on Stats and HierStats, that the event kernel's Run
// agrees with stepping it cycle by cycle, and that a fast-forward mid-run
// leaves both kernels equal.
func FuzzKernelsBitIdentical(f *testing.F) {
	f.Add(uint8(0), int64(1), uint16(192), uint16(84), uint8(6), uint8(20), uint16(50))
	f.Add(uint8(7), int64(2), uint16(8), uint16(4), uint8(1), uint8(1), uint16(400))
	f.Add(uint8(12), int64(3), uint16(64), uint16(64), uint8(2), uint8(40), uint16(900))
	f.Add(uint8(3), int64(4), uint16(65), uint16(30), uint8(8), uint8(7), uint16(30))
	f.Add(uint8(25), int64(5), uint16(300), uint16(120), uint8(4), uint8(63), uint16(700))
	f.Add(uint8(18), int64(6), uint16(129), uint16(200), uint8(3), uint8(12), uint16(250))
	base := suite(f).Configs[config.Base]
	names := workload.Names()
	f.Fuzz(func(t *testing.T, prof uint8, seed int64, rob, iq uint16, width, div uint8, dramNs uint16) {
		cfg := base
		cfg.Core.ROBSize = 8 + int(rob)%293
		cfg.Core.IQSize = 1 + int(iq)%cfg.Core.ROBSize
		cfg.Core.IssueWidth = 1 + int(width)%8
		cfg.Core.DivLatency = 1 + int(div)%64
		cfg.Core.DRAMLatencyNs = float64(20 + int(dramNs)%1000)
		if err := cfg.Validate(); err != nil {
			t.Skip(err)
		}
		bench := names[int(prof)%len(names)]
		p, err := workload.ByName(bench)
		if err != nil {
			t.Fatal(err)
		}
		mk := func(k Kernel) (*Core, *mem.Hierarchy) {
			h, err := mem.NewHierarchy(cfg)
			if err != nil {
				t.Fatal(err)
			}
			c, err := NewCoreKernel(0, cfg, trace.NewGenerator(p, seed, 0), h, k)
			if err != nil {
				t.Fatal(err)
			}
			return c, h
		}
		const n = 3000
		ref, refH := mk(KernelReference)
		ev, evH := mk(KernelEvent)
		step, _ := mk(KernelEvent)
		ref.Run(n)
		ev.Run(n)
		for step.Stats.Instrs < n {
			step.Step()
		}
		if ref.Stats != ev.Stats || refH.Stats() != evH.Stats() {
			t.Fatalf("%s %+v: kernels diverge:\nref %+v\nevt %+v", bench, cfg.Core, ref.Stats, ev.Stats)
		}
		if step.Stats != ev.Stats {
			t.Fatalf("%s %+v: Run vs Step diverge:\nrun  %+v\nstep %+v", bench, cfg.Core, ev.Stats, step.Stats)
		}
		ref.FastForward(1000)
		ev.FastForward(1000)
		ref.Run(2 * n)
		ev.Run(2 * n)
		if ref.Stats != ev.Stats || refH.Stats() != evH.Stats() {
			t.Fatalf("%s %+v: kernels diverge after a fast-forward:\nref %+v\nevt %+v", bench, cfg.Core, ref.Stats, ev.Stats)
		}
	})
}
