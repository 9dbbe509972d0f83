// Package power is the McPAT substitute: an event-driven energy model of
// the simulated core. Per-event energies are anchored to the sram package's
// access energies (with a peripheral-overhead factor covering control,
// pipeline latches and ECC that CACTI-style array models omit), the clock
// tree and logic follow the Section 6 methodology, and every category is
// scaled by the design's EnergyFactors derived from the partition studies.
//
// The constants are calibrated so the 2D baseline core averages ≈6.4W
// across SPEC-like workloads excluding L2/L3 (Section 7.1.3).
package power

import (
	"vertical3d/internal/config"
	"vertical3d/internal/guard"
	"vertical3d/internal/mem"
	"vertical3d/internal/trace"
	"vertical3d/internal/uarch"
)

// Per-event energies in joules at the Base design (0.8V). Array events are
// scaled up by overheadFactor relative to the raw CACTI-style numbers.
const (
	// Array and logic events carry McPAT-style overheads over the raw
	// CACTI-style access energies: pipeline latches, control, clock gating
	// drivers, and the wiring that moves operands to and from the arrays.
	arrayOverhead = 85.0
	logicOverhead = 42.0

	eRFRead    = 1.9e-12 * arrayOverhead
	eRFWrite   = 2.1e-12 * arrayOverhead
	eRATLookup = 0.5e-12 * arrayOverhead
	eIQInsert  = 0.8e-12 * arrayOverhead
	eIQWakeup  = 0.9e-12 * arrayOverhead
	eSQSearch  = 1.1e-12 * arrayOverhead
	eROBWrite  = 0.6e-12 * arrayOverhead
	eBPLookup  = 1.2e-12 * arrayOverhead // BPT + BTB per fetch group
	eIL1       = 4.5e-12 * arrayOverhead
	eDL1       = 5.0e-12 * arrayOverhead
	eL2        = 9.0e-12 * arrayOverhead
	eL3        = 16.0e-12 * arrayOverhead
	eDRAM      = 120.0e-12 * arrayOverhead

	// Logic energies per operation (decode, rename control, FU datapath,
	// bypass drivers).
	eFrontendOp = 6.0e-12 * logicOverhead
	eALUOp      = 5.0e-12 * logicOverhead
	eFPUOp      = 14.0e-12 * logicOverhead
	eLSUOp      = 4.0e-12 * logicOverhead

	// Wire energy per committed instruction: result buses and other
	// semi-global interconnect, which scales with the core footprint.
	eWirePerInstr = 8.0e-12 * logicOverhead

	// Clock tree: energy per cycle at Base (latches + distribution wire).
	eClockPerCycle = 420.0e-12

	// Leakage power of the Base core in watts at 0.8V.
	leakWatts = 1.5

	// NoC energy per hop per transaction (multicore only).
	eNoCHop = 18.0e-12 * arrayOverhead

	baseVdd = 0.8
)

// Breakdown is the energy decomposition of one run.
type Breakdown struct {
	SRAMJ    float64
	LogicJ   float64
	ClockJ   float64
	WireJ    float64
	NoCJ     float64
	LeakageJ float64

	Seconds float64
}

// TotalJ returns the total energy in joules.
func (b Breakdown) TotalJ() float64 {
	return b.SRAMJ + b.LogicJ + b.ClockJ + b.WireJ + b.NoCJ + b.LeakageJ
}

// AvgWatts returns the average power.
func (b Breakdown) AvgWatts() float64 {
	if b.Seconds == 0 {
		return 0
	}
	return b.TotalJ() / b.Seconds
}

// Validate checks the breakdown's physical invariants: every energy
// component and the duration must be finite and non-negative. The experiment
// pipeline runs this on every estimate, so corrupt statistics (overflowed
// counters, NaN durations) surface as a structured error at the model
// boundary instead of propagating into experiment tables.
func (b Breakdown) Validate() error {
	c := guard.New("power.Breakdown")
	c.NonNegative("SRAMJ", b.SRAMJ)
	c.NonNegative("LogicJ", b.LogicJ)
	c.NonNegative("ClockJ", b.ClockJ)
	c.NonNegative("WireJ", b.WireJ)
	c.NonNegative("NoCJ", b.NoCJ)
	c.NonNegative("LeakageJ", b.LeakageJ)
	c.NonNegative("Seconds", b.Seconds)
	return c.Err()
}

// dynScale is the dynamic-energy scale of cfg's supply voltage: switching
// energy goes with Vdd².
func dynScale(cfg config.Config) float64 {
	return (cfg.Vdd / baseVdd) * (cfg.Vdd / baseVdd)
}

// Estimate computes the energy of a run: core event statistics st, memory
// hierarchy statistics hs, over the given wall-clock duration.
func Estimate(cfg config.Config, st uarch.Stats, hs mem.HierStats, seconds float64) Breakdown {
	f := cfg.EnergyFactors
	vScale := dynScale(cfg)
	// Leakage drops steeply with voltage (DIBL + gate leakage).
	v := cfg.Vdd / baseVdd
	leakScale := v * v * v

	var b Breakdown
	b.Seconds = seconds

	sram := float64(st.RFReads)*eRFRead +
		float64(st.RFWrites)*eRFWrite +
		float64(st.RATLookups)*eRATLookup +
		float64(st.IQInserts)*eIQInsert +
		float64(st.IQWakeups)*eIQWakeup +
		float64(st.SQSearches)*eSQSearch +
		float64(st.ROBWrites)*eROBWrite +
		float64(st.Branches)*eBPLookup +
		float64(hs.IL1.Accesses)*eIL1 +
		float64(hs.DL1.Accesses)*eDL1 +
		float64(hs.L2.Accesses)*eL2 +
		float64(hs.L3.Accesses)*eL3 +
		float64(hs.DRAMAccesses)*eDRAM
	b.SRAMJ = sram * f.SRAM * vScale

	intOps := st.KindCount[trace.ALU] + st.KindCount[trace.Branch] +
		st.KindCount[trace.Mul] + st.KindCount[trace.Div]
	fpOps := st.KindCount[trace.FPAdd] + st.KindCount[trace.FPMul] + st.KindCount[trace.FPDiv]
	memOps := st.KindCount[trace.Load] + st.KindCount[trace.Store]
	logic := float64(st.Instrs)*eFrontendOp +
		float64(intOps)*eALUOp +
		float64(fpOps)*eFPUOp +
		float64(memOps)*eLSUOp
	b.LogicJ = logic * f.Logic * vScale

	b.ClockJ = float64(st.Cycles) * eClockPerCycle * f.Clock * vScale
	b.WireJ = float64(st.Instrs) * eWirePerInstr * f.Wire * vScale
	b.NoCJ = float64(hs.NoCHops) * eNoCHop * f.Wire * vScale
	b.LeakageJ = leakWatts * f.Leakage * leakScale * seconds
	return b
}

// Scale multiplies every component (used to aggregate cores).
func (b Breakdown) Scale(k float64) Breakdown {
	return Breakdown{
		SRAMJ: b.SRAMJ * k, LogicJ: b.LogicJ * k, ClockJ: b.ClockJ * k,
		WireJ: b.WireJ * k, NoCJ: b.NoCJ * k, LeakageJ: b.LeakageJ * k,
		Seconds: b.Seconds,
	}
}

// Add sums two breakdowns (keeping the longer duration).
func (b Breakdown) Add(o Breakdown) Breakdown {
	sec := b.Seconds
	if o.Seconds > sec {
		sec = o.Seconds
	}
	return Breakdown{
		SRAMJ: b.SRAMJ + o.SRAMJ, LogicJ: b.LogicJ + o.LogicJ,
		ClockJ: b.ClockJ + o.ClockJ, WireJ: b.WireJ + o.WireJ,
		NoCJ: b.NoCJ + o.NoCJ, LeakageJ: b.LeakageJ + o.LeakageJ,
		Seconds: sec,
	}
}

// BlockPowers distributes a run's average power over the floorplan blocks
// for thermal analysis. The keys match floorplan block names.
func BlockPowers(cfg config.Config, st uarch.Stats, hs mem.HierStats, seconds float64) map[string]float64 {
	b := Estimate(cfg, st, hs, seconds)
	if seconds <= 0 {
		return nil
	}
	w := func(j float64) float64 { return j / seconds }

	f := cfg.EnergyFactors
	vScale := dynScale(cfg)
	ev := func(count uint64, e float64) float64 {
		return float64(count) * e * f.SRAM * vScale / seconds
	}

	intOps := st.KindCount[trace.ALU] + st.KindCount[trace.Branch] +
		st.KindCount[trace.Mul] + st.KindCount[trace.Div]
	fpOps := st.KindCount[trace.FPAdd] + st.KindCount[trace.FPMul] + st.KindCount[trace.FPDiv]
	memOps := st.KindCount[trace.Load] + st.KindCount[trace.Store]
	logicW := func(count uint64, e float64) float64 {
		return float64(count) * e * f.Logic * vScale / seconds
	}

	blocks := map[string]float64{
		"FE":  ev(st.Branches, eBPLookup) + ev(hs.IL1.Accesses, eIL1) + logicW(st.Instrs, eFrontendOp),
		"RAT": ev(st.RATLookups, eRATLookup) + ev(st.ROBWrites, eROBWrite),
		"IQ":  ev(st.IQInserts, eIQInsert) + ev(st.IQWakeups, eIQWakeup),
		"RF":  ev(st.RFReads, eRFRead) + ev(st.RFWrites, eRFWrite),
		"ALU": logicW(intOps, eALUOp),
		"FPU": logicW(fpOps, eFPUOp),
		"LSU": ev(st.SQSearches, eSQSearch) + ev(hs.DL1.Accesses, eDL1) + logicW(memOps, eLSUOp),
		"L2":  ev(hs.L2.Accesses, eL2),
	}
	// Distribute clock, wire and leakage over the blocks in proportion to
	// their area share (clock load and leakage track area).
	spread := w(b.ClockJ) + w(b.WireJ) + w(b.LeakageJ)
	for k := range blocks {
		blocks[k] += spread * blockShare[k]
	}
	return blocks
}

// blockShare is each floorplan block's fixed share of the core area.
var blockShare = map[string]float64{
	"FE": 0.16, "RAT": 0.05, "IQ": 0.08, "RF": 0.08,
	"ALU": 0.10, "FPU": 0.14, "LSU": 0.17, "L2": 0.22,
}
