// Package config defines the simulated architecture (Table 9) and the core
// configurations the paper evaluates (Table 11): the 2D baseline, TSV3D,
// iso-layer M3D, naive and compensated hetero-layer M3D, the aggressive
// hetero design, and the multicore variants.
package config

import (
	"context"
	"fmt"
	"math"

	"vertical3d/internal/core"
	"vertical3d/internal/guard"
	"vertical3d/internal/logic3d"
	"vertical3d/internal/parallel"
	"vertical3d/internal/tech"
)

// CacheParams describes one cache level.
type CacheParams struct {
	SizeKB       int
	Assoc        int
	LineBytes    int
	RTCycles     int // round-trip latency in core cycles
	WriteBack    bool
	BanksPerCore int
}

// check records the cache-geometry invariants into c under path: positive
// size/associativity/latency, a power-of-two line size, and a power-of-two
// set count — the address-slicing bit math in mem depends on the last two.
func (cp CacheParams) check(c *guard.Checker, path string) {
	c.PositiveInt(path+".SizeKB", cp.SizeKB)
	c.PositiveInt(path+".Assoc", cp.Assoc)
	c.PowerOfTwo(path+".LineBytes", cp.LineBytes)
	c.PositiveInt(path+".RTCycles", cp.RTCycles)
	c.NonNegativeInt(path+".BanksPerCore", cp.BanksPerCore)
	if cp.SizeKB > 0 && cp.Assoc > 0 && cp.LineBytes > 0 {
		bytes := cp.SizeKB * 1024
		if bytes%(cp.LineBytes*cp.Assoc) != 0 {
			c.Violatef(path, "%dKB does not divide into %d-way sets of %dB lines", cp.SizeKB, cp.Assoc, cp.LineBytes)
		} else {
			c.PowerOfTwo(path+".Sets", bytes/(cp.LineBytes*cp.Assoc))
		}
	}
}

// CoreParams is the microarchitecture of Table 9.
type CoreParams struct {
	FetchWidth    int
	DispatchWidth int
	IssueWidth    int
	CommitWidth   int

	ROBSize   int
	IQSize    int
	LQSize    int
	SQSize    int
	IntRF     int
	FPRF      int
	RASSize   int
	BTBSize   int
	BTBAssoc  int
	PredTable int // entries in selector/local/global tables

	NumALU    int
	NumMulDiv int
	NumLSU    int
	NumFPU    int

	ALULatency   int
	MulLatency   int
	DivLatency   int
	LSULatency   int
	FPAddLatency int
	FPMulLatency int
	FPDivLatency int

	IL1, DL1, L2, L3 CacheParams

	// LoadToUseCycles is the load-to-use path length; 4 cycles in 2D,
	// one less in all 3D designs (Section 6).
	LoadToUseCycles int

	// BranchPenaltyCycles is the branch-misprediction notification path;
	// 14 cycles in 2D, two fewer in 3D designs.
	BranchPenaltyCycles int

	// DRAMLatencyNs is the round-trip latency after an L3 miss, in
	// nanoseconds — fixed in wall-clock time, so faster cores see more
	// cycles of memory latency.
	DRAMLatencyNs float64

	// ComplexDecodeExtra is the extra decode occupancy of complex
	// instructions: hetero-layer M3D places the complex decoder and µcode
	// ROM in the slower top layer at the cost of one cycle (Section 4.1.2).
	ComplexDecodeExtra int
}

// Validate checks the microarchitecture for consistency: positive pipeline
// widths, queue and table sizes, functional-unit counts and latencies;
// power-of-two cache geometry at every level; and non-decreasing round-trip
// latencies down the hierarchy (DL1 <= L2 <= L3). All violations are
// reported together as guard.Violations with per-field paths.
func (cp CoreParams) Validate() error {
	c := guard.New("config.CoreParams")
	c.PositiveInt("FetchWidth", cp.FetchWidth)
	c.PositiveInt("DispatchWidth", cp.DispatchWidth)
	c.PositiveInt("IssueWidth", cp.IssueWidth)
	c.PositiveInt("CommitWidth", cp.CommitWidth)
	c.PositiveInt("ROBSize", cp.ROBSize)
	c.PositiveInt("IQSize", cp.IQSize)
	c.PositiveInt("LQSize", cp.LQSize)
	c.PositiveInt("SQSize", cp.SQSize)
	c.PositiveInt("IntRF", cp.IntRF)
	c.PositiveInt("FPRF", cp.FPRF)
	c.PositiveInt("RASSize", cp.RASSize)
	c.PositiveInt("BTBSize", cp.BTBSize)
	c.PositiveInt("BTBAssoc", cp.BTBAssoc)
	c.PositiveInt("PredTable", cp.PredTable)
	c.PositiveInt("NumALU", cp.NumALU)
	c.PositiveInt("NumMulDiv", cp.NumMulDiv)
	c.PositiveInt("NumLSU", cp.NumLSU)
	c.PositiveInt("NumFPU", cp.NumFPU)
	c.PositiveInt("ALULatency", cp.ALULatency)
	c.PositiveInt("MulLatency", cp.MulLatency)
	c.PositiveInt("DivLatency", cp.DivLatency)
	c.PositiveInt("LSULatency", cp.LSULatency)
	c.PositiveInt("FPAddLatency", cp.FPAddLatency)
	c.PositiveInt("FPMulLatency", cp.FPMulLatency)
	c.PositiveInt("FPDivLatency", cp.FPDivLatency)
	cp.IL1.check(c, "IL1")
	cp.DL1.check(c, "DL1")
	cp.L2.check(c, "L2")
	cp.L3.check(c, "L3")
	c.NonDecreasing("RTCycles", float64(cp.DL1.RTCycles), float64(cp.L2.RTCycles), float64(cp.L3.RTCycles))
	c.PositiveInt("LoadToUseCycles", cp.LoadToUseCycles)
	c.PositiveInt("BranchPenaltyCycles", cp.BranchPenaltyCycles)
	c.Positive("DRAMLatencyNs", cp.DRAMLatencyNs)
	c.NonNegativeInt("ComplexDecodeExtra", cp.ComplexDecodeExtra)
	return c.Err()
}

// DefaultCore returns the Table 9 architecture.
func DefaultCore() CoreParams {
	return CoreParams{
		FetchWidth:    4,
		DispatchWidth: 4,
		IssueWidth:    6,
		CommitWidth:   4,

		ROBSize:   192,
		IQSize:    84,
		LQSize:    72,
		SQSize:    56,
		IntRF:     160,
		FPRF:      160,
		RASSize:   32,
		BTBSize:   4096,
		BTBAssoc:  4,
		PredTable: 4096,

		NumALU:    4,
		NumMulDiv: 2,
		NumLSU:    2,
		NumFPU:    2,

		ALULatency:   1,
		MulLatency:   2,
		DivLatency:   4,
		LSULatency:   1,
		FPAddLatency: 2,
		FPMulLatency: 4,
		FPDivLatency: 8,

		IL1: CacheParams{SizeKB: 32, Assoc: 4, LineBytes: 32, RTCycles: 3, BanksPerCore: 4},
		DL1: CacheParams{SizeKB: 32, Assoc: 8, LineBytes: 32, RTCycles: 4, WriteBack: true, BanksPerCore: 8},
		L2:  CacheParams{SizeKB: 256, Assoc: 8, LineBytes: 64, RTCycles: 10, WriteBack: true, BanksPerCore: 8},
		L3:  CacheParams{SizeKB: 2048, Assoc: 16, LineBytes: 64, RTCycles: 32, WriteBack: true},

		LoadToUseCycles:     4,
		BranchPenaltyCycles: 14,
		DRAMLatencyNs:       50,
	}
}

// Design identifies one of the evaluated core configurations.
type Design int

const (
	// Base is the 2D baseline core.
	Base Design = iota
	// TSV3D is the conventional die-stacked 3D core: same frequency as
	// Base, but with the shortened 3D critical paths.
	TSV3D
	// M3DIso is the iso-layer (same-performance layers) M3D core.
	M3DIso
	// M3DHetNaive is the hetero-layer core without the paper's
	// countermeasures: iso design slowed by the AES-block-derived 9%.
	M3DHetNaive
	// M3DHet is the paper's compensated hetero-layer design.
	M3DHet
	// M3DHetAgg is the aggressive hetero design whose frequency is limited
	// only by the traditionally critical structures (IQ).
	M3DHetAgg
	// M3DHetLP is M3D-Het with a low-power (FDSOI) top layer, feasible when
	// iso-performance layers are manufacturable: same performance as
	// M3D-Het, further energy savings (Section 7.1.2).
	M3DHetLP
	// M3DIsoAgg is the aggressive iso-layer design of Section 6.1, limited
	// only by the traditional frequency-critical structures. The paper
	// defines it but does not evaluate it "due to space limits".
	M3DIsoAgg
)

// String returns the configuration name used in the figures.
func (d Design) String() string {
	switch d {
	case Base:
		return "Base"
	case TSV3D:
		return "TSV3D"
	case M3DIso:
		return "M3D-Iso"
	case M3DHetNaive:
		return "M3D-HetNaive"
	case M3DHet:
		return "M3D-Het"
	case M3DHetAgg:
		return "M3D-HetAgg"
	case M3DHetLP:
		return "M3D-Het-LP"
	case M3DIsoAgg:
		return "M3D-IsoAgg"
	default:
		return fmt.Sprintf("Design(%d)", int(d))
	}
}

// SingleCoreDesigns lists the designs of Figures 6-8 in plot order.
func SingleCoreDesigns() []Design {
	return []Design{Base, TSV3D, M3DIso, M3DHetNaive, M3DHet, M3DHetAgg}
}

// Is3D reports whether the design benefits from the shortened load-to-use
// and branch-misprediction paths (all stacked designs do, including TSV3D).
func (d Design) Is3D() bool { return d != Base }

// Config is a fully derived core configuration.
type Config struct {
	Name   string
	Design Design

	FreqGHz float64
	Vdd     float64

	Core CoreParams

	// EnergyFactors scales the per-category energies relative to Base.
	EnergyFactors EnergyFactors
}

// EnergyFactors are multiplicative per-category energy scale factors
// relative to the 2D baseline, derived from the partition studies.
type EnergyFactors struct {
	SRAM    float64 // storage-structure access energy (Tables 6/8)
	Logic   float64 // logic-stage switching energy (Section 3.1)
	Clock   float64 // clock-tree power (Section 3.3 / [42])
	Wire    float64 // semi-global/global interconnect energy (footprint)
	Leakage float64 // leakage power (unchanged by partitioning)
}

// BaseEnergyFactors returns all-ones factors.
func BaseEnergyFactors() EnergyFactors {
	return EnergyFactors{SRAM: 1, Logic: 1, Clock: 1, Wire: 1, Leakage: 1}
}

// check records the factor invariants into c: every per-category factor must
// be finite and strictly positive (a zero factor would silently erase an
// energy category from every figure).
func (f EnergyFactors) check(c *guard.Checker, path string) {
	c.Positive(path+".SRAM", f.SRAM)
	c.Positive(path+".Logic", f.Logic)
	c.Positive(path+".Clock", f.Clock)
	c.Positive(path+".Wire", f.Wire)
	c.Positive(path+".Leakage", f.Leakage)
}

// Validate checks a derived configuration end to end: a positive frequency
// and supply voltage, positive energy factors, and a consistent core
// microarchitecture. Derive runs this on every configuration it emits, so a
// miscalibrated partition study cannot hand the simulator a zero-frequency
// or NaN-voltage design.
func (c Config) Validate() error {
	ck := guard.New("config." + c.Name)
	ck.Positive("FreqGHz", c.FreqGHz)
	ck.Positive("Vdd", c.Vdd)
	c.EnergyFactors.check(ck, "EnergyFactors")
	if err := c.Core.Validate(); err != nil {
		if vs, ok := guard.AsViolations(err); ok {
			for _, v := range vs {
				ck.Violatef("Core", "%s: %s", v.Path, v.Msg)
			}
		} else {
			ck.Violatef("Core", "%v", err)
		}
	}
	return ck.Err()
}

// Suite holds every single-core configuration plus the inputs used to
// derive them, so experiments can report the derivation.
type Suite struct {
	Node *tech.Node

	BaseCycleTime float64 // seconds
	Configs       map[Design]Config

	IsoChoices    []core.Choice
	HeteroChoices []core.Choice
	TSVChoices    []core.Choice

	MinIsoReduction    float64
	MinHeteroReduction float64
	IQHeteroReduction  float64
}

// cycleOverhead is the latch/skew margin added on top of the slowest
// structure's access time to form the cycle time.
const cycleOverhead = 1.12

// naiveHeteroSlowdown is the 9% frequency loss Shi et al. [45] measured on
// an AES block with an uncompensated slow top layer.
const naiveHeteroSlowdown = 0.09

// Derive builds the full configuration suite from the partition studies at
// the given node, following Section 6.1: the baseline cycle time comes from
// the register file access; each 3D design's frequency comes from the
// smallest cycle-critical latency reduction of its partition table.
func Derive(n *tech.Node) (*Suite, error) {
	if n == nil {
		return nil, fmt.Errorf("config: nil tech node")
	}
	if err := n.Validate(); err != nil {
		return nil, err
	}
	// The three partition studies are independent; run them concurrently on
	// the worker pool. Each SelectAll fans out over the catalog itself.
	// Long-lived callers derive a suite once and share it: a Suite is never
	// mutated after Derive.
	studies := []struct {
		mode core.Mode
		via  tech.Via
	}{
		{core.IsoLayer, tech.MIV()},
		{core.HeteroLayer, tech.MIV()},
		{core.IsoLayer, tech.TSVAggressive()},
	}
	selected, err := parallel.Map(context.Background(), parallel.Pool{}, len(studies),
		func(i int) ([]core.Choice, error) {
			return core.SelectAll(n, studies[i].mode, studies[i].via)
		})
	if err != nil {
		return nil, err
	}
	iso, het, tsv := selected[0], selected[1], selected[2]

	var rfAccess float64
	for _, c := range iso {
		if c.Structure.Spec.Name == "RF" {
			rfAccess = c.Base.AccessTime
		}
	}
	if rfAccess <= 0 {
		return nil, fmt.Errorf("config: could not locate the RF baseline access time")
	}

	s := &Suite{
		Node:          n,
		BaseCycleTime: rfAccess * cycleOverhead,
		Configs:       map[Design]Config{},
		IsoChoices:    iso,
		HeteroChoices: het,
		TSVChoices:    tsv,
	}
	// Frequency limiters: among cycle-critical structures, only those near
	// the cycle ceiling (within 60% of the slowest access) pin the clock.
	const nearFrac = 0.6
	s.MinIsoReduction = core.FrequencyLimitingReduction(iso, nearFrac)
	s.MinHeteroReduction = core.FrequencyLimitingReduction(het, nearFrac)

	// The aggressive design is limited only by the traditional cycle-time
	// bottlenecks: the register file and the ALU+bypass loop (Section 6.1).
	rfHet, err := core.ReductionFor(het, "RF")
	if err != nil {
		return nil, err
	}
	alu, err := logic3d.ALUBypass(n, DefaultCore().NumALU)
	if err != nil {
		return nil, err
	}
	aluRed := 1 - 1/(1+alu.FreqGain)
	s.IQHeteroReduction = math.Min(rfHet.Latency, aluRed)

	fBase := 1 / s.BaseCycleTime / 1e9
	fIso := fBase / (1 - s.MinIsoReduction)
	fHet := fBase / (1 - s.MinHeteroReduction)
	fHetAgg := fBase / (1 - s.IQHeteroReduction)
	fHetNaive := fIso * (1 - naiveHeteroSlowdown)

	base := DefaultCore()
	threeD := base
	threeD.LoadToUseCycles = base.LoadToUseCycles - 1
	threeD.BranchPenaltyCycles = base.BranchPenaltyCycles - 2
	heteroCore := threeD
	heteroCore.ComplexDecodeExtra = logic3d.HeteroDecodePlan().ComplexExtraCycles

	// Clock factors: the folded core's clock tree covers half the footprint
	// (half the wire capacitance) and additionally saves 25% of switching
	// power [42]; TSV3D folds too but with smaller array-side benefits.
	isoFactors := energyFactorsFrom(iso, 0.375, 0.90)
	hetFactors := energyFactorsFrom(het, 0.375, 0.90)
	tsvFactors := energyFactorsFrom(tsv, 0.65, 0.95)

	s.Configs[Base] = Config{Name: Base.String(), Design: Base,
		FreqGHz: fBase, Vdd: n.Vdd, Core: base, EnergyFactors: BaseEnergyFactors()}
	s.Configs[TSV3D] = Config{Name: TSV3D.String(), Design: TSV3D,
		FreqGHz: fBase, Vdd: n.Vdd, Core: threeD, EnergyFactors: tsvFactors}
	s.Configs[M3DIso] = Config{Name: M3DIso.String(), Design: M3DIso,
		FreqGHz: fIso, Vdd: n.Vdd, Core: threeD, EnergyFactors: isoFactors}
	s.Configs[M3DHetNaive] = Config{Name: M3DHetNaive.String(), Design: M3DHetNaive,
		FreqGHz: fHetNaive, Vdd: n.Vdd, Core: heteroCore, EnergyFactors: isoFactors}
	s.Configs[M3DHet] = Config{Name: M3DHet.String(), Design: M3DHet,
		FreqGHz: fHet, Vdd: n.Vdd, Core: heteroCore, EnergyFactors: hetFactors}
	s.Configs[M3DHetAgg] = Config{Name: M3DHetAgg.String(), Design: M3DHetAgg,
		FreqGHz: fHetAgg, Vdd: n.Vdd, Core: heteroCore, EnergyFactors: hetFactors}
	s.Configs[M3DHetLP] = Config{Name: M3DHetLP.String(), Design: M3DHetLP,
		FreqGHz: fHet, Vdd: n.Vdd, Core: heteroCore,
		EnergyFactors: lpTopLayerFactors(hetFactors, 1-hetFrac)}

	// M3D-IsoAgg: iso layers, frequency limited by the traditional
	// bottlenecks only (RF and the ALU+bypass loop).
	rfIso, err := core.ReductionFor(iso, "RF")
	if err != nil {
		return nil, err
	}
	fIsoAgg := fBase / (1 - math.Min(rfIso.Latency, aluRed))
	s.Configs[M3DIsoAgg] = Config{Name: M3DIsoAgg.String(), Design: M3DIsoAgg,
		FreqGHz: fIsoAgg, Vdd: n.Vdd, Core: threeD, EnergyFactors: isoFactors}

	// Every derived configuration must be internally consistent before the
	// simulator sees it; a miscalibrated partition study fails here with the
	// offending fields named rather than as a corrupt figure downstream.
	for _, d := range []Design{Base, TSV3D, M3DIso, M3DHetNaive, M3DHet, M3DHetAgg, M3DHetLP, M3DIsoAgg} {
		if err := s.Configs[d].Validate(); err != nil {
			return nil, fmt.Errorf("config: derived suite is inconsistent: %w", err)
		}
	}
	return s, nil
}

// hetFrac is the bottom layer's share of the core's switching activity.
const hetFrac = 0.55

// lpTopLayerFactors applies the Section 7.1.2 scenario to a hetero design's
// factors: the top layer (topShare of the activity) is built in a low-power
// FDSOI process, cutting its dynamic energy and leakage per
// tech.FDSOILowPower while the bottom HP layer keeps the performance.
func lpTopLayerFactors(f EnergyFactors, topShare float64) EnergyFactors {
	dyn := (1 - topShare) + topShare*tech.FDSOILowPower.DynamicEnergyFactor()
	leak := (1 - topShare) + topShare*tech.FDSOILowPower.LeakageFactor()
	return EnergyFactors{
		SRAM:    f.SRAM * dyn,
		Logic:   f.Logic * dyn,
		Clock:   f.Clock * dyn,
		Wire:    f.Wire * dyn,
		Leakage: f.Leakage * leak,
	}
}

// energyFactorsFrom derives the per-category factors: the SRAM factor is the
// access-weighted mean of the per-structure energy reductions; clock and
// wire factors follow the footprint halving plus the 25% clock switching
// reduction of [42]; the logic factor comes from the ALU study.
func energyFactorsFrom(choices []core.Choice, clockFactor, logicFactor float64) EnergyFactors {
	// Weight the frequently accessed structures more heavily.
	weights := map[string]float64{
		"RF": 3.0, "IQ": 2.5, "SQ": 1.0, "LQ": 1.0, "RAT": 2.0,
		"BPT": 1.5, "BTB": 1.5, "DTLB": 1.0, "ITLB": 1.0,
		"IL1": 2.5, "DL1": 2.5, "L2": 0.8,
	}
	var num, den float64
	minFoot := 1.0
	for _, c := range choices {
		w := weights[c.Structure.Spec.Name]
		num += w * (1 - c.Reduction.Energy)
		den += w
		if f := 1 - c.Reduction.Footprint; f < minFoot {
			minFoot = f
		}
	}
	sram := 1.0
	if den > 0 {
		sram = num / den
	}
	// Interconnect energy scales with the core's linear dimension; the
	// folded core has roughly half the footprint.
	avgFoot := 0.0
	for _, c := range choices {
		avgFoot += 1 - c.Reduction.Footprint
	}
	avgFoot /= float64(len(choices))
	wireFactor := 0.08 + avgFoot // linear with footprint plus a small fixed part
	return EnergyFactors{
		SRAM:    sram,
		Logic:   logicFactor,
		Clock:   clockFactor,
		Wire:    wireFactor,
		Leakage: 1.0,
	}
}

// MulticoreDesign identifies the multicore configurations of Figures 9-10.
type MulticoreDesign int

const (
	// MCBase is four 2D baseline cores with private L2s.
	MCBase MulticoreDesign = iota
	// MCTSV3D is four TSV3D cores, pairs sharing L2s and router stops.
	MCTSV3D
	// MCHet is four M3D-Het cores, pairs sharing L2s and router stops.
	MCHet
	// MCHetW widens the M3D-Het core to issue width 8 at Base frequency.
	MCHetW
	// MCHet2X runs eight M3D-Het cores at Base frequency and reduced
	// voltage, matching the 4-core Base power budget.
	MCHet2X
)

// String returns the figure label.
func (d MulticoreDesign) String() string {
	switch d {
	case MCBase:
		return "Base"
	case MCTSV3D:
		return "TSV3D"
	case MCHet:
		return "M3D-Het"
	case MCHetW:
		return "M3D-Het-W"
	case MCHet2X:
		return "M3D-Het-2X"
	default:
		return fmt.Sprintf("MulticoreDesign(%d)", int(d))
	}
}

// MulticoreDesigns lists the designs of Figures 9-10 in plot order.
func MulticoreDesigns() []MulticoreDesign {
	return []MulticoreDesign{MCBase, MCTSV3D, MCHet, MCHetW, MCHet2X}
}

// MCConfig is a multicore configuration.
type MCConfig struct {
	Name     string
	Design   MulticoreDesign
	Cores    int
	PerCore  Config
	SharedL2 bool // pairs of cores share L2s and a router stop (Figure 4)

	// RouterHopCycles is the per-hop NoC latency; sharing router stops in
	// the folded designs halves the inter-router distance (Section 3.1).
	RouterHopCycles int
}

// DeriveMulticore builds the Figure 9/10 configurations from the single-core
// suite, following Section 6.1: M3D-Het-W sets Base frequency and widens
// issue to 8; M3D-Het-2X sets Base frequency, drops Vdd by 50mV, and doubles
// the core count at roughly the 4-core Base power budget.
func DeriveMulticore(s *Suite) map[MulticoreDesign]MCConfig {
	base := s.Configs[Base]
	het := s.Configs[M3DHet]
	tsv := s.Configs[TSV3D]

	wide := het
	wide.Name = MCHetW.String()
	wide.FreqGHz = base.FreqGHz
	wide.Core.IssueWidth = 8
	wide.Core.DispatchWidth = 5
	wide.Core.CommitWidth = 5

	twoX := het
	twoX.Name = MCHet2X.String()
	twoX.FreqGHz = base.FreqGHz
	twoX.Vdd = base.Vdd - 0.05

	return map[MulticoreDesign]MCConfig{
		MCBase:  {Name: MCBase.String(), Design: MCBase, Cores: 4, PerCore: base, RouterHopCycles: 4},
		MCTSV3D: {Name: MCTSV3D.String(), Design: MCTSV3D, Cores: 4, PerCore: tsv, SharedL2: true, RouterHopCycles: 2},
		MCHet:   {Name: MCHet.String(), Design: MCHet, Cores: 4, PerCore: het, SharedL2: true, RouterHopCycles: 2},
		MCHetW:  {Name: MCHetW.String(), Design: MCHetW, Cores: 4, PerCore: wide, SharedL2: true, RouterHopCycles: 2},
		MCHet2X: {Name: MCHet2X.String(), Design: MCHet2X, Cores: 8, PerCore: twoX, SharedL2: true, RouterHopCycles: 2},
	}
}
