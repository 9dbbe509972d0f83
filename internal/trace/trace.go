// Package trace generates deterministic synthetic instruction streams for
// the cycle-level simulator. We cannot ship SPEC CPU2006 / SPLASH-2 /
// PARSEC binaries, so each benchmark is represented by a generator whose
// statistical profile (instruction mix, register dependency distances,
// memory footprints and locality, branch behaviour) is chosen so the
// simulated core exhibits the bottleneck the paper's figures show for that
// application. The *relative* response to frequency, load-to-use latency,
// branch penalty and memory latency — the quantities the M3D designs change
// — is what the profiles preserve.
package trace

import (
	"math/rand"
)

// Kind classifies an instruction.
type Kind uint8

const (
	ALU Kind = iota
	Mul
	Div
	FPAdd
	FPMul
	FPDiv
	Load
	Store
	Branch
	numKinds
)

// String returns the kind mnemonic.
func (k Kind) String() string {
	switch k {
	case ALU:
		return "alu"
	case Mul:
		return "mul"
	case Div:
		return "div"
	case FPAdd:
		return "fpadd"
	case FPMul:
		return "fpmul"
	case FPDiv:
		return "fpdiv"
	case Load:
		return "load"
	case Store:
		return "store"
	case Branch:
		return "branch"
	default:
		return "?"
	}
}

// Inst is one dynamic instruction. The fields are ordered widest-first
// (three uint64 words, then the three int16 registers, then the three
// single-byte fields) so the struct packs into 40 bytes with a single
// 7-byte tail pad instead of the 48 bytes the declaration order of the
// logical grouping would cost; layout_test.go pins the size. The frontend
// moves these by value through batched NextBatch fills, so the saved
// padding is paid once per copy. A Recording stores the same fields in a
// compact chunk codec at 8–10 bytes/instruction (record.go).
type Inst struct {
	// PC is the instruction's address.
	PC uint64

	// Addr is the effective address for loads and stores.
	Addr uint64

	// Target is the branch target.
	Target uint64

	// Src1, Src2 and Dst are architectural registers (-1 = unused).
	Src1, Src2, Dst int16

	// Kind classifies the instruction.
	Kind Kind

	// Taken is the branch outcome.
	Taken bool

	// Complex marks instructions needing the complex decoder (Section 4.1.2).
	Complex bool
}

// Source produces a dynamic instruction stream. Implementations are
// infinite: Next always yields an instruction and NextBatch always fills
// dst completely. The two implementations — *Generator (synthesises the
// stream) and *Replayer (replays a Recording) — are bit-identical
// for the same (Profile, seed, stream) triple; record_test.go enforces the
// instruction-by-instruction equality and the uarch/experiments oracles
// enforce it end to end.
type Source interface {
	// Profile returns the statistical profile describing the stream.
	Profile() Profile
	// Next produces the next dynamic instruction.
	Next() Inst
	// NextBatch fills dst with the next len(dst) instructions and returns
	// the count filled (always len(dst) for the built-in sources). Batching
	// exists so the simulator frontend amortises the per-instruction
	// interface-call and decode cost over a whole fetch buffer.
	NextBatch(dst []Inst) int
}

// Mix gives the instruction-type probabilities. They need not sum to one;
// the remainder is ALU.
type Mix struct {
	Mul, Div     float64
	FPAdd, FPMul float64
	FPDiv        float64
	Load, Store  float64
	Branch       float64
}

// Profile is the statistical description of one benchmark.
type Profile struct {
	Name string
	Mix  Mix

	// DepMean is the mean register dependency distance (geometric): small
	// values produce long dependency chains (low ILP).
	DepMean float64

	// FootprintKB is the data working set; addresses are drawn within it.
	FootprintKB int

	// HotFrac is the fraction of accesses falling in a small hot region
	// (HotKB), modelling temporal locality.
	HotFrac float64
	HotKB   int

	// StrideFrac is the fraction of data accesses that walk sequentially,
	// modelling spatial locality within cache lines.
	StrideFrac float64

	// CodeKB is the instruction footprint; PCs loop through it.
	CodeKB int

	// BranchBias is the average taken-bias strength of conditional branches
	// (0.5 = random, 1.0 = fully biased and thus perfectly predictable).
	BranchBias float64

	// FlipRate is the per-branch probability that a static branch's bias
	// inverts on a dynamic instance beyond the bias draw, modelling
	// data-dependent branches.
	FlipRate float64

	// ComplexFrac is the fraction of instructions that need the complex
	// decoder.
	ComplexFrac float64

	// SharedFrac (parallel workloads only) is the fraction of data accesses
	// to the globally shared region; SharedWriteFrac of those are writes
	// that trigger coherence invalidations.
	SharedFrac      float64
	SharedWriteFrac float64

	// SerialFrac (parallel workloads only) is the Amdahl serial fraction
	// executed by thread 0 between barriers.
	SerialFrac float64
}

// staticBranch is one static branch site with a stable bias.
type staticBranch struct {
	pc     uint64
	target uint64
	bias   float64
}

// Generator produces the dynamic instruction stream of one thread.
type Generator struct {
	p   Profile
	rng *rand.Rand

	pc        uint64
	codeLimit uint64

	branches []staticBranch

	stridePtr uint64
	base      uint64 // data segment base (distinguishes threads)
	shared    uint64 // shared segment base (same across threads)

	lastDest []int16 // recent destination registers for dependency draws
	destHead int
}

const (
	codeBase   = 0x0040_0000
	dataBase   = 0x1000_0000
	sharedBase = 0x7000_0000
	numRegs    = 64
	destWindow = 64
)

// NewGenerator returns a deterministic generator for the profile. Thread
// IDs separate private data segments while keeping the shared segment
// common, which is what creates coherence traffic in multicore runs.
func NewGenerator(p Profile, seed int64, threadID int) *Generator {
	g := &Generator{
		p:         p,
		rng:       rand.New(rand.NewSource(seed*1_000_003 + int64(threadID)*7919)),
		pc:        codeBase,
		codeLimit: codeBase + uint64(max(p.CodeKB, 1))*1024,
		base:      dataBase + uint64(threadID)<<28,
		shared:    sharedBase,
		lastDest:  make([]int16, destWindow),
	}
	for i := range g.lastDest {
		g.lastDest[i] = int16(i % numRegs)
	}
	// Create a population of static branch sites with unique PCs, so a site
	// has a stable direction bias and a stable target. The instruction-slot
	// count is clamped (CodeKB may be absent or adversarial in fuzzed
	// profiles), and the site count never exceeds the slot count so the
	// unique-PC draw always terminates.
	slots := max(p.CodeKB, 1) * 1024 / 4
	nb := 64 + g.rng.Intn(192)
	if nb > slots {
		nb = slots
	}
	g.branches = make([]staticBranch, nb)
	seen := make(map[uint64]bool, nb)
	for i := range g.branches {
		pc := codeBase + uint64(g.rng.Intn(slots))*4
		for seen[pc] {
			pc = codeBase + uint64(g.rng.Intn(slots))*4
		}
		seen[pc] = true
		tgt := codeBase + uint64(g.rng.Intn(slots))*4
		// Bias draw: most branches are strongly biased; the profile's
		// BranchBias shifts the population.
		b := p.BranchBias + (1-p.BranchBias)*g.rng.Float64()*0.5
		if g.rng.Float64() < 0.3 {
			b = 1 - b // some mostly-not-taken branches
		}
		g.branches[i] = staticBranch{pc: pc, target: tgt, bias: b}
	}
	return g
}

// Profile returns the generator's profile.
func (g *Generator) Profile() Profile { return g.p }

// srcReg draws a source register with geometric dependency distance. The
// distance is clamped into [1, destWindow]: a non-positive or NaN DepMean
// (possible in adversarial profiles) must not turn into a negative index.
func (g *Generator) srcReg() int16 {
	d := 1 + int(g.rng.ExpFloat64()*g.p.DepMean)
	if d < 1 || d > destWindow {
		d = destWindow
	}
	idx := (g.destHead - d + destWindow) % destWindow
	return g.lastDest[idx]
}

// dataAddr draws a data address according to the locality model.
func (g *Generator) dataAddr(shared bool) uint64 {
	base := g.base
	foot := uint64(max(g.p.FootprintKB, 1)) * 1024
	if shared {
		base = g.shared
		foot = 256 * 1024 // shared region: 256KB
	}
	r := g.rng.Float64()
	switch {
	case !shared && r < g.p.StrideFrac:
		g.stridePtr += 8
		if g.stridePtr >= foot {
			g.stridePtr = 0
		}
		return base + g.stridePtr
	case !shared && r < g.p.StrideFrac+g.p.HotFrac:
		hot := uint64(max(g.p.HotKB, 1)) * 1024
		return base + (g.rng.Uint64()%hot)&^7
	default:
		return base + (g.rng.Uint64()%foot)&^7
	}
}

// Next produces the next dynamic instruction.
func (g *Generator) Next() Inst {
	p := &g.p
	r := g.rng.Float64()
	m := p.Mix
	var kind Kind
	switch {
	case r < m.Load:
		kind = Load
	case r < m.Load+m.Store:
		kind = Store
	case r < m.Load+m.Store+m.Branch:
		kind = Branch
	case r < m.Load+m.Store+m.Branch+m.Mul:
		kind = Mul
	case r < m.Load+m.Store+m.Branch+m.Mul+m.Div:
		kind = Div
	case r < m.Load+m.Store+m.Branch+m.Mul+m.Div+m.FPAdd:
		kind = FPAdd
	case r < m.Load+m.Store+m.Branch+m.Mul+m.Div+m.FPAdd+m.FPMul:
		kind = FPMul
	case r < m.Load+m.Store+m.Branch+m.Mul+m.Div+m.FPAdd+m.FPMul+m.FPDiv:
		kind = FPDiv
	default:
		kind = ALU
	}

	// Operand model: one source usually chains to recent work; the other is
	// often architecturally ready (immediate, loop invariant, base pointer).
	// Loads always chain through their address register, which is what makes
	// pointer-chasing profiles (small DepMean) serialise on memory.
	in := Inst{PC: g.pc, Kind: kind, Src1: -1, Src2: -1, Dst: -1}
	if kind == Load || g.rng.Float64() < 0.8 {
		in.Src1 = g.srcReg()
	}
	if g.rng.Float64() < 0.3 {
		in.Src2 = g.srcReg()
	}

	switch kind {
	case Branch:
		// Snap to the nearest static branch site.
		sb := &g.branches[g.rng.Intn(len(g.branches))]
		in.PC = sb.pc
		in.Target = sb.target
		taken := g.rng.Float64() < sb.bias
		if g.rng.Float64() < p.FlipRate {
			taken = !taken
		}
		in.Taken = taken
		in.Dst = -1
	case Store:
		shared := g.rng.Float64() < p.SharedFrac
		in.Addr = g.dataAddr(shared)
	case Load:
		shared := g.rng.Float64() < p.SharedFrac
		in.Addr = g.dataAddr(shared)
		in.Dst = g.newDest()
	default:
		in.Dst = g.newDest()
	}
	in.Complex = g.rng.Float64() < p.ComplexFrac

	// Advance the PC: sequential, wrapping through the code footprint;
	// taken branches jump.
	if kind == Branch && in.Taken {
		g.pc = in.Target
	} else {
		g.pc += 4
		if g.pc >= g.codeLimit {
			g.pc = codeBase
		}
	}
	return in
}

// NextBatch fills dst with the next len(dst) instructions. The generator
// is an infinite source, so the batch is always complete.
func (g *Generator) NextBatch(dst []Inst) int {
	for i := range dst {
		dst[i] = g.Next()
	}
	return len(dst)
}

// newDest allocates a destination register and records it for dependencies.
func (g *Generator) newDest() int16 {
	d := int16(g.rng.Intn(numRegs))
	g.lastDest[g.destHead] = d
	g.destHead = (g.destHead + 1) % destWindow
	return d
}
