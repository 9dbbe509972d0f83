package uarch

import (
	"errors"

	"vertical3d/internal/config"
	"vertical3d/internal/mem"
	"vertical3d/internal/trace"
)

// Stats holds the event counts of one simulated core, consumed by the power
// model and the experiment harness.
type Stats struct {
	Cycles uint64
	Instrs uint64

	KindCount [16]uint64

	RFReads     uint64
	RFWrites    uint64
	RATLookups  uint64
	IQInserts   uint64
	IQWakeups   uint64
	SQSearches  uint64
	Forwards    uint64
	ROBWrites   uint64
	ComplexOps  uint64
	FetchGroups uint64

	Branches    uint64
	Mispredicts uint64
	BTBMisses   uint64

	// PredSquashes counts squash triggers at fetch time: one per
	// direction/target mispredict plus one per taken BTB miss (a branch
	// that is both counts twice). Unlike Mispredicts (counted only when
	// the squash actually executes at issue), this is accounted exactly
	// like the functional warmer's WarmObs.Mispredicts, which makes it
	// usable as a sampling regressor (sample.go).
	PredSquashes uint64

	// Fetched counts trace instructions pulled into the frontend, including
	// ones later squashed (retired Instrs excludes those). Every fetch-time
	// counter — KindCount, Branches, PredSquashes, the hierarchy probes —
	// covers this same once-per-trace-instruction population, which makes
	// Fetched the matching instruction count for rate or regression use:
	// sample.go pairs it with the functional warmer's WarmObs.Instrs, which
	// counts the identical population over fast-forwarded regions.
	Fetched uint64

	LoadL1Hits   uint64
	LoadL1Misses uint64

	// MemExtraFetch and MemExtraData sum the extra miss cycles the memory
	// hierarchy returned for instruction and data accesses. They are the
	// control variates of the sampled-simulation estimator (sample.go):
	// the functional warmer observes the same sums over fast-forwarded
	// stream regions, so window cycles regressed on these predict the
	// cycles of the regions that were never simulated in detail.
	MemExtraFetch uint64
	MemExtraData  uint64

	// MissRuns counts maximal bursts of consecutive missing data probes in
	// the program-order probe stream (forwarded loads, which probe nothing,
	// are transparent to the run). It separates clustered misses — which
	// overlap inside the out-of-order window and cost roughly one stall per
	// burst — from isolated ones that each pay full latency; per-cycle cost
	// tracks runs more linearly than total miss cycles, which is why the
	// sampled-simulation estimator uses it as a control variate.
	MissRuns uint64

	// StallFull counts dispatch stalls due to full structures.
	StallROB, StallIQ, StallLQ, StallSQ, StallRF uint64
}

// IPC returns retired instructions per cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Instrs) / float64(s.Cycles)
}

// MispredictRate returns mispredictions per branch.
func (s Stats) MispredictRate() float64 {
	if s.Branches == 0 {
		return 0
	}
	return float64(s.Mispredicts) / float64(s.Branches)
}

// robState tracks an entry's pipeline progress.
type robState uint8

const (
	stWaiting robState = iota
	stIssued
	stDone
)

// robEntry is one in-flight instruction.
type robEntry struct {
	kind    trace.Kind
	state   robState
	doneAt  int64
	dst     int16
	src1    int16
	src2    int16
	prod1   regRef // producer of src1 (slot+seq; zero seq = ready)
	prod2   regRef
	prevMap regRef // previous producer of dst, for squash undo
	mispred bool
	btbMiss bool
	fwd     bool // load forwards from the store ring (decided at fetch)
	seq     uint64

	// memExtra is the extra hierarchy latency of a load beyond a DL1 hit,
	// probed at fetch in program order (see fetch) and copied here at
	// dispatch; consumed when the load issues.
	memExtra int32

	// Event-kernel scheduling state (unused by the reference kernel).
	// nwait counts the distinct in-flight producers whose doneAt is still
	// unknown; readyAt folds the doneAt of every resolved producer.
	nwait   uint8
	readyAt int64
}

// regRef identifies a producing instruction by ROB slot and sequence
// number. The sequence number guards against slot reuse: if the slot no
// longer holds that instruction, the value is architecturally available.
// Sequence numbers are globally unique and never reused, so a (slot, seq)
// pair identifies one dynamic instruction for the core's whole lifetime,
// so a consumer's ref stays correct after its producer commits and the
// slot is refilled.
type regRef struct {
	slot int32
	seq  uint64
}

// Core simulates one out-of-order core.
type Core struct {
	ID   int
	cfg  config.Config
	kern Kernel

	// fwd makes every cache, predictor and store-ring probe, for detailed
	// fetch and fast-forward alike, and holds the state they evolve: the
	// stream's prefill buffer, the predictor, the store-forwarding ring and
	// the current fetch line (see FunctionalWarmer). Nil on a tape-fed core.
	fwd *FunctionalWarmer

	// tape, when set, replaces fwd: fetch reads each trace
	// instruction's backend fields and recorded probe outcomes from it, and
	// prices the recorded fill levels with fillLat (0, L2, L3, DRAM extra
	// cycles). tapeBuf is the window of tape words ahead of fetch, from the
	// tape cursor (Cursor) on.
	tape    *Tape
	tapeBuf []uint64
	tapePos int
	fillLat [4]int32

	rob      []robEntry
	head     int
	tail     int
	count    int
	seq      uint64
	iqCount  int
	lqCount  int
	sqCount  int
	freePhys int

	// lastMap maps an architectural register to its newest in-flight
	// producer; a zero seq means the committed value is current.
	lastMap [64]regRef

	// fq is the fetched-but-not-dispatched queue (frontend pipeline), a
	// fixed-capacity ring buffer: fetch stops once 2*FetchWidth entries are
	// queued and a group adds at most FetchWidth more, so 3*FetchWidth
	// slots never overflow and no dispatch/fetch ever reallocates.
	fq         []fetched
	fqHead     int
	fqLen      int
	fetchGate  int64 // cycle at which fetch may resume
	frontDepth int64

	// dataMissRun tracks whether the previous data-cache probe (load or
	// store, program order, forwarded loads excluded) missed — the state
	// behind Stats.MissRuns. Like the store ring it is stream state, not
	// pipeline state: it survives squashes and resets, and the functional
	// warmer continues it across fast-forwards.
	dataMissRun bool

	// Functional-unit ports: per-kind per-cycle issue budgets and
	// busy-until times for unpipelined units.
	divBusy   []int64
	fpDivBusy []int64

	// sched is the event kernel's scheduling state: the ready set, the
	// consumer sets and the wake wheel, all keyed by ROB slot (see
	// kernel_event.go). Empty under the reference kernel.
	sched eventSched

	// ffInstrs counts instructions fast-forwarded past the detailed
	// pipeline, and obs their functional observables since RunSampled last
	// drained them (see sample.go).
	ffInstrs uint64
	obs      WarmObs

	now   int64
	Stats Stats
}

// fetched is an instruction waiting in the frontend: the fields the
// backend needs, plus the results of the fetch-stage probes (branch
// prediction, store-forwarding check, data-hierarchy latency) carried into
// dispatch.
type fetched struct {
	readyAt  int64
	memExtra int32 // extra DL1-miss cycles probed at fetch (loads)
	kind     trace.Kind
	dst      int16
	src1     int16
	src2     int16
	complex  bool
	fwd      bool // load forwards from the store ring
	mispred  bool
	btbMiss  bool
}

// NewCore builds a core over the given instruction source and memory
// backend using the default event-driven kernel. The source is any
// trace.Source: a *trace.Generator synthesises the stream in place, a
// *trace.Replayer replays a shared packed recording; both yield
// bit-identical simulations for the same (profile, seed, stream).
func NewCore(id int, cfg config.Config, src trace.Source, backend mem.Backend) (*Core, error) {
	return NewCoreKernel(id, cfg, src, backend, KernelEvent)
}

// NewCoreKernel builds a core with an explicit simulation kernel. Both
// kernels produce bit-identical Stats (see oracle_test.go); KernelEvent is
// strictly faster and is the default everywhere.
func NewCoreKernel(id int, cfg config.Config, src trace.Source, backend mem.Backend, k Kernel) (*Core, error) {
	if src == nil || backend == nil {
		return nil, errors.New("uarch: nil instruction source or memory backend")
	}
	c, err := newCore(id, cfg, k)
	if err != nil {
		return nil, err
	}
	if c.fwd, err = newFunctionalWarmer(id, cfg, src, backend); err != nil {
		return nil, err
	}
	return c, nil
}

// newCore builds a core's pipeline structures, with no instruction source
// attached yet.
func newCore(id int, cfg config.Config, k Kernel) (*Core, error) {
	if k != KernelEvent && k != KernelReference {
		return nil, errors.New("uarch: unknown kernel")
	}
	p := cfg.Core
	c := &Core{
		ID:         id,
		cfg:        cfg,
		kern:       k,
		rob:        make([]robEntry, p.ROBSize),
		freePhys:   p.IntRF + p.FPRF - 2*64,
		frontDepth: 4,
		fq:         make([]fetched, 3*p.FetchWidth),
		divBusy:    make([]int64, p.NumMulDiv),
		fpDivBusy:  make([]int64, p.NumFPU),
	}
	if k == KernelEvent {
		c.sched = newEventSched(p.ROBSize)
	}
	return c, nil
}

// Run simulates until n instructions commit and returns the statistics.
// The event kernel fast-forwards over cycles in which no pipeline stage
// can make progress (long memory stalls); the skipped cycles are batched
// into the Cycles and dispatch-stall counters, so the returned Stats are
// bit-identical to stepping every cycle.
func (c *Core) Run(n uint64) Stats {
	if c.kern == KernelEvent {
		for c.Stats.Instrs < n {
			c.skipIdle()
			c.Step()
		}
		return c.Stats
	}
	for c.Stats.Instrs < n {
		c.Step()
	}
	return c.Stats
}

// Step advances the core by exactly one cycle. Exported so the multicore
// harness can run cores in lockstep; it never idle-skips, so the lockstep
// interleaving of shared-memory accesses is independent of the kernel.
func (c *Core) Step() {
	c.now++
	c.Stats.Cycles++
	c.commit()
	if c.kern == KernelEvent {
		c.issueEvent()
	} else {
		c.issueRef()
	}
	c.dispatch()
	c.fetch()
}

// Done reports the retired instruction count.
func (c *Core) Done() uint64 { return c.Stats.Instrs }

// ---------------------------------------------------------------------------

// fqPop removes the oldest frontend entry.
func (c *Core) fqPop() {
	c.fqHead = ringNext(c.fqHead, len(c.fq))
	c.fqLen--
}

// ringNext advances a ring index of a ring of n slots; on the hot paths a
// compare is much cheaper than the division of a modulo.
func ringNext(i, n int) int {
	if i++; i == n {
		return 0
	}
	return i
}

// fqClear discards the whole frontend queue (wrong-path squash).
func (c *Core) fqClear() {
	c.fqHead, c.fqLen = 0, 0
}

// ---------------------------------------------------------------------------

// commit retires up to CommitWidth finished instructions from the ROB head.
func (c *Core) commit() {
	w := c.cfg.Core.CommitWidth
	for i := 0; i < w && c.count > 0; i++ {
		e := &c.rob[c.head]
		if e.state != stDone || e.doneAt > c.now {
			return
		}
		// The store's DL1 write already happened at fetch (program-order
		// probing); commit only releases the SQ slot.
		if e.kind == trace.Store {
			c.sqCount--
		}
		if e.kind == trace.Load {
			c.lqCount--
		}
		if e.dst >= 0 {
			c.freePhys++
			c.Stats.RFWrites++
			if c.lastMap[e.dst].slot == int32(c.head) && c.lastMap[e.dst].seq == e.seq {
				c.lastMap[e.dst] = regRef{}
			}
		}
		c.head = ringNext(c.head, len(c.rob))
		c.count--
		c.Stats.Instrs++
	}
}

// fuBudget carries the per-cycle per-kind issue budgets through one issue
// pass.
type fuBudget struct {
	alu, mul, lsu, fpu int
}

func (c *Core) newBudget() fuBudget {
	p := &c.cfg.Core
	return fuBudget{alu: p.NumALU, mul: p.NumMulDiv, lsu: p.NumLSU, fpu: p.NumFPU}
}

// allocFU reserves a functional unit for the entry, returning whether it
// can issue this cycle and its completion latency. The load/store latency
// (memLatency) is only computed once the LSU port is granted, so its side
// effects (SQ search, cache access, forwarding records) happen in exactly
// the same order under both kernels.
func (c *Core) allocFU(e *robEntry, b *fuBudget) (bool, int) {
	p := &c.cfg.Core
	switch e.kind {
	case trace.ALU, trace.Branch:
		if b.alu > 0 {
			b.alu--
			return true, p.ALULatency
		}
	case trace.Mul:
		if b.mul > 0 {
			b.mul--
			return true, p.MulLatency
		}
	case trace.Div:
		for u := range c.divBusy {
			if c.divBusy[u] <= c.now {
				c.divBusy[u] = c.now + int64(p.DivLatency)
				return true, p.DivLatency
			}
		}
	case trace.FPAdd:
		if b.fpu > 0 {
			b.fpu--
			return true, p.FPAddLatency
		}
	case trace.FPMul:
		if b.fpu > 0 {
			b.fpu--
			return true, p.FPMulLatency
		}
	case trace.FPDiv:
		for u := range c.fpDivBusy {
			if c.fpDivBusy[u] <= c.now {
				c.fpDivBusy[u] = c.now + int64(p.FPDivLatency)
				return true, p.FPDivLatency
			}
		}
	case trace.Load, trace.Store:
		if b.lsu > 0 {
			b.lsu--
			return true, c.memLatency(e)
		}
	}
	return false, 0
}

// markIssued applies the bookkeeping common to both kernels when an entry
// wins issue.
func (c *Core) markIssued(e *robEntry, lat int) {
	e.state = stIssued
	e.doneAt = c.now + int64(lat)
	c.iqCount--
	c.Stats.IQWakeups++
	if e.src1 >= 0 {
		c.Stats.RFReads++
	}
	if e.src2 >= 0 {
		c.Stats.RFReads++
	}
}

// finish marks the entry executed (results bypassed to dependents via
// doneAt comparisons).
func (c *Core) finish(e *robEntry) { e.state = stDone }

// memLatency returns a load or store's completion latency from the
// fetch-time probe results. Shared by both kernels: the forwarding
// decision and the hierarchy access happened at fetch, so nothing here
// depends on issue order.
func (c *Core) memLatency(e *robEntry) int {
	p := &c.cfg.Core
	if e.kind == trace.Store {
		return p.LSULatency
	}
	if e.fwd {
		return p.LSULatency + 1
	}
	return p.LoadToUseCycles + int(e.memExtra)
}

// ready reports whether the entry's sources are available this cycle. A
// producer reference whose slot no longer holds that sequence number refers
// to a committed (or squashed) instruction, so the value is available.
func (c *Core) ready(e *robEntry) bool {
	if e.prod1.seq != 0 {
		p := &c.rob[e.prod1.slot]
		if p.seq == e.prod1.seq && (p.state != stDone || p.doneAt > c.now) {
			return false
		}
	}
	if e.prod2.seq != 0 {
		p := &c.rob[e.prod2.slot]
		if p.seq == e.prod2.seq && (p.state != stDone || p.doneAt > c.now) {
			return false
		}
	}
	return true
}

// squashAfter flushes every entry younger than the branch at slot idx and
// redirects fetch after the misprediction penalty.
func (c *Core) squashAfter(idx int, br *robEntry) {
	if br.mispred {
		c.Stats.Mispredicts++
	}
	// Pop from the tail back to (but excluding) idx.
	for c.count > 0 {
		t := (c.tail - 1 + len(c.rob)) % len(c.rob)
		if t == idx {
			break
		}
		e := &c.rob[t]
		if e.dst >= 0 {
			c.freePhys++
			c.lastMap[e.dst] = e.prevMap
		}
		switch e.kind {
		case trace.Load:
			c.lqCount--
		case trace.Store:
			// The store's ring record deliberately survives the squash:
			// the ring is program-order stream state (see its declaration),
			// so a squashed store's line may still satisfy a later load's
			// forwarding check — the same approximation the functional
			// warmer makes.
			c.sqCount--
		}
		if e.state == stWaiting {
			c.iqCount--
		}
		if c.kern == KernelEvent {
			c.unschedule(t, e)
		}
		c.tail = t
		c.count--
	}
	// Discard the wrong-path frontend and stall fetch for the refill.
	c.fqClear()
	penalty := int64(c.cfg.Core.BranchPenaltyCycles) - c.frontDepth
	if br.btbMiss && !br.mispred {
		penalty = 3 // late target redirect only
	}
	if penalty < 1 {
		penalty = 1
	}
	gate := br.doneAt + penalty
	if gate > c.fetchGate {
		c.fetchGate = gate
	}
	// The fetch-line register is deliberately left alone: the IL1 is
	// touched once per line change of the trace stream, with no post-squash
	// re-touch. A re-touch would fire at the (timing-dependent) run-ahead
	// position and make the probe sequence diverge from the functional
	// warmer's, which has no notion of run-ahead; the redirect's timing
	// cost is fully carried by the fetch gate.
}

// dispatch moves instructions from the frontend queue into the ROB/IQ/LSQ,
// renaming their registers.
func (c *Core) dispatch() {
	p := &c.cfg.Core
	slots := p.DispatchWidth
	for slots > 0 && c.fqLen > 0 {
		f := &c.fq[c.fqHead]
		if f.readyAt > c.now {
			return
		}
		if c.count >= p.ROBSize {
			c.Stats.StallROB++
			return
		}
		if c.iqCount >= p.IQSize {
			c.Stats.StallIQ++
			return
		}
		switch f.kind {
		case trace.Load:
			if c.lqCount >= p.LQSize {
				c.Stats.StallLQ++
				return
			}
		case trace.Store:
			if c.sqCount >= p.SQSize {
				c.Stats.StallSQ++
				return
			}
		}
		if f.dst >= 0 && c.freePhys <= 0 {
			c.Stats.StallRF++
			return
		}
		if f.complex {
			// The complex-decoder latency is charged in the frontend
			// (fetch sets a later readyAt); here we only count the event.
			c.Stats.ComplexOps++
		}

		// Rename. The cache/predictor/ring probes already happened at fetch
		// (see fetch); dispatch only copies their results onto the ROB entry.
		c.Stats.RATLookups++
		c.seq++
		// The entry is written field by field in place: building a robEntry
		// value and copying it into the slot costs a measurable share of
		// dispatch. The event-kernel fields are set by registerDeps.
		slot := c.tail
		e := &c.rob[slot]
		e.kind, e.state, e.doneAt, e.seq = f.kind, stWaiting, 0, c.seq
		e.dst, e.src1, e.src2 = f.dst, f.src1, f.src2
		e.mispred, e.btbMiss, e.fwd, e.memExtra = f.mispred, f.btbMiss, f.fwd, f.memExtra
		e.prod1, e.prod2, e.prevMap = regRef{}, regRef{}, regRef{}
		if f.src1 >= 0 {
			e.prod1 = c.lastMap[f.src1]
		}
		if f.src2 >= 0 {
			e.prod2 = c.lastMap[f.src2]
		}
		if f.dst >= 0 {
			c.freePhys--
			e.prevMap = c.lastMap[f.dst]
			c.lastMap[f.dst] = regRef{slot: int32(slot), seq: c.seq}
		}
		switch f.kind {
		case trace.Load:
			c.lqCount++
		case trace.Store:
			c.sqCount++
		}
		c.Stats.IQInserts++
		c.Stats.ROBWrites++
		c.iqCount++
		c.tail = ringNext(c.tail, len(c.rob))
		c.count++
		c.fqPop()
		slots--
		if c.kern == KernelEvent {
			c.registerDeps(slot)
		}
	}
}

// fetch brings new instructions into the frontend queue, modelling the IL1
// and stopping at taken branches.
//
// All long-lived-state probes happen here, per trace instruction, in pure
// program order: the branch predictor is looked up and trained, stores
// enter the forwarding ring and loads check it, and data accesses probe the
// memory hierarchy. The probed results ride on the fetched entry into
// dispatch and the ROB, so the backend never touches cache, predictor or
// ring state — which is exactly what lets sampled simulation's functional
// warmer (warmer.go) evolve that state identically while skipping the
// backend: every trace instruction probes exactly once, in the same order,
// in both modes, through the same FunctionalWarmer.probe. Instructions
// later squashed keep their probe side effects (wrong-path work warms
// caches and trains predictors in real machines too). The same invariant
// makes the probe outcomes a pure function of the stream and the cache,
// predictor and store-ring geometry, so a tape-fed core reads them from a
// shared recording (tape.go) instead of probing.
func (c *Core) fetch() {
	p := &c.cfg.Core
	if c.now < c.fetchGate || c.fqLen >= 2*p.FetchWidth {
		return
	}
	c.Stats.FetchGroups++
	for i := 0; i < p.FetchWidth && c.fqLen < len(c.fq); i++ {
		slot := c.fqHead + c.fqLen
		if slot >= len(c.fq) {
			slot -= len(c.fq)
		}
		f := &c.fq[slot]
		var r probeResult
		if c.tape != nil {
			r = c.replayProbes(f)
		} else {
			in := c.fwd.next()
			f.kind, f.dst, f.src1, f.src2, f.complex = in.Kind, in.Dst, in.Src1, in.Src2, in.Complex
			r = c.fwd.probe(in)
		}
		c.fqLen++
		c.Stats.Fetched++
		c.Stats.KindCount[f.kind]++
		if r.fetchExtra > 0 {
			// Instruction miss: this group's tail is delayed.
			c.fetchGate = c.now + int64(r.fetchExtra)
			c.Stats.MemExtraFetch += uint64(r.fetchExtra)
		}
		f.readyAt = c.now + c.frontDepth
		if f.complex {
			// Complex instructions pass through the complex decoder — one
			// extra cycle when it lives in the slower top M3D layer
			// (Section 4.1.2).
			f.readyAt += int64(p.ComplexDecodeExtra)
		}
		f.fwd = r.flags&probeFwd != 0
		f.mispred = r.flags&probeMispred != 0
		f.btbMiss = r.flags&probeBTBMiss != 0
		f.memExtra = 0
		switch f.kind {
		case trace.Branch:
			c.Stats.Branches++
			if f.btbMiss {
				c.Stats.BTBMisses++
				c.Stats.PredSquashes++
			}
			if f.mispred {
				c.Stats.PredSquashes++
			}
		case trace.Load:
			c.Stats.SQSearches++
			switch {
			case f.fwd:
				c.Stats.Forwards++
			case r.dataExtra == 0:
				c.Stats.LoadL1Hits++
			default:
				c.Stats.LoadL1Misses++
				f.memExtra = r.dataExtra
			}
		}
		if r.flags&probeData != 0 {
			c.dataProbe(r.dataExtra)
		}
		if r.flags&probeTaken != 0 {
			break // taken branch ends the fetch group
		}
	}
}

// dataProbe accounts one data-cache probe's extra latency, with the
// functional warmer's exact MissRuns accounting (see WarmObs.observe).
func (c *Core) dataProbe(extra int32) {
	if extra == 0 {
		c.dataMissRun = false
		return
	}
	c.Stats.MemExtraData += uint64(extra)
	if !c.dataMissRun {
		c.Stats.MissRuns++
		c.dataMissRun = true
	}
}
