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

	// PredSquashes counts squash triggers at dispatch time: one per
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
	addr    uint64
	pc      uint64
	taken   bool
	mispred bool
	btbMiss bool
	complex bool
	fwd     bool // load forwards from the store ring (decided at dispatch)
	seq     uint64

	// memExtra is the extra hierarchy latency of a load beyond a DL1 hit,
	// probed at dispatch in program order (see dispatch); consumed when the
	// load issues.
	memExtra int32

	// Event-kernel scheduling state (unused by the reference kernel).
	// nwait counts in-flight producers whose doneAt is still unknown;
	// readyAt folds the doneAt of every resolved producer.
	nwait   uint8
	readyAt int64
}

// regRef identifies a producing instruction by ROB slot and sequence
// number. The sequence number guards against slot reuse: if the slot no
// longer holds that instruction, the value is architecturally available.
// Sequence numbers are globally unique and never reused, so a (slot, seq)
// pair identifies one dynamic instruction for the core's whole lifetime —
// the property the event kernel's lazy queue invalidation relies on.
type regRef struct {
	slot int32
	seq  uint64
}

// Core simulates one out-of-order core.
type Core struct {
	ID   int
	cfg  config.Config
	kern Kernel

	src  trace.Source
	mem  mem.Backend
	pred *Predictor

	// instBuf is the frontend's prefill buffer: fetch pulls single
	// instructions from it and it refills in batches via src.NextBatch,
	// amortising the per-instruction interface call (and, for replayed
	// recordings, the packed decode) over a whole buffer. The stream has no
	// feedback from the core, so prefilling ahead of fetch is unobservable.
	instBuf []trace.Inst
	instPos int

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

	// storeRing holds the line addresses of the last SQSize dispatched
	// stores, program order, for the dispatch-time forwarding check. The
	// ring is stream state rather than pipeline state: records survive
	// squashes and pipeline resets (squashed stores leave stale records),
	// which is exactly the approximation the functional warmer can mirror,
	// keeping sampled fast-forward and detailed simulation commensurate.
	storeAddrs []uint64
	storeHead  int

	// stCounts is a counting filter over the ring's hashed line addresses:
	// a zero bucket proves the address is absent, so the forwarding check
	// skips the ring scan for the common no-forward case. Counts are exact
	// (every insert increments, every overwrite decrements), so a positive
	// bucket only means "maybe" and the scan still decides. The functional
	// warmer shares this array alongside the ring itself.
	stCounts [256]uint8

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

	// icache line tracking.
	curFetchLine uint64

	// Event-kernel scheduling structures. readyQ is a seq-keyed min-heap of
	// waiting entries whose operands are available now (pop order = program
	// order, the scan kernel's oldest-first selection); readyKept is the
	// issue pass's scratch list of port-conflicted entries to re-offer;
	// wakeHeap is a time-ordered min-heap of entries whose operands become
	// available at a known future cycle. Consumer wake lists live in a
	// slab arena: wakeHead[slot] heads a freelist-linked chain of wakeNodes
	// in wakeArena naming the consumers to notify when the producer in that
	// slot issues — no per-slot slice headers, no steady-state allocation.
	// All of these hold (slot, seq) refs that are lazily invalidated after
	// squashes via the seq check.
	readyQ    []qref
	readyKept []qref
	wakeHeap  []wakeEv
	wakeArena []wakeNode
	wakeHead  []int32
	wakeFree  int32

	// Sampled-simulation state: the cached functional warmer bound to this
	// core's stream/backend/predictor, and the count of instructions
	// fast-forwarded past the detailed pipeline (see sample.go).
	fwd      *FunctionalWarmer
	ffInstrs uint64

	// ffHook, when installed via SetFastForward, intercepts FastForward —
	// the seam the warm-state snapshot cache binds through (internal/warm).
	ffHook func(n uint64)

	// latL2/latL3/fillsOK and fetchFills/dataFills classify detailed-path
	// misses by fill level, mirroring WarmObs.FetchFills/DataFills — the
	// design-independent form of the miss observables a snapshot binding
	// needs to reprice skipped stretches exactly (see StreamCounters). They
	// are deliberately kept out of Stats so existing journal records keep
	// decoding unchanged.
	latL2, latL3 int
	fillsOK      bool
	fetchFills   [3]uint64
	dataFills    [3]uint64

	now   int64
	Stats Stats
}

// qref references a ROB entry from a scheduling queue.
type qref struct {
	slot int32
	seq  uint64
}

// wakeEv schedules a ROB entry to become issue-eligible at a cycle.
type wakeEv struct {
	at   int64
	slot int32
	seq  uint64
}

// fetched is an instruction waiting in the frontend, carrying the results
// of the fetch-stage probes (branch prediction, store-forwarding check,
// data-hierarchy latency) into dispatch.
type fetched struct {
	in       trace.Inst
	readyAt  int64
	memExtra int32 // extra DL1-miss cycles probed at fetch (loads)
	fwd      bool  // load forwards from the store ring
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
	if k != KernelEvent && k != KernelReference {
		return nil, errors.New("uarch: unknown kernel")
	}
	p := cfg.Core
	c := &Core{
		ID:         id,
		cfg:        cfg,
		kern:       k,
		src:        src,
		mem:        backend,
		pred:       NewPredictor(p),
		rob:        make([]robEntry, p.ROBSize),
		freePhys:   p.IntRF + p.FPRF - 2*64,
		frontDepth: 4,
		fq:         make([]fetched, 3*p.FetchWidth),
		storeAddrs: make([]uint64, p.SQSize),
		divBusy:    make([]int64, p.NumMulDiv),
		fpDivBusy:  make([]int64, p.NumFPU),
		instBuf:    make([]trace.Inst, 0, max(8*p.FetchWidth, 64)),
	}
	// Sentinel-fill the store ring: a zero entry would spuriously match a
	// load in the first data page.
	for i := range c.storeAddrs {
		c.storeAddrs[i] = ^uint64(0)
	}
	if h, ok := backend.(*mem.Hierarchy); ok {
		e2, e3, ed := h.FillLatencies()
		if e2 > 0 && e3 > e2 && ed > e3 {
			c.latL2, c.latL3, c.fillsOK = e2, e3, true
		}
	}
	if k == KernelEvent {
		c.readyQ = make([]qref, 0, p.IssueWidth*4)
		c.readyKept = make([]qref, 0, p.IssueWidth)
		c.wakeHeap = make([]wakeEv, 0, p.ROBSize)
		// Each in-flight instruction registers on at most two producers, so
		// 2*ROBSize nodes bound the arena's live set.
		c.wakeArena = make([]wakeNode, 0, 2*p.ROBSize)
		c.wakeHead = make([]int32, p.ROBSize)
		for i := range c.wakeHead {
			c.wakeHead[i] = wakeNil
		}
		c.wakeFree = wakeNil
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

// fqPush appends to the frontend ring.
func (c *Core) fqPush(f fetched) {
	c.fq[(c.fqHead+c.fqLen)%len(c.fq)] = f
	c.fqLen++
}

// fqPop removes the oldest frontend entry.
func (c *Core) fqPop() {
	c.fqHead = (c.fqHead + 1) % len(c.fq)
	c.fqLen--
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
		// The store's DL1 write already happened at dispatch (program-order
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
		c.head = (c.head + 1) % len(c.rob)
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

// stHash buckets a store line address into the counting filter.
func stHash(la uint64) uint8 {
	return uint8((la * 0x9E3779B97F4A7C15) >> 56)
}

// storeRingHas reports whether the line address matches a recently
// dispatched store — the dispatch-time forwarding check.
func (c *Core) storeRingHas(la uint64) bool {
	if c.stCounts[stHash(la)] == 0 {
		return false
	}
	for _, a := range c.storeAddrs {
		if a == la {
			return true
		}
	}
	return false
}

// memLatency returns a load or store's completion latency from the
// dispatch-time probe results. Shared by both kernels: the forwarding
// decision and the hierarchy access happened at dispatch, so nothing here
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
		// Invalidate the popped slot's sequence number so any scheduling
		// ref (readyQ/wakeHeap/wakes) still pointing at it stops
		// validating before the slot is reused. Live entries never
		// reference squashed (younger) slots, so this is unobservable to
		// the reference kernel.
		e.seq = 0
		c.tail = t
		c.count--
	}
	// Discard the wrong-path frontend and stall fetch for the refill.
	// Squashed entries still referenced from readyQ/wakeHeap/wakes are
	// dropped lazily: their (slot, seq) refs stop validating.
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
	// curFetchLine is deliberately left alone: the IL1 is touched once per
	// line change of the trace stream, with no post-squash re-touch. A
	// re-touch would fire at the (timing-dependent) run-ahead position and
	// make the probe sequence diverge from the functional warmer's, which
	// has no notion of run-ahead; the redirect's timing cost is fully
	// carried by the fetch gate.
}

// dispatch moves instructions from the frontend queue into the ROB/IQ/LSQ,
// renaming their registers.
func (c *Core) dispatch() {
	p := &c.cfg.Core
	slots := p.DispatchWidth
	for slots > 0 && c.fqLen > 0 {
		f := c.fq[c.fqHead]
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
		in := f.in
		switch in.Kind {
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
		if in.Dst >= 0 && c.freePhys <= 0 {
			c.Stats.StallRF++
			return
		}
		if in.Complex {
			// The complex-decoder latency is charged in the frontend
			// (fetch sets a later readyAt); here we only count the event.
			c.Stats.ComplexOps++
		}

		// Rename. The cache/predictor/ring probes already happened at fetch
		// (see fetch); dispatch only copies their results onto the ROB entry.
		c.Stats.RATLookups++
		c.seq++
		e := robEntry{
			kind:     in.Kind,
			state:    stWaiting,
			dst:      in.Dst,
			src1:     in.Src1,
			src2:     in.Src2,
			addr:     in.Addr,
			pc:       in.PC,
			taken:    in.Taken,
			complex:  in.Complex,
			mispred:  f.mispred,
			btbMiss:  f.btbMiss,
			fwd:      f.fwd,
			memExtra: f.memExtra,
			seq:      c.seq,
		}
		if in.Src1 >= 0 {
			e.prod1 = c.lastMap[in.Src1]
		}
		if in.Src2 >= 0 {
			e.prod2 = c.lastMap[in.Src2]
		}
		if in.Dst >= 0 {
			c.freePhys--
			e.prevMap = c.lastMap[in.Dst]
			c.lastMap[in.Dst] = regRef{slot: int32(c.tail), seq: c.seq}
		}
		switch in.Kind {
		case trace.Load:
			c.lqCount++
		case trace.Store:
			c.sqCount++
		}
		c.Stats.IQInserts++
		c.Stats.ROBWrites++
		c.iqCount++
		slot := c.tail
		c.rob[slot] = e
		c.tail = (c.tail + 1) % len(c.rob)
		c.count++
		c.fqPop()
		slots--
		if c.kern == KernelEvent {
			c.registerDeps(slot)
		}
	}
}

// nextInst returns the next instruction of the stream, refilling the
// prefill buffer in whole batches so the Source interface call (and any
// packed-recording decode) is amortised over cap(instBuf) instructions.
func (c *Core) nextInst() trace.Inst {
	if c.instPos == len(c.instBuf) {
		buf := c.instBuf[:cap(c.instBuf)]
		n := c.src.NextBatch(buf)
		if n <= 0 {
			panic("uarch: trace source exhausted (sources must be infinite)")
		}
		c.instBuf = buf[:n]
		c.instPos = 0
	}
	in := c.instBuf[c.instPos]
	c.instPos++
	return in
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
// in both modes. Instructions later squashed keep their probe side effects
// (wrong-path work warms caches and trains predictors in real machines
// too).
func (c *Core) fetch() {
	p := &c.cfg.Core
	if c.now < c.fetchGate || c.fqLen >= 2*p.FetchWidth {
		return
	}
	c.Stats.FetchGroups++
	lineMask := ^uint64(uint64(p.IL1.LineBytes) - 1)
	for i := 0; i < p.FetchWidth && c.fqLen < len(c.fq); i++ {
		in := c.nextInst()
		c.Stats.Fetched++
		c.Stats.KindCount[in.Kind]++
		if line := in.PC & lineMask; line != c.curFetchLine {
			c.curFetchLine = line
			if extra := c.mem.FetchExtra(c.ID, in.PC); extra > 0 {
				// Instruction miss: this group's tail is delayed.
				c.fetchGate = c.now + int64(extra)
				c.Stats.MemExtraFetch += uint64(extra)
				if c.fillsOK {
					c.fetchFills[fillClass(extra, c.latL2, c.latL3)]++
				}
			}
		}
		readyAt := c.now + c.frontDepth
		if in.Complex {
			// Complex instructions pass through the complex decoder — one
			// extra cycle when it lives in the slower top M3D layer
			// (Section 4.1.2).
			readyAt += int64(p.ComplexDecodeExtra)
		}
		f := fetched{in: in, readyAt: readyAt}
		switch in.Kind {
		case trace.Branch:
			c.Stats.Branches++
			predTaken, predTarget, btbHit := c.pred.Predict(in.PC)
			f.mispred = predTaken != in.Taken ||
				(in.Taken && btbHit && predTarget != in.Target)
			f.btbMiss = in.Taken && !btbHit
			if f.btbMiss {
				c.Stats.BTBMisses++
			}
			if f.mispred {
				c.Stats.PredSquashes++
			}
			if f.btbMiss {
				c.Stats.PredSquashes++
			}
			c.pred.Update(in.PC, in.Taken, in.Target)
		case trace.Load:
			c.Stats.SQSearches++
			if c.storeRingHas(in.Addr &^ 7) {
				c.Stats.Forwards++
				f.fwd = true
			} else if extra := c.mem.DataExtra(c.ID, in.Addr, false); extra == 0 {
				c.Stats.LoadL1Hits++
				c.dataMissRun = false
			} else {
				c.Stats.LoadL1Misses++
				c.Stats.MemExtraData += uint64(extra)
				if c.fillsOK {
					c.dataFills[fillClass(extra, c.latL2, c.latL3)]++
				}
				if !c.dataMissRun {
					c.Stats.MissRuns++
					c.dataMissRun = true
				}
				f.memExtra = int32(extra)
			}
		case trace.Store:
			if old := c.storeAddrs[c.storeHead]; old != ^uint64(0) {
				c.stCounts[stHash(old)]--
			}
			c.stCounts[stHash(in.Addr&^7)]++
			c.storeAddrs[c.storeHead] = in.Addr &^ 7
			c.storeHead = (c.storeHead + 1) % len(c.storeAddrs)
			if extra := c.mem.DataExtra(c.ID, in.Addr, true); extra > 0 {
				c.Stats.MemExtraData += uint64(extra)
				if c.fillsOK {
					c.dataFills[fillClass(extra, c.latL2, c.latL3)]++
				}
				if !c.dataMissRun {
					c.Stats.MissRuns++
					c.dataMissRun = true
				}
			} else {
				c.dataMissRun = false
			}
		}
		c.fqPush(f)
		if in.Kind == trace.Branch && in.Taken {
			break // taken branch ends the fetch group
		}
	}
}
