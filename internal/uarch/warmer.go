package uarch

import (
	"errors"

	"vertical3d/internal/config"
	"vertical3d/internal/mem"
	"vertical3d/internal/trace"
)

// FunctionalWarmer consumes a trace.Source at functional speed, updating
// only the long-lived microarchitectural state — the memory hierarchy and
// the branch predictor — and skipping the out-of-order backend entirely.
// It is the fast-forward engine of sampled simulation (see sample.go): the
// caches and the predictor are the state whose warmth survives across
// sampling intervals, while the pipeline's own state (ROB, queues,
// rename map) is rebuilt by a short detailed-warm phase before each
// measured window.
//
// Per instruction the warmer performs exactly the probes the detailed
// core's fetch stage makes — the detailed core makes them through its own
// warmer's probe method (see Core.fetch), in program order:
//
//   - instruction fetch touches the IL1 once per new cache line, in stream
//     order (the frontend's line-change check);
//   - branches look up and train the predictor and BTB with the resolved
//     outcome (the fetch stage's Predict+Update pair);
//   - stores access the DL1 and record their 8-byte-aligned address in a
//     store ring sized like the SQ; loads that hit the ring forward and
//     skip the DL1, exactly as the fetch-time forwarding check suppresses
//     the probe for store-forwarded loads.
//
// Because the detailed frontend probes every trace instruction exactly
// once in the same order, the Backend call sequence is bit-identical
// between functional and detailed execution (TestWarmerProbeEquivalence):
// a sampled run's caches and predictor evolve exactly as a full run's
// would. Only multi-core sharing and invalidation timing remain outside
// the warmer's reach.
type FunctionalWarmer struct {
	id  int
	src trace.Source
	mem mem.Backend
	// hier is mem when it is the single-core *mem.Hierarchy — the common
	// case — letting the hot loop call it directly instead of through the
	// interface table.
	hier *mem.Hierarchy
	pred *Predictor

	lineMask uint64
	curLine  uint64

	// stAddrs is the store-forwarding ring: the line addresses of the last
	// SQSize stores, program order, used only to decide which loads
	// forward. The ring is stream state rather than pipeline state:
	// records survive squashes and pipeline resets (squashed stores leave
	// stale records), which is exactly what lets detailed and functional
	// execution share it. stCounts is a counting filter over the ring's
	// hashed line addresses: a zero bucket proves the address is absent, so
	// the forwarding check skips the ring scan for the common no-forward
	// case. Counts are exact (every insert increments, every overwrite
	// decrements), so a positive bucket only means "maybe" and the scan
	// still decides.
	stAddrs  []uint64
	stHead   int
	stCounts [256]uint8

	// dataMissRun mirrors Core.dataMissRun — whether the previous data
	// probe missed — so WarmObs.MissRuns continues the detailed
	// Stats.MissRuns accounting across the functional boundary.
	dataMissRun bool

	buf []trace.Inst
	pos int
}

// WarmObs are the per-region functional observables: the event counts that
// drive CPI variance and that the warmer can measure exactly while
// fast-forwarding, because it maintains the same caches and predictor the
// detailed core would have used.
type WarmObs struct {
	// Instrs is the number of instructions covered.
	Instrs uint64

	// ExtraFetch and ExtraData sum the extra miss cycles the hierarchy
	// returned for IL1 and DL1 accesses — the functional counterparts of
	// Stats.MemExtraFetch/MemExtraData.
	ExtraFetch uint64
	ExtraData  uint64

	// Mispredicts counts squash triggers the (continuously trained)
	// predictor would have produced, with the same accounting as the
	// detailed Stats.PredSquashes: a direction or target mispredict
	// counts once, a taken BTB miss counts once, a branch that is both
	// counts twice on both sides.
	Mispredicts uint64

	// MissRuns counts maximal bursts of consecutive missing data probes,
	// with the same accounting as Stats.MissRuns: clustered misses overlap
	// in the out-of-order window, so stall cycles track bursts more
	// linearly than total miss cycles.
	MissRuns uint64

	// LongOps counts divide-class instructions, whose multi-cycle latency
	// is the remaining large CPI contributor.
	LongOps uint64
}

// Add returns the field-wise sum of two observation sets.
func (o WarmObs) Add(p WarmObs) WarmObs {
	o.Instrs += p.Instrs
	o.ExtraFetch += p.ExtraFetch
	o.ExtraData += p.ExtraData
	o.Mispredicts += p.Mispredicts
	o.MissRuns += p.MissRuns
	o.LongOps += p.LongOps
	return o
}

// observe accounts one instruction's probe outcome, with the detailed
// fetch stage's exact accounting: both squash triggers of a branch count,
// and a data probe extends or ends the current miss run (missRun, the
// Stats.MissRuns state) while a forwarded load is transparent to it.
func (o *WarmObs) observe(k trace.Kind, r probeResult, missRun *bool) {
	o.Instrs++
	o.ExtraFetch += uint64(r.fetchExtra)
	if r.flags&probeMispred != 0 {
		o.Mispredicts++
	}
	if r.flags&probeBTBMiss != 0 {
		o.Mispredicts++
	}
	if r.flags&probeData != 0 {
		if r.dataExtra > 0 {
			o.ExtraData += uint64(r.dataExtra)
			if !*missRun {
				o.MissRuns++
				*missRun = true
			}
		} else {
			*missRun = false
		}
	}
	if k == trace.Div || k == trace.FPDiv {
		o.LongOps++
	}
}

// fillClass maps a positive extra fill latency onto its level index:
// 0 = L2 hit, 1 = L3 hit, 2 = DRAM fill. Every miss resolves with exactly
// one of the three mem.FillLatenciesOf values, so two comparisons decide.
func fillClass(extra, l2, l3 int) int {
	switch extra {
	case l2:
		return 0
	case l3:
		return 1
	default:
		return 2
	}
}

// newFunctionalWarmer builds a warmer over the given stream and backend.
// Every inline core owns one (NewCoreKernel), which probes for its fetch
// stage and fast-forwards it; a standalone one records a probe tape.
func newFunctionalWarmer(id int, cfg config.Config, src trace.Source, backend mem.Backend) (*FunctionalWarmer, error) {
	if src == nil || backend == nil {
		return nil, errors.New("uarch: nil instruction source or memory backend")
	}
	p := cfg.Core
	hier, _ := backend.(*mem.Hierarchy)
	w := &FunctionalWarmer{
		id:       id,
		src:      src,
		mem:      backend,
		hier:     hier,
		pred:     NewPredictor(p),
		lineMask: ^uint64(uint64(p.IL1.LineBytes) - 1),
		stAddrs:  make([]uint64, p.SQSize),
		buf:      make([]trace.Inst, 0, max(8*p.FetchWidth, 64)),
	}
	// Sentinel-fill the store ring: a zero entry would spuriously match a
	// load in the first data page, while the sentinel never equals an
	// 8-byte-aligned address.
	for i := range w.stAddrs {
		w.stAddrs[i] = ^uint64(0)
	}
	return w, nil
}

// classifiable reports whether three fill latencies identify their fill
// level unambiguously: positive and strictly increasing, which every
// derived configuration satisfies.
func classifiable(l2, l3, dram int) bool {
	return l2 > 0 && l3 > l2 && dram > l3
}

// FillsClassifiable reports whether cfg's fill latencies identify their
// fill level, the condition for recording (NewTape) or replaying
// (NewTapeCore) a probe tape with cfg.
func FillsClassifiable(cfg config.Config) bool {
	return classifiable(mem.FillLatenciesOf(cfg))
}

// stHash buckets a store line address into the counting filter.
func stHash(la uint64) uint8 {
	return uint8((la * 0x9E3779B97F4A7C15) >> 56)
}

// wouldForward reports whether a load at the given 8-byte-aligned address
// would forward from a recent store instead of accessing the DL1.
func (w *FunctionalWarmer) wouldForward(la uint64) bool {
	if w.stCounts[stHash(la)] == 0 {
		return false
	}
	for _, a := range w.stAddrs {
		if a == la {
			return true
		}
	}
	return false
}

// stPush records a store's line address in the ring and the counting
// filter, with the detailed fetch stage's exact bookkeeping.
func (w *FunctionalWarmer) stPush(la uint64) {
	if old := w.stAddrs[w.stHead]; old != ^uint64(0) {
		w.stCounts[stHash(old)]--
	}
	w.stCounts[stHash(la)]++
	w.stAddrs[w.stHead] = la
	w.stHead = (w.stHead + 1) % len(w.stAddrs)
}

// warm advances the stream by n instructions, updating caches and the
// predictor, and returns the stretch's observables. Instructions already
// buffered (shared with the detailed frontend) are consumed first; past
// them, a replayer-backed warmer reads the recording's packed lanes
// directly instead of decoding Inst structs.
func (w *FunctionalWarmer) warm(n uint64) WarmObs {
	var o WarmObs
	for n > 0 && w.pos < len(w.buf) {
		w.step(&o)
		n--
	}
	if rp, ok := w.src.(*trace.Replayer); ok && n > 0 {
		w.warmLanes(rp, n, &o)
		return o
	}
	for ; n > 0; n-- {
		w.step(&o)
	}
	return o
}

// warmLanes fast-forwards n instructions straight from a replayer's packed
// lanes, adding their observables to o. The logic is step's exactly —
// same probe order, same observable accounting — restated over lane slices
// with the counters kept in locals, so the per-instruction cost is a few
// lane reads instead of a 40-byte struct decode plus accumulator stores.
func (w *FunctionalWarmer) warmLanes(rp *trace.Replayer, n uint64, o *WarmObs) {
	var xf, xd, mp, lo, runs uint64
	curLine, missRun := w.curLine, w.dataMissRun
	o.Instrs += n
	for n > 0 {
		pc, addr, target, meta := rp.View(int(min(n, 4096)))
		k := len(pc) // the window may end early, at a chunk boundary
		addr, target, meta = addr[:k], target[:k], meta[:k]
		for i := range pc {
			if line := pc[i] & w.lineMask; line != curLine {
				curLine = line
				xf += uint64(w.fetchExtra(pc[i]))
			}
			switch trace.MetaKind(meta[i]) {
			case trace.Branch:
				taken := trace.MetaTaken(meta[i])
				predTaken, predTarget, btbHit := w.pred.Predict(pc[i])
				if predTaken != taken || (taken && btbHit && predTarget != target[i]) {
					mp++
				}
				if taken && !btbHit {
					mp++
				}
				w.pred.Update(pc[i], taken, target[i])
			case trace.Load:
				if !w.wouldForward(addr[i] &^ 7) {
					if extra := w.dataExtra(addr[i], false); extra > 0 {
						xd += uint64(extra)
						if !missRun {
							runs++
							missRun = true
						}
					} else {
						missRun = false
					}
				}
			case trace.Store:
				w.stPush(addr[i] &^ 7)
				if extra := w.dataExtra(addr[i], true); extra > 0 {
					xd += uint64(extra)
					if !missRun {
						runs++
						missRun = true
					}
				} else {
					missRun = false
				}
			case trace.Div, trace.FPDiv:
				lo++
			}
		}
		rp.Advance(k)
		n -= uint64(k)
	}
	w.curLine, w.dataMissRun = curLine, missRun
	o.ExtraFetch += xf
	o.ExtraData += xd
	o.Mispredicts += mp
	o.LongOps += lo
	o.MissRuns += runs
}

// next returns the stream's next instruction, refilling the prefill
// buffer in whole batches so the Source interface call (and any
// packed-recording decode) is amortised over cap(buf) instructions. The
// stream has no feedback from the core, so prefilling ahead of fetch is
// unobservable. The pointer is valid until the next refill.
func (w *FunctionalWarmer) next() *trace.Inst {
	if w.pos == len(w.buf) {
		buf := w.buf[:cap(w.buf)]
		k := w.src.NextBatch(buf)
		if k <= 0 {
			panic("uarch: trace source exhausted (sources must be infinite)")
		}
		w.buf = buf[:k]
		w.pos = 0
	}
	in := &w.buf[w.pos]
	w.pos++
	return in
}

// probeResult is what the fetch-stage probes of one trace instruction
// observed: the extra latencies the hierarchy returned for the IL1 line
// change and the data access (0 on a hit or when there was no probe), and
// the probe* flags.
type probeResult struct {
	fetchExtra, dataExtra int32
	flags                 uint8
}

// probeResult flags: the IL1 was probed (a new fetch line), a data access
// was made, a load forwarded from the store ring, a branch was
// mispredicted or missed the BTB, and a branch was taken (which ends a
// fetch group).
const (
	probeLine = 1 << iota
	probeData
	probeFwd
	probeMispred
	probeBTBMiss
	probeTaken
)

// probe makes one trace instruction's cache, predictor and store-ring
// probes, in the detailed fetch stage's order, and returns what they
// observed. It is the single implementation behind the detailed fetch
// stage (Core.fetch), functional stepping and probe-tape recording
// (tape.go); warmLanes restates it over packed lanes.
func (w *FunctionalWarmer) probe(in *trace.Inst) (r probeResult) {
	if line := in.PC & w.lineMask; line != w.curLine {
		w.curLine = line
		r.flags |= probeLine
		r.fetchExtra = int32(w.fetchExtra(in.PC))
	}
	switch in.Kind {
	case trace.Branch:
		predTaken, predTarget, btbHit := w.pred.Predict(in.PC)
		if predTaken != in.Taken || (in.Taken && btbHit && predTarget != in.Target) {
			r.flags |= probeMispred
		}
		if in.Taken {
			r.flags |= probeTaken
			if !btbHit {
				r.flags |= probeBTBMiss
			}
		}
		w.pred.Update(in.PC, in.Taken, in.Target)
	case trace.Load:
		if w.wouldForward(in.Addr &^ 7) {
			r.flags |= probeFwd
		} else {
			r.flags |= probeData
			r.dataExtra = int32(w.dataExtra(in.Addr, false))
		}
	case trace.Store:
		w.stPush(in.Addr &^ 7)
		r.flags |= probeData
		r.dataExtra = int32(w.dataExtra(in.Addr, true))
	}
	return r
}

// step processes one instruction functionally, adding its observables to
// o.
func (w *FunctionalWarmer) step(o *WarmObs) {
	in := w.next()
	o.observe(in.Kind, w.probe(in), &w.dataMissRun)
}

// fetchExtra and dataExtra route hierarchy probes through the concrete
// *mem.Hierarchy when possible, avoiding interface dispatch per probe.
func (w *FunctionalWarmer) fetchExtra(pc uint64) int {
	if w.hier != nil {
		return w.hier.FetchExtra(w.id, pc)
	}
	return w.mem.FetchExtra(w.id, pc)
}

func (w *FunctionalWarmer) dataExtra(addr uint64, write bool) int {
	if w.hier != nil {
		return w.hier.DataExtra(w.id, addr, write)
	}
	return w.mem.DataExtra(w.id, addr, write)
}

// FastForward advances the core's instruction stream by n instructions
// without the out-of-order backend and accumulates their functional
// observables for RunSampled. In-flight instructions (ROB, frontend queue)
// are discarded first — their stream positions were already consumed by
// fetch — and the pipeline restarts empty when detailed simulation
// resumes; committed counts in Stats are unaffected. An inline core warms
// its caches and predictor through its functional warmer, continuing the
// stream where the detailed frontend stopped; a tape-fed core moves its
// tape cursor and sums the recorded outcomes (see skipTape). This is the
// fast-forward phase of sampled simulation and the cheap warmup path of
// multicore runs.
func (c *Core) FastForward(n uint64) {
	c.resetPipeline()
	if c.tape != nil {
		c.obs = c.obs.Add(c.skipTape(n))
	} else {
		c.fwd.dataMissRun = c.dataMissRun
		c.obs = c.obs.Add(c.fwd.warm(n))
		c.dataMissRun = c.fwd.dataMissRun
	}
	c.ffInstrs += n
}

// takeWarmObs drains the functional observables accumulated by FastForward
// since the previous call.
func (c *Core) takeWarmObs() WarmObs {
	o := c.obs
	c.obs = WarmObs{}
	return o
}

// resetPipeline discards all in-flight pipeline state — ROB, frontend
// queue, rename map, scheduling queues — while preserving the long-lived
// state sampling relies on: caches and predictor (external), the
// store-forwarding ring, the trace position (instBuf), committed Stats,
// the cycle clock and the monotonic sequence counter (seq uniqueness is
// what lets stale scheduling refs die quietly).
func (c *Core) resetPipeline() {
	p := &c.cfg.Core
	for c.count > 0 {
		t := (c.tail - 1 + len(c.rob)) % len(c.rob)
		c.rob[t].seq = 0 // stale scheduling refs stop validating
		c.tail = t
		c.count--
	}
	c.head, c.tail, c.count = 0, 0, 0
	c.iqCount, c.lqCount, c.sqCount = 0, 0, 0
	c.freePhys = p.IntRF + p.FPRF - 2*64
	c.lastMap = [64]regRef{}
	c.fqClear()
	// The store ring is deliberately NOT cleared: it is program-order
	// stream state (recently dispatched store lines), and the warmer
	// continues it across the fast-forward exactly as dispatch would.
	if c.kern == KernelEvent {
		c.readyQ = c.readyQ[:0]
		c.wakeHeap = c.wakeHeap[:0]
		c.wakeArena = c.wakeArena[:0]
		c.wakeFree = wakeNil
		for i := range c.wakeHead {
			c.wakeHead[i] = wakeNil
		}
	}
	// A fetch gate set by an in-flight branch may point past now; keep it —
	// skipIdle jumps over the dead time exactly as the detailed path would.
}
