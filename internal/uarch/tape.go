package uarch

// Probe tapes. Every cache, predictor and store-ring probe happens in
// fetch, once per trace instruction, in program order (see Core.fetch), so
// what a full simulation's fetch stage observes is a pure function of the
// instruction stream and the cache, predictor and store-queue geometry —
// never of a design's latencies or frequency. A Tape records that
// observation once: per trace instruction, the fields the backend needs
// and the outcome of its probes, with fill levels in place of latencies.
// Any number of cores of any design sharing the geometry then replay it
// (NewTapeCore) instead of probing their own hierarchy, each pricing the
// recorded fill levels with its own fill latencies. The same words serve
// fast-forwarding: a tape-fed core skips a stretch by moving its cursor
// and summing the recorded outcomes into the observables sampling
// regresses on (skipTape), so full and sampled cells share one tape.
//
// Words are recorded on demand, like a trace.Recording: a core that reads
// past the recorded length extends the tape by whole chunks under a mutex,
// and the chunk list is published through an atomic pointer, so readers
// never lock. A chunk is filled before it is published and never written
// again, and fixed-size chunks keep the tape at 8 bytes per recorded
// instruction, with no growth slack or copying.

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"vertical3d/internal/config"
	"vertical3d/internal/mem"
	"vertical3d/internal/trace"
)

// Tape word layout, low bits first: the kind, the probeResult flags, the
// complex bit, the three registers stored plus one (0 means "none", -1),
// and the IL1 and data fill levels (0 for a hit or no probe, then 1 = L2,
// 2 = L3, 3 = DRAM). The hierarchy counter deltas of the instruction's
// probes follow from tpCountShift, tapeCounterBits wide each — 63 bits in
// all.
const (
	tpKindMask   = 0xf
	tpFlagsShift = 4
	tpFlagsMask  = 0x3f
	tpComplex    = 1 << 10
	tpDstShift   = 11
	tpSrc1Shift  = 18
	tpSrc2Shift  = 25
	tpRegMask    = 0x7f
	tpFetchShift = 32
	tpDataShift  = 34
	tpCountShift = 36
)

// tapeCounterBits is the width of each hierarchy counter's per-instruction
// delta, in tapeCounts order. One instruction makes at most one IL1
// access (the line change), two DL1 accesses (a stream prefetch and the
// access itself), four L2 accesses (the fetch fill, the prefetch, a DL1
// victim writeback and the data fill) and five L3 accesses (a fill and an
// L2 victim writeback per L2 fill, plus the prefetch); misses and
// writebacks are bounded by accesses.
var tapeCounterBits = [12]uint{1, 1, 1, 2, 2, 2, 3, 3, 3, 3, 3, 3}

const (
	// tapeChunk is the instruction count of one chunk of words, the unit
	// the tape extends by.
	tapeChunk = 8192
	// tapeStride is the distance between cumulative counter checkpoints,
	// which bounds the deltas HierStats sums. It divides tapeChunk.
	tapeStride = 1024
)

// tapeCounts are the single-core hierarchy counters in packing order:
// accesses, misses and writebacks of IL1, DL1, L2 and L3.
type tapeCounts [12]uint64

func countsOf(s mem.HierStats) tapeCounts {
	return tapeCounts{
		s.IL1.Accesses, s.IL1.Misses, s.IL1.Writebacks,
		s.DL1.Accesses, s.DL1.Misses, s.DL1.Writebacks,
		s.L2.Accesses, s.L2.Misses, s.L2.Writebacks,
		s.L3.Accesses, s.L3.Misses, s.L3.Writebacks,
	}
}

// hierStats converts the counters back, with a single-core hierarchy's
// DRAM accesses (its L3 misses).
func (c *tapeCounts) hierStats() mem.HierStats {
	level := func(i int) mem.CacheStats {
		return mem.CacheStats{Accesses: c[i], Misses: c[i+1], Writebacks: c[i+2]}
	}
	return mem.HierStats{IL1: level(0), DL1: level(3), L2: level(6), L3: level(9), DRAMAccesses: c[10]}
}

// packDeltas encodes cur − prev into a word's counter fields.
func packDeltas(prev, cur *tapeCounts) uint64 {
	var w uint64
	sh := uint(tpCountShift)
	for i, b := range tapeCounterBits {
		d := cur[i] - prev[i]
		if d >= 1<<b {
			panic(fmt.Sprintf("uarch: hierarchy counter %d moved by %d in one instruction", i, d))
		}
		w |= d << sh
		sh += b
	}
	return w
}

// addDeltas adds a word's counter deltas to acc.
func addDeltas(acc *tapeCounts, w uint64) {
	sh := uint(tpCountShift)
	for i, b := range tapeCounterBits {
		acc[i] += w >> sh & (1<<b - 1)
		sh += b
	}
}

// tapeReg packs a register number (-1 = none).
func tapeReg(r int16) uint64 {
	if r < -1 || r >= tpRegMask {
		panic(fmt.Sprintf("uarch: register %d does not fit a probe tape word", r))
	}
	return uint64(r + 1)
}

// fillLevel maps a probe's extra latency to its tape fill level.
func fillLevel(extra int32, l2, l3 int) uint64 {
	if extra == 0 {
		return 0
	}
	return uint64(fillClass(int(extra), l2, l3)) + 1
}

// encodeTape packs one instruction and its probe outcome, with fill
// levels classified at the builder's latencies l2 and l3.
func encodeTape(in *trace.Inst, r probeResult, l2, l3 int) uint64 {
	w := uint64(in.Kind)&tpKindMask | uint64(r.flags)<<tpFlagsShift |
		tapeReg(in.Dst)<<tpDstShift | tapeReg(in.Src1)<<tpSrc1Shift | tapeReg(in.Src2)<<tpSrc2Shift |
		fillLevel(r.fetchExtra, l2, l3)<<tpFetchShift | fillLevel(r.dataExtra, l2, l3)<<tpDataShift
	if in.Complex {
		w |= tpComplex
	}
	return w
}

// Cursor returns how many trace instructions the core has consumed:
// fetched by the detailed frontend plus fast-forwarded. On a tape-fed core
// it is the position of the next tape word, and Tape.HierStats(Cursor())
// holds the counters its hierarchy would.
func (c *Core) Cursor() uint64 { return c.Stats.Fetched + c.ffInstrs }

// replayProbes is the tape-fed counterpart of the fetch stage's probes: it
// decodes the word at the cursor into the frontend entry's backend fields
// and returns the recorded outcome priced at this core's fill latencies.
func (c *Core) replayProbes(f *fetched) probeResult {
	if c.tapePos == len(c.tapeBuf) {
		c.tapeBuf = c.tape.window(int(c.Cursor()))
		c.tapePos = 0
	}
	w := c.tapeBuf[c.tapePos]
	c.tapePos++
	f.kind = trace.Kind(w & tpKindMask)
	f.dst = int16(w>>tpDstShift&tpRegMask) - 1
	f.src1 = int16(w>>tpSrc1Shift&tpRegMask) - 1
	f.src2 = int16(w>>tpSrc2Shift&tpRegMask) - 1
	f.complex = w&tpComplex != 0
	return c.priced(w)
}

// priced returns a word's recorded probe outcome at this core's fill
// latencies.
func (c *Core) priced(w uint64) probeResult {
	return probeResult{
		fetchExtra: c.fillLat[w>>tpFetchShift&3],
		dataExtra:  c.fillLat[w>>tpDataShift&3],
		flags:      uint8(w >> tpFlagsShift & tpFlagsMask),
	}
}

// skipTape is a tape-fed core's fast-forward: it moves the cursor n words
// on and returns their observables, the sums an inline core's warmer would
// have returned over the same stretch — fill levels priced at this core's
// latencies, the recorded squash triggers, the miss runs continued from
// the frontend's dataMissRun, and the divide-class count. The fetch window
// is dropped, so fetch resumes at the new cursor.
func (c *Core) skipTape(n uint64) WarmObs {
	var o WarmObs
	pos := int(c.Cursor())
	for n > 0 {
		ws := c.tape.window(pos)
		ws = ws[:min(uint64(len(ws)), n)]
		for _, w := range ws {
			o.observe(trace.Kind(w&tpKindMask), c.priced(w), &c.dataMissRun)
		}
		pos += len(ws)
		n -= uint64(len(ws))
	}
	c.tapeBuf, c.tapePos = nil, 0
	return o
}

// Tape is the shared probe recording of one instruction stream over one
// cache, predictor and store-queue geometry. It is safe for concurrent
// use.
type Tape struct {
	// mu serialises extension; w is the builder, a functional warmer
	// positioned at the recorded length, last its hierarchy's counters
	// there, and l2, l3 the builder's fill latencies, which classify fill
	// levels. broken is set while a chunk is being recorded, so an
	// extension that panicked leaves a tape that refuses to extend instead
	// of one recording from the wrong position.
	mu     sync.Mutex
	w      *FunctionalWarmer
	last   tapeCounts
	l2, l3 int
	broken bool

	snap atomic.Pointer[tapeSnap]
}

// tapeSnap is one published length of a tape: full chunks of a word per
// recorded instruction, and cums[j], the hierarchy counters after
// j*tapeStride instructions.
type tapeSnap struct {
	chunks [][]uint64
	cums   []tapeCounts
}

// recorded reports the number of instructions the snapshot holds.
func (s *tapeSnap) recorded() int { return len(s.chunks) * tapeChunk }

// NewTape returns an empty tape over src, recorded with cfg's geometry.
// Only the geometry matters; cfg's latencies just have to classify fill
// levels, which every derived configuration's do.
func NewTape(cfg config.Config, src trace.Source) (*Tape, error) {
	l2, l3, dram := mem.FillLatenciesOf(cfg)
	if !classifiable(l2, l3, dram) {
		return nil, errors.New("uarch: probe tape needs fill-classifiable latencies")
	}
	h, err := mem.NewHierarchy(cfg)
	if err != nil {
		return nil, err
	}
	w, err := newFunctionalWarmer(0, cfg, src, h)
	if err != nil {
		return nil, err
	}
	t := &Tape{w: w, l2: l2, l3: l3}
	t.snap.Store(&tapeSnap{})
	return t, nil
}

// Bytes reports the recorded words' and checkpoints' footprint.
func (t *Tape) Bytes() int {
	s := t.snap.Load()
	return 8*s.recorded() + 8*len(tapeCounts{})*len(s.cums)
}

// window returns the words from instruction pos to the end of its chunk,
// recording the chunk first if needed.
func (t *Tape) window(pos int) []uint64 {
	s := t.snap.Load()
	if pos >= s.recorded() {
		s = t.extend(pos + 1)
	}
	return s.chunks[pos/tapeChunk][pos%tapeChunk:]
}

// extend records whole chunks until the tape holds at least need
// instructions, and returns the new snapshot.
func (t *Tape) extend(need int) *tapeSnap {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.snap.Load()
	if s.recorded() >= need { // lost the race to another extender
		return s
	}
	if t.broken {
		panic("uarch: probe tape abandoned by a failed extension")
	}
	t.broken = true
	chunks, cums := s.chunks, s.cums
	for len(chunks)*tapeChunk < need {
		words := make([]uint64, tapeChunk)
		for i := range words {
			if i%tapeStride == 0 {
				cums = append(cums, t.last)
			}
			in := t.w.next()
			r := t.w.probe(in)
			words[i] = encodeTape(in, r, t.l2, t.l3)
			if r.flags&(probeLine|probeData) != 0 { // otherwise no counter moved
				cur := countsOf(t.w.hier.Stats())
				words[i] |= packDeltas(&t.last, &cur)
				t.last = cur
			}
		}
		chunks = append(chunks, words)
	}
	t.broken = false
	s = &tapeSnap{chunks: chunks, cums: cums}
	t.snap.Store(s)
	return s
}

// HierStats returns the hierarchy counters a live single-core hierarchy
// would hold after the first n instructions of the stream were probed,
// whether by fetch or by fast-forward: the counters of a tape-fed core
// whose Cursor is n.
func (t *Tape) HierStats(n uint64) mem.HierStats {
	if n == 0 {
		return mem.HierStats{}
	}
	s := t.snap.Load()
	f := int(n)
	if f > s.recorded() {
		panic(fmt.Sprintf("uarch: probe tape asked for %d instructions, %d recorded", f, s.recorded()))
	}
	// Sum from the last checkpoint below f (at f itself when f ends the
	// tape); tapeStride divides tapeChunk, so the span is within a chunk.
	j := min(f/tapeStride, len(s.cums)-1)
	acc := s.cums[j]
	from := j * tapeStride
	for _, w := range s.chunks[from/tapeChunk][from%tapeChunk:][:f-from] {
		addDeltas(&acc, w)
	}
	return acc.hierStats()
}

// NewTapeCore builds a single-core simulator that replays t instead of
// probing a memory hierarchy. t must have been recorded over cfg's cache,
// predictor and store-queue geometry; cfg's own fill latencies price the
// recorded fill levels, so the core's Stats — and, for sampled runs, its
// fast-forward observables and SampleResult — are bit-identical to an
// inline core's over the same stream, and t.HierStats(Cursor()) to its
// hierarchy's counters. A configuration whose fill latencies cannot be
// told apart is refused.
func NewTapeCore(cfg config.Config, t *Tape, k Kernel) (*Core, error) {
	if t == nil {
		return nil, errors.New("uarch: nil probe tape")
	}
	l2, l3, dram := mem.FillLatenciesOf(cfg)
	if !classifiable(l2, l3, dram) {
		return nil, errors.New("uarch: configuration cannot price a probe tape's fill levels")
	}
	c, err := newCore(0, cfg, k)
	if err != nil {
		return nil, err
	}
	c.tape = t
	c.fillLat = [4]int32{0, int32(l2), int32(l3), int32(dram)}
	return c, nil
}
