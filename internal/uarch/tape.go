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
// fast-forwarding: every tapeStride words the tape checkpoints running
// sums of the observables sampling regresses on, kept in fill levels, so a
// tape-fed core skips a stretch by moving its cursor and differencing two
// checkpoints (skipTape) — full and sampled cells share one tape, and a
// skip costs at most two partial strides whatever its length.
//
// Words are recorded on demand, like a trace.Recording: a core that reads
// past the recorded length extends the tape by whole chunks under a mutex,
// and the chunk list is published through an atomic pointer, so readers
// never lock. A chunk is filled before it is published and never written
// again, and fixed-size chunks keep the tape at 8 bytes per recorded
// instruction, with no growth slack or copying, plus one tapeSums
// checkpoint per tapeStride words.

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"

	"vertical3d/internal/config"
	"vertical3d/internal/mem"
	"vertical3d/internal/trace"
)

// Tape word layout, low bits first: the kind, the probeResult flags, the
// complex bit, the three registers stored plus one (0 means "none", -1),
// and the IL1 and data fill levels (0 for a hit or no probe, then 1 = L2,
// 2 = L3, 3 = DRAM). The hierarchy counter deltas of the instruction's
// probes follow from tpCountShift in tapeCounts order, 1 bit wide for each
// IL1 counter, 2 for each DL1 counter and 3 for each L2 and L3 counter —
// 63 bits in all. One instruction makes at most one IL1 access (the line
// change), two DL1 accesses (a stream prefetch and the access itself),
// four L2 accesses (the fetch fill, the prefetch, a DL1 victim writeback
// and the data fill) and five L3 accesses (a fill and an L2 victim
// writeback per L2 fill, plus the prefetch); misses and writebacks are
// bounded by accesses. Tape.deltas packs the fields and tapeSums.add
// unpacks them.
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

const (
	// tapeChunk is the instruction count of one chunk of words, the unit
	// the tape extends by.
	tapeChunk = 8192
	// tapeStride is the distance between checkpoints, which bounds the
	// words HierStats and skipTape sum. It divides tapeChunk. At 2048 a
	// 176-byte checkpoint costs 1.1% of the words' bytes, and a skip's two
	// partial strides take ~30 µs (BenchmarkTapeSkip, 2-vCPU host).
	tapeStride = 2048
)

// tapeCounts are the single-core hierarchy counters in packing order:
// accesses, misses and writebacks of IL1, DL1, L2 and L3.
type tapeCounts [12]uint64

// hierStats converts the counters back, with a single-core hierarchy's
// DRAM accesses (its L3 misses).
func (c *tapeCounts) hierStats() mem.HierStats {
	level := func(i int) mem.CacheStats {
		return mem.CacheStats{Accesses: c[i], Misses: c[i+1], Writebacks: c[i+2]}
	}
	return mem.HierStats{IL1: level(0), DL1: level(3), L2: level(6), L3: level(9), DRAMAccesses: c[10]}
}

// tapeSums are the running sums of a tape's words from its start: the
// hierarchy counters, and the observables skipTape returns with fills
// counted per level (L2, L3, DRAM) instead of priced, so that one sum
// serves every design's latencies. missRun is the miss-run state after
// the last word summed. It is a pure function of the words, because a
// core's dataMissRun follows the same data probes from the same start
// (see Core.dataProbe), so a checkpoint carries it and a skip starting
// there needs no state from the core.
type tapeSums struct {
	counts                      tapeCounts
	fetchFills, dataFills       [3]uint64
	squashes, longOps, missRuns uint64
	missRun                     bool
}

// add sums words into s, in tape order, with WarmObs.observe's accounting
// over fill levels instead of latencies (a level is nonzero exactly when
// the priced extra latency is). It is the one loop behind every checkpoint
// and every partial stride, so it keeps the sums in locals.
func (s *tapeSums) add(words []uint64) {
	counts, ff, df := s.counts, s.fetchFills, s.dataFills
	sq, lo, runs, run := s.squashes, s.longOps, s.missRuns, s.missRun
	for _, w := range words {
		if d := w >> tpCountShift; d != 0 {
			counts[0] += d & 1
			counts[1] += d >> 1 & 1
			counts[2] += d >> 2 & 1
			counts[3] += d >> 3 & 3
			counts[4] += d >> 5 & 3
			counts[5] += d >> 7 & 3
			counts[6] += d >> 9 & 7
			counts[7] += d >> 12 & 7
			counts[8] += d >> 15 & 7
			counts[9] += d >> 18 & 7
			counts[10] += d >> 21 & 7
			counts[11] += d >> 24 & 7
		}
		if l := w >> tpFetchShift & 3; l != 0 {
			ff[l-1]++
		}
		f := w >> tpFlagsShift
		if f&probeMispred != 0 {
			sq++
		}
		if f&probeBTBMiss != 0 {
			sq++
		}
		if f&probeData != 0 {
			l := w >> tpDataShift & 3
			if l != 0 {
				df[l-1]++
				if !run {
					runs++
				}
			}
			run = l != 0
		}
		if k := trace.Kind(w & tpKindMask); k == trace.Div || k == trace.FPDiv {
			lo++
		}
	}
	s.counts, s.fetchFills, s.dataFills = counts, ff, df
	s.squashes, s.longOps, s.missRuns, s.missRun = sq, lo, runs, run
}

// since returns the observables of the n words between sums from and s,
// fills priced at the latencies lat of fill levels 0-3.
func (s *tapeSums) since(from *tapeSums, n uint64, lat *[4]int32) WarmObs {
	o := WarmObs{
		Instrs:      n,
		Mispredicts: s.squashes - from.squashes,
		MissRuns:    s.missRuns - from.missRuns,
		LongOps:     s.longOps - from.longOps,
	}
	for l := range s.fetchFills {
		o.ExtraFetch += (s.fetchFills[l] - from.fetchFills[l]) * uint64(lat[l+1])
		o.ExtraData += (s.dataFills[l] - from.dataFills[l]) * uint64(lat[l+1])
	}
	return o
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
// latencies, the recorded squash triggers, the miss runs and the
// divide-class count — as the difference of the tape's sums at both ends,
// leaving the frontend's dataMissRun where the stretch ends. The fetch
// window is dropped, so fetch resumes at the new cursor.
func (c *Core) skipTape(n uint64) WarmObs {
	from := c.Cursor()
	s := c.tape.holding(int(from + n))
	a, b := s.sums(from), s.sums(from+n)
	c.dataMissRun = b.missRun
	c.tapeBuf, c.tapePos = nil, 0
	return b.since(&a, n, &c.fillLat)
}

// Tape is the shared probe recording of one instruction stream over one
// cache, predictor and store-queue geometry. It is safe for concurrent
// use.
type Tape struct {
	// mu serialises extension; w is the builder, a functional warmer
	// positioned at the recorded length, ctrs its hierarchy's live
	// counters in tapeCounts order and last their values as last read, and
	// l2, l3 the builder's fill latencies, which classify fill levels.
	// broken is set while a chunk is being recorded, so an extension that
	// panicked leaves a tape that refuses to extend instead of one
	// recording from the wrong position.
	mu     sync.Mutex
	w      *FunctionalWarmer
	ctrs   [12]*uint64
	last   tapeCounts
	l2, l3 int
	broken bool

	snap atomic.Pointer[tapeSnap]
}

// tapeSnap is one published length of a tape: full chunks of a word per
// recorded instruction, and cums[j], the sums of the first j*tapeStride
// words, from cums[0] (all zero) to the recorded end.
type tapeSnap struct {
	chunks [][]uint64
	cums   []tapeSums
}

// recorded reports the number of instructions the snapshot holds.
func (s *tapeSnap) recorded() int { return len(s.chunks) * tapeChunk }

// sums returns the sums of the first n recorded words: the checkpoint at
// or below n plus the words after it, fewer than tapeStride and, as
// tapeStride divides tapeChunk, within one chunk. It is the one prefix sum
// behind HierStats and skipTape.
func (s *tapeSnap) sums(n uint64) tapeSums {
	if n > uint64(s.recorded()) {
		panic(fmt.Sprintf("uarch: probe tape asked for %d instructions, %d recorded", n, s.recorded()))
	}
	j := n / tapeStride
	acc := s.cums[j]
	if from := j * tapeStride; n > from {
		acc.add(s.chunks[from/tapeChunk][from%tapeChunk:][:n-from])
	}
	return acc
}

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
	for i, cs := range h.LevelStats() {
		t.ctrs[3*i], t.ctrs[3*i+1], t.ctrs[3*i+2] = &cs.Accesses, &cs.Misses, &cs.Writebacks
	}
	t.snap.Store(&tapeSnap{cums: []tapeSums{{}}})
	return t, nil
}

// Bytes reports the recorded words' and checkpoints' footprint.
func (t *Tape) Bytes() int {
	s := t.snap.Load()
	return 8*s.recorded() + int(unsafe.Sizeof(tapeSums{}))*len(s.cums)
}

// window returns the words from instruction pos to the end of its chunk,
// recording the chunk first if needed.
func (t *Tape) window(pos int) []uint64 {
	return t.holding(pos + 1).chunks[pos/tapeChunk][pos%tapeChunk:]
}

// holding returns a snapshot of at least n recorded instructions,
// recording them first if needed.
func (t *Tape) holding(n int) *tapeSnap {
	if s := t.snap.Load(); s.recorded() >= n {
		return s
	}
	return t.extend(n)
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
			in := t.w.next()
			r := t.w.probe(in)
			w := encodeTape(in, r, t.l2, t.l3)
			if r.flags&(probeLine|probeData) != 0 { // otherwise no counter moved
				w |= t.deltas()
			}
			words[i] = w
			if i%tapeStride == tapeStride-1 {
				sum := cums[len(cums)-1]
				sum.add(words[i+1-tapeStride : i+1])
				cums = append(cums, sum)
			}
		}
		chunks = append(chunks, words)
	}
	t.broken = false
	s = &tapeSnap{chunks: chunks, cums: cums}
	t.snap.Store(s)
	return s
}

// deltas reads the builder hierarchy's counters and packs how far each
// moved since the last read into a word's counter fields, at the offsets
// tapeSums.add reads them from.
func (t *Tape) deltas() uint64 {
	var d tapeCounts
	for i, p := range &t.ctrs {
		d[i] = *p - t.last[i]
		t.last[i] = *p
	}
	if d[0]|d[1]|d[2] > 1 || d[3]|d[4]|d[5] > 3 || d[6]|d[7]|d[8]|d[9]|d[10]|d[11] > 7 {
		panic(fmt.Sprintf("uarch: hierarchy counters moved by %v in one instruction", d))
	}
	return (d[0] | d[1]<<1 | d[2]<<2 | d[3]<<3 | d[4]<<5 | d[5]<<7 |
		d[6]<<9 | d[7]<<12 | d[8]<<15 | d[9]<<18 | d[10]<<21 | d[11]<<24) << tpCountShift
}

// HierStats returns the hierarchy counters a live single-core hierarchy
// would hold after the first n instructions of the stream were probed,
// whether by fetch or by fast-forward: the counters of a tape-fed core
// whose Cursor is n.
func (t *Tape) HierStats(n uint64) mem.HierStats {
	s := t.snap.Load().sums(n)
	return s.counts.hierStats()
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
