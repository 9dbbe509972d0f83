// Record-once / replay-many trace capture. A Recording materialises the
// deterministic instruction stream of one (Profile, seed, stream) triple
// into compact packed chunks exactly once; any number of Replayers —
// one per sweep cell, across goroutines — then read the same immutable
// snapshot instead of re-rolling the generator's rand stream per cell.
//
// The packed encoding is struct-of-arrays with fixed-width fields: three
// uint64 lanes (PC, Addr, Target), three int16 lanes (Src1, Src2, Dst) and
// one meta byte packing Kind (low 4 bits), Taken (bit 4) and Complex
// (bit 5) — 31 bytes per instruction versus the 40-byte in-memory Inst
// (and 48 bytes before the field reordering; see layout_test.go). The
// lanes live in fixed-size chunks of recChunk instructions.
//
// Recordings extend on demand: the simulator frontend consumes more
// instructions than it commits (squashed wrong-path fetches are discarded,
// and how many depends on the design being swept), so no fixed length is
// ever provably enough. Extension fills whole chunks from the recording's
// generator under a mutex and publishes a fresh immutable snapshot through
// an atomic pointer; readers never lock, and a reader holding an old
// snapshot only touches slots below its own n, so concurrent extension is
// race-free. Growth never copies recorded lanes, and it stops within one
// chunk of the furthest instruction read.
package trace

import (
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"
)

// meta-byte layout for the packed encoding.
const (
	metaKindMask = 0x0f
	metaTaken    = 1 << 4
	metaComplex  = 1 << 5
)

// packInst encodes an instruction's Kind/Taken/Complex into one meta byte.
func packMeta(in Inst) uint8 {
	m := uint8(in.Kind) & metaKindMask
	if in.Taken {
		m |= metaTaken
	}
	if in.Complex {
		m |= metaComplex
	}
	return m
}

// recChunk is the instruction count of one chunk, the unit a recording
// grows by.
const recChunk = 8192

// chunk holds recChunk instructions in the packed struct-of-arrays
// encoding. A chunk's slots are written once, before the snapshot that
// first covers them is published, and never again.
type chunk struct {
	pc, addr, target [recChunk]uint64
	src1, src2, dst  [recChunk]int16
	meta             [recChunk]uint8
}

// chunkBytes is the allocated size of one chunk (31 bytes per slot).
const chunkBytes = int(unsafe.Sizeof(chunk{}))

// inst decodes slot i back into the in-memory representation. The
// round-trip is exact: every Inst field is stored at full width.
func (c *chunk) inst(i int) Inst {
	m := c.meta[i]
	return Inst{
		PC:      c.pc[i],
		Addr:    c.addr[i],
		Target:  c.target[i],
		Src1:    c.src1[i],
		Src2:    c.src2[i],
		Dst:     c.dst[i],
		Kind:    Kind(m & metaKindMask),
		Taken:   m&metaTaken != 0,
		Complex: m&metaComplex != 0,
	}
}

// set packs in into slot i.
func (c *chunk) set(i int, in Inst) {
	c.pc[i], c.addr[i], c.target[i] = in.PC, in.Addr, in.Target
	c.src1[i], c.src2[i], c.dst[i] = in.Src1, in.Src2, in.Dst
	c.meta[i] = packMeta(in)
}

// packed is one immutable snapshot of a recording: its first n
// instructions, in chunks covering at least n slots. Growth fills slots
// past n (in the last chunk or in new ones) and publishes a new snapshot;
// a reader holding an old snapshot only reads slots below its own n, so
// sharing snapshots and chunks across goroutines is safe and growth never
// copies a chunk.
type packed struct {
	n      int
	chunks []*chunk
}

// bytes reports the allocated footprint of the snapshot's chunks.
func (p *packed) bytes() int { return len(p.chunks) * chunkBytes }

// slot returns the chunk holding instruction i, growing the chunk list
// when i is the first slot past it.
func (p *packed) slot(i int) (*chunk, int) {
	if i == len(p.chunks)*recChunk {
		p.chunks = append(p.chunks, new(chunk))
	}
	return p.chunks[i/recChunk], i % recChunk
}

// Recorder incrementally packs instructions into chunks. Record and
// tests build recordings through it.
type Recorder struct {
	p packed
}

// NewRecorder returns a recorder sized for n instructions.
func NewRecorder(n int) *Recorder {
	n = max(n, 0)
	return &Recorder{p: packed{chunks: make([]*chunk, 0, (n+recChunk-1)/recChunk)}}
}

// Append packs one instruction.
func (r *Recorder) Append(in Inst) {
	c, i := r.p.slot(r.p.n)
	c.set(i, in)
	r.p.n++
}

// RecordFrom packs the next n instructions of the source.
func (r *Recorder) RecordFrom(src Source, n int) {
	var buf [256]Inst
	for n > 0 {
		k := min(n, len(buf))
		src.NextBatch(buf[:k])
		for _, in := range buf[:k] {
			r.Append(in)
		}
		n -= k
	}
}

// Len reports the number of packed instructions.
func (r *Recorder) Len() int { return r.p.n }

// Finish seals the recorder into a Recording for the given identity. The
// identity must be the (profile, seed, stream) triple whose generator
// produced the packed stream: on-demand extension past the recorded length
// rebuilds that generator and fast-forwards it to the recorded position.
func (r *Recorder) Finish(prof Profile, seed int64, stream int) *Recording {
	rec := &Recording{prof: prof, seed: seed, stream: stream}
	p := r.p
	rec.snap.Store(&p)
	r.p = packed{} // the recorder is spent; don't alias the sealed chunks
	return rec
}

// Recording is an immutable-snapshot, on-demand-extending packed stream
// shared read-only by any number of Replayers. It is keyed by the
// (Profile, seed, stream) triple that deterministically generates it.
type Recording struct {
	prof   Profile
	seed   int64
	stream int

	// mu serialises extension; gen is the generator positioned exactly at
	// snap.n instructions (nil until the first extension of a recording
	// loaded from a file, in which case it is rebuilt and fast-forwarded).
	mu  sync.Mutex
	gen *Generator

	snap atomic.Pointer[packed]
}

// Record materialises the first n instructions of the (prof, seed, stream)
// generator into a packed recording. The recording extends itself on
// demand when replayed past n, so n is a sizing hint, not a hard limit.
func Record(prof Profile, seed int64, stream int, n int) *Recording {
	n = max(n, 0)
	g := NewGenerator(prof, seed, stream)
	rc := NewRecorder(n)
	rc.RecordFrom(g, n)
	rec := rc.Finish(prof, seed, stream)
	rec.gen = g // already positioned at n
	return rec
}

// Profile returns the recorded stream's profile.
func (r *Recording) Profile() Profile { return r.prof }

// Seed returns the recorded stream's generator seed.
func (r *Recording) Seed() int64 { return r.seed }

// Stream returns the recorded stream's id (the generator's threadID).
func (r *Recording) Stream() int { return r.stream }

// Len reports the currently materialised length.
func (r *Recording) Len() int { return r.snap.Load().n }

// Bytes reports the memory the current snapshot's chunks occupy: 31 bytes
// per slot of every allocated chunk, materialised or not, excluding the
// chunk list itself.
func (r *Recording) Bytes() int { return r.snap.Load().bytes() }

// At returns instruction i, extending the recording if needed.
func (r *Recording) At(i int) Inst {
	var one [1]Inst
	r.read(i, one[:])
	return one[0]
}

// read copies instructions [pos, pos+len(dst)) into dst, extending the
// recording when the window reaches past the current snapshot. The
// lock-free fast path is a snapshot load plus seven lane reads per
// instruction.
func (r *Recording) read(pos int, dst []Inst) {
	if len(dst) == 0 {
		return
	}
	if pos < 0 {
		panic(fmt.Sprintf("trace: negative replay position %d", pos))
	}
	p := r.snap.Load()
	if pos+len(dst) > p.n {
		p = r.extend(pos + len(dst))
	}
	for len(dst) > 0 {
		c, off := p.chunks[pos/recChunk], pos%recChunk
		k := min(len(dst), recChunk-off)
		for i := range dst[:k] {
			dst[i] = c.inst(off + i)
		}
		dst, pos = dst[k:], pos+k
	}
}

// extend grows the recording to at least need instructions and returns the
// new snapshot. Growth fills whole chunks, so it never copies recorded
// instructions and leaves less than one chunk unread past need.
func (r *Recording) extend(need int) *packed {
	r.mu.Lock()
	defer r.mu.Unlock()
	p := r.snap.Load()
	if p.n >= need { // lost the race to another extender
		return p
	}
	if r.gen == nil {
		// File-loaded recording: rebuild the generator and fast-forward it
		// to the recorded position. The generator is deterministic, so the
		// skipped prefix equals the recorded one by construction.
		g := NewGenerator(r.prof, r.seed, r.stream)
		var skip [256]Inst
		for done := 0; done < p.n; {
			k := min(p.n-done, len(skip))
			g.NextBatch(skip[:k])
			done += k
		}
		r.gen = g
	}
	np := &packed{n: p.n, chunks: p.chunks}
	target := (need + recChunk - 1) / recChunk * recChunk
	var buf [256]Inst
	for np.n < target {
		k := min(target-np.n, len(buf))
		r.gen.NextBatch(buf[:k])
		for _, in := range buf[:k] {
			c, i := np.slot(np.n)
			c.set(i, in)
			np.n++
		}
	}
	r.snap.Store(np)
	return np
}

// Replayer replays a Recording from the start. It implements Source and is
// bit-identical to a fresh Generator over the recording's identity triple.
// A Replayer is single-goroutine state (one per simulated core), but any
// number of Replayers may share one Recording concurrently.
type Replayer struct {
	rec *Recording
	pos int
}

// NewReplayer returns a replayer positioned at the recording's start.
func NewReplayer(rec *Recording) *Replayer {
	return &Replayer{rec: rec}
}

// Profile returns the recorded stream's profile.
func (r *Replayer) Profile() Profile { return r.rec.prof }

// Pos reports the number of instructions replayed so far.
func (r *Replayer) Pos() int { return r.pos }

// Next replays the next instruction.
func (r *Replayer) Next() Inst {
	var one [1]Inst
	r.NextBatch(one[:])
	return one[0]
}

// NextBatch replays the next len(dst) instructions. The recording extends
// itself on demand, so the batch is always complete.
func (r *Replayer) NextBatch(dst []Inst) int {
	r.rec.read(r.pos, dst)
	r.pos += len(dst)
	return len(dst)
}
