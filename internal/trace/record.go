// Record-once / replay-many trace capture. A Recording materialises the
// deterministic instruction stream of one (Profile, seed, stream) triple
// into compact chunks exactly once; any number of Replayers — one per
// sweep cell, across goroutines — then read the same immutable snapshot
// instead of re-rolling the generator's rand stream per cell.
//
// The chunk codec stores one uint32 control word per slot: Kind (bits
// 0–3), Taken, Complex, the three registers stored +1 in 7 bits each, and
// presence bits for an explicit PC, Addr and Target. A slot's PC is
// implied when it equals the previous slot's successor (a taken branch's
// target, otherwise PC+4), so only branch sites and code wrap store one.
// Addr and Target are stored only where nonzero. The three side lanes
// hold those uint64 words in slot order. A slot whose fields do not fit
// the control word (a register outside [-1, 126], a Kind above 15) is an
// escape and is stored whole in the chunk's escape list, so any Inst
// round-trips. The synthetic workloads cost 8–10 bytes per instruction
// (TestRecordingBytesPerInstr), against 40 for the in-memory Inst.
//
// Every markEvery slots a chunk checkpoints its side-lane offsets and the
// implied PC, so random access (At) decodes at most markEvery-1 slots it
// does not return. A Replayer keeps a sequential decode cursor and never
// rescans.
//
// Recordings extend on demand: the simulator frontend consumes more
// instructions than it commits (squashed wrong-path fetches are discarded,
// and how many depends on the design being swept), so no fixed length is
// ever provably enough. Extension fills whole chunks from the recording's
// generator under a mutex and publishes a fresh immutable snapshot through
// an atomic pointer; readers never lock. A chunk is sealed before the
// snapshot that covers it is published and never written again: extension
// past a partly filled chunk fills a copy of it. Growth never copies a
// full chunk, and it stops within one chunk of the furthest instruction
// read.
package trace

import (
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Control-word layout.
const (
	ctlKindMask = 0x0f
	ctlTaken    = 1 << 4
	ctlComplex  = 1 << 5
	ctlSrc1     = 6  // shift of Src1+1
	ctlSrc2     = 13 // shift of Src2+1
	ctlDst      = 20 // shift of Dst+1
	ctlRegMask  = 0x7f
	ctlPC       = 1 << 27 // explicit PC in the pc lane
	ctlAddr     = 1 << 28 // Addr in the addr lane
	ctlTarget   = 1 << 29 // Target in the target lane
	ctlEscape   = 1 << 30 // the whole slot is in the escape list
)

// regFits reports whether a register survives the control word's +1
// 7-bit encoding.
func regFits(r int16) bool { return r >= -1 && r < ctlRegMask }

// pack encodes in's Kind, flags and registers into a control word, and
// reports false when they do not fit (the slot must escape).
func pack(in Inst) (uint32, bool) {
	if in.Kind > ctlKindMask || !regFits(in.Src1) || !regFits(in.Src2) || !regFits(in.Dst) {
		return ctlEscape, false
	}
	w := uint32(in.Kind) |
		uint32(in.Src1+1)<<ctlSrc1 | uint32(in.Src2+1)<<ctlSrc2 | uint32(in.Dst+1)<<ctlDst
	if in.Taken {
		w |= ctlTaken
	}
	if in.Complex {
		w |= ctlComplex
	}
	return w, true
}

// unpack decodes a control word's Kind, flags and registers into d,
// field by field (a whole-struct store costs the replay loop a copy).
func unpack(d *Inst, w uint32) {
	d.Src1 = int16(w>>ctlSrc1&ctlRegMask) - 1
	d.Src2 = int16(w>>ctlSrc2&ctlRegMask) - 1
	d.Dst = int16(w>>ctlDst&ctlRegMask) - 1
	d.Kind, d.Taken, d.Complex = Kind(w&ctlKindMask), w&ctlTaken != 0, w&ctlComplex != 0
}

// successor is the PC a slot after in is implied to have.
func successor(in *Inst) uint64 {
	if in.Taken {
		return in.Target
	}
	return in.PC + 4
}

const (
	// recChunk is the instruction count of one chunk, the unit a
	// recording grows by.
	recChunk = 8192
	// markEvery is the checkpoint spacing within a chunk.
	markEvery = 256
)

// mark checkpoints a chunk at a multiple of markEvery: the side-lane
// offsets of that slot and its implied PC.
type mark struct {
	pc, addr, target, esc uint16
	next                  uint64
}

// chunk holds up to recChunk encoded instructions.
type chunk struct {
	ctl              [recChunk]uint32
	marks            [recChunk / markEvery]mark
	pc, addr, target []uint64
	esc              []Inst
}

// bytes reports the chunk's allocated footprint.
func (c *chunk) bytes() int {
	return int(unsafe.Sizeof(*c)) + 8*(cap(c.pc)+cap(c.addr)+cap(c.target)) + int(unsafe.Sizeof(Inst{}))*cap(c.esc)
}

// cursor is a decode position: the absolute slot it decodes next, the
// side-lane offsets in that slot's chunk, and that slot's implied PC.
type cursor struct {
	pos                   int
	pc, addr, target, esc int
	next                  uint64
}

// decode fills dst from slots [off, off+len(dst)) of the chunk, which
// must all be sealed, advancing the cursor's offsets and implied PC. The
// lane reads are branch-free: each lane's capacity ends in a zero pad
// word, so a slot reads its lanes' next words whether or not it owns
// them, masks what it does not own, and advances each offset by its
// presence bit.
func (c *chunk) decode(cur *cursor, off int, dst []Inst) {
	pcs, addrs, targets := c.pc[:cap(c.pc)], c.addr[:cap(c.addr)], c.target[:cap(c.target)]
	ip, ia, it, next := cur.pc, cur.addr, cur.target, cur.next
	for i, w := range c.ctl[off : off+len(dst)] {
		d := &dst[i]
		if w&ctlEscape != 0 {
			*d = c.esc[cur.esc]
			cur.esc++
			next = successor(d)
			continue
		}
		hp, ha, ht := uint64(w/ctlPC&1), uint64(w/ctlAddr&1), uint64(w/ctlTarget&1)
		pc := pcs[ip]&-hp | next&^-hp
		addr := addrs[ia] & -ha
		target := targets[it] & -ht
		ip, ia, it = ip+int(hp), ia+int(ha), it+int(ht)
		d.PC, d.Addr, d.Target = pc, addr, target
		unpack(d, w)
		taken := uint64(w / ctlTaken & 1)
		next = target&-taken | (pc+4)&^-taken
	}
	cur.pc, cur.addr, cur.target, cur.next = ip, ia, it, next
}

// packed is one immutable snapshot of a recording: its first n
// instructions in sealed chunks. Snapshots share chunks, and a reader
// only reads slots below its own snapshot's n.
type packed struct {
	n      int
	chunks []*chunk
}

// bytes reports the allocated footprint of the snapshot's chunks.
func (p *packed) bytes() int {
	total := 0
	for _, c := range p.chunks {
		total += c.bytes()
	}
	return total
}

// seek returns a cursor positioned at slot pos < p.n, decoding forward
// from the checkpoint at or below it.
func (p *packed) seek(pos int) cursor {
	m := p.chunks[pos/recChunk].marks[pos%recChunk/markEvery]
	cur := cursor{
		pos: pos &^ (markEvery - 1),
		pc:  int(m.pc), addr: int(m.addr), target: int(m.target), esc: int(m.esc),
		next: m.next,
	}
	var skip [32]Inst
	for cur.pos < pos {
		p.decode(&cur, skip[:min(pos-cur.pos, len(skip))])
	}
	return cur
}

// decode fills dst from the cursor's position onward, which must stay
// below p.n, and advances the cursor.
func (p *packed) decode(cur *cursor, dst []Inst) {
	for len(dst) > 0 {
		off := cur.pos % recChunk
		if off == 0 {
			cur.pc, cur.addr, cur.target, cur.esc = 0, 0, 0, 0
		}
		k := min(len(dst), recChunk-off)
		p.chunks[cur.pos/recChunk].decode(cur, off, dst[:k])
		dst, cur.pos = dst[k:], cur.pos+k
	}
}

// builder encodes instructions into chunks. The open chunk's side lanes
// accumulate in reusable scratch slices and are copied into the chunk,
// at their exact length, when it is sealed.
type builder struct {
	p                packed
	open             *chunk // the chunk being filled; nil when all are sealed
	pc, addr, target []uint64
	esc              []Inst
	next             uint64 // implied PC of slot p.n
}

// add encodes one instruction into slot p.n.
func (b *builder) add(in Inst) {
	off := b.p.n % recChunk
	if b.open == nil {
		b.reopen(off)
	}
	c := b.open
	if off%markEvery == 0 {
		c.marks[off/markEvery] = mark{
			pc: uint16(len(b.pc)), addr: uint16(len(b.addr)), target: uint16(len(b.target)), esc: uint16(len(b.esc)),
			next: b.next,
		}
	}
	w, ok := pack(in)
	if !ok {
		b.esc = append(b.esc, in)
	} else {
		if in.PC != b.next {
			w |= ctlPC
			b.pc = append(b.pc, in.PC)
		}
		if in.Addr != 0 {
			w |= ctlAddr
			b.addr = append(b.addr, in.Addr)
		}
		if in.Target != 0 {
			w |= ctlTarget
			b.target = append(b.target, in.Target)
		}
	}
	c.ctl[off] = w
	b.next = successor(&in)
	b.p.n++
	if off == recChunk-1 {
		b.seal()
	}
}

// reopen starts filling at chunk offset off: a fresh chunk at a chunk
// boundary, else a copy of the sealed, published partial last chunk with
// its side lanes back in scratch.
func (b *builder) reopen(off int) {
	c := new(chunk)
	b.pc, b.addr, b.target, b.esc = b.pc[:0], b.addr[:0], b.target[:0], b.esc[:0]
	if off == 0 {
		b.p.chunks = append(b.p.chunks, c)
	} else {
		last := len(b.p.chunks) - 1
		sealed := b.p.chunks[last]
		c.ctl, c.marks = sealed.ctl, sealed.marks
		b.pc = append(b.pc, sealed.pc...)
		b.addr = append(b.addr, sealed.addr...)
		b.target = append(b.target, sealed.target...)
		b.esc = append(b.esc, sealed.esc...)
		// Published snapshots share the chunk list: replace the last
		// entry in a copy.
		b.p.chunks = append(b.p.chunks[:last:last], c)
	}
	b.open = c
}

// seal copies the open chunk's side lanes out of scratch; the chunk is
// never written again.
func (b *builder) seal() {
	if c := b.open; c != nil {
		c.pc, c.addr, c.target = padded(b.pc), padded(b.addr), padded(b.target)
		if len(b.esc) > 0 {
			c.esc = append(make([]Inst, 0, len(b.esc)), b.esc...)
		}
		b.open = nil
	}
}

// padded copies a side lane at its exact length, with capacity for the
// zero pad word decode reads past the lane's last entry.
func padded(s []uint64) []uint64 {
	return append(make([]uint64, 0, len(s)+1), s...)
}

// publish seals the open chunk and returns a snapshot of everything
// encoded so far.
func (b *builder) publish() *packed {
	b.seal()
	p := b.p
	return &p
}

// Recorder incrementally encodes arbitrary instructions into chunks.
type Recorder struct {
	b builder
}

// NewRecorder returns a recorder sized for n instructions.
func NewRecorder(n int) *Recorder {
	n = max(n, 0)
	return &Recorder{b: builder{p: packed{chunks: make([]*chunk, 0, (n+recChunk-1)/recChunk)}}}
}

// Append encodes one instruction.
func (r *Recorder) Append(in Inst) { r.b.add(in) }

// Len reports the number of encoded instructions.
func (r *Recorder) Len() int { return r.b.p.n }

// Finish seals the recorder into a Recording for the given identity. The
// identity must be the (profile, seed, stream) triple whose generator
// produced the encoded stream: on-demand extension past the recorded
// length rebuilds that generator and fast-forwards it to the recorded
// position.
func (r *Recorder) Finish(prof Profile, seed int64, stream int) *Recording {
	rec := &Recording{prof: prof, seed: seed, stream: stream}
	rec.snap.Store(r.b.publish())
	rec.b = r.b
	r.b = builder{} // the recorder is spent; the recording owns its builder
	return rec
}

// Recording is an immutable-snapshot, on-demand-extending encoded stream
// shared read-only by any number of Replayers. It is keyed by the
// (Profile, seed, stream) triple that deterministically generates it.
type Recording struct {
	prof   Profile
	seed   int64
	stream int

	// mu serialises extension. b continues the encoding, and gen is the
	// generator positioned exactly at b.p.n instructions (nil until the
	// first extension of a recording a Recorder built, in which case it is
	// rebuilt and fast-forwarded).
	mu  sync.Mutex
	b   builder
	gen *Generator

	snap atomic.Pointer[packed]
}

// Record materialises the first n instructions of the (prof, seed, stream)
// generator into a recording. The recording extends itself on demand when
// replayed past n, so n is a sizing hint, not a hard limit.
func Record(prof Profile, seed int64, stream int, n int) *Recording {
	rec := &Recording{prof: prof, seed: seed, stream: stream, gen: NewGenerator(prof, seed, stream)}
	rec.fill(n)
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

// Bytes reports the memory the current snapshot's chunks occupy: every
// allocated chunk's control words and checkpoints, materialised or not,
// plus its side lanes, excluding the chunk list itself. The synthetic
// workloads cost 8–10 bytes per instruction.
func (r *Recording) Bytes() int { return r.snap.Load().bytes() }

// At returns instruction i, extending the recording if needed.
func (r *Recording) At(i int) Inst {
	if i < 0 {
		panic(fmt.Sprintf("trace: negative replay position %d", i))
	}
	p := r.covering(i + 1)
	cur := p.seek(i)
	var one [1]Inst
	p.decode(&cur, one[:])
	return one[0]
}

// covering returns a snapshot of at least need instructions, extending
// the recording when the current one is shorter. The fast path is one
// atomic load.
func (r *Recording) covering(need int) *packed {
	if p := r.snap.Load(); p.n >= need {
		return p
	}
	return r.extend(need)
}

// extend grows the recording to at least need instructions and returns the
// new snapshot. Growth fills whole chunks, so it leaves less than one
// chunk unread past need.
func (r *Recording) extend(need int) *packed {
	r.mu.Lock()
	defer r.mu.Unlock()
	if p := r.snap.Load(); p.n >= need { // lost the race to another extender
		return p
	}
	if r.gen == nil {
		// Recorder-built recording: rebuild the generator and fast-forward
		// it to the recorded position. The generator is deterministic, so
		// the skipped prefix equals the recorded one by construction.
		r.gen = NewGenerator(r.prof, r.seed, r.stream)
		r.gen.NextBatch(make([]Inst, r.b.p.n))
	}
	return r.fill((need + recChunk - 1) / recChunk * recChunk)
}

// fill encodes the generator's next instructions until the recording
// holds n, and publishes the new snapshot. The caller holds mu or owns
// the recording.
func (r *Recording) fill(n int) *packed {
	var buf [256]Inst
	for r.b.p.n < n {
		k := min(n-r.b.p.n, len(buf))
		r.gen.NextBatch(buf[:k])
		for _, in := range buf[:k] {
			r.b.add(in)
		}
	}
	p := r.b.publish()
	r.snap.Store(p)
	return p
}

// Replayer replays a Recording from the start. It implements Source and is
// bit-identical to a fresh Generator over the recording's identity triple.
// A Replayer is single-goroutine state (one per simulated core), but any
// number of Replayers may share one Recording concurrently.
type Replayer struct {
	rec *Recording
	cur cursor
}

// NewReplayer returns a replayer positioned at the recording's start.
func NewReplayer(rec *Recording) *Replayer {
	return &Replayer{rec: rec}
}

// Profile returns the recorded stream's profile.
func (r *Replayer) Profile() Profile { return r.rec.prof }

// Pos reports the number of instructions replayed so far.
func (r *Replayer) Pos() int { return r.cur.pos }

// Next replays the next instruction.
func (r *Replayer) Next() Inst {
	var one [1]Inst
	r.NextBatch(one[:])
	return one[0]
}

// NextBatch replays the next len(dst) instructions. The recording extends
// itself on demand, so the batch is always complete.
func (r *Replayer) NextBatch(dst []Inst) int {
	if len(dst) > 0 {
		r.rec.covering(r.cur.pos+len(dst)).decode(&r.cur, dst)
	}
	return len(dst)
}
