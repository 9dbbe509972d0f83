package uarch

import (
	"math"
	"math/bits"

	"vertical3d/internal/trace"
)

// This file is the event-driven simulation kernel. It replaces the
// reference kernel's per-cycle O(ROBSize) issue scan with three fixed
// scheduling structures, indexed by ROB slot and by cycle:
//
//   - consumer sets (cons): a dispatching instruction sets its bit in the
//     set of each in-flight producer; when the producer issues and its
//     doneAt becomes known, it walks and clears its set, so ready() is
//     never re-polled;
//   - a wake wheel (wheel): a hashed timing wheel of cycle buckets, each an
//     intrusive list threaded through the ROB slots due on that bucket's
//     cycles, drained one bucket per cycle into
//   - a ready set (ready): a bitset over ROB slots that issue walks from
//     the ROB head, so it touches only entries that are actually ready, in
//     oldest-first program order — the same selection the scan makes;
//
// and it reads memory latencies from the shared fetch-time probe
// (Core.memLatency), so issue performs no hierarchy access at all. Run
// skips idle cycles: when no stage can commit, issue, dispatch or fetch,
// now jumps to the next event time with batched Cycles/stall accounting.
//
// Every structure is keyed by slot and holds only live entries: a squash
// clears each popped slot from all three (unschedule), and resetPipeline
// clears them whole, so nothing is validated against a sequence number
// when it is next touched.
//
// The differential oracle (oracle_test.go) checks bit-identical Stats and
// HierStats against the reference kernel for every workload profile.

// wheelSize is the number of cycle buckets on the wake wheel, a power of
// two. It bounds nothing: a wakeup due more than wheelSize cycles ahead
// waits in its bucket for as many laps as it needs. It only sets how often
// such an entry is passed over, and the occupancy bitmap's length.
const (
	wheelSize  = 512
	wheelMask  = wheelSize - 1
	wheelWords = wheelSize / 64
)

// wakeLink is a ROB slot's membership of the wake wheel: the cycle it is
// due (0 when the slot is on no bucket; every wakeup is due at cycle 1 or
// later) and its neighbours on the bucket's list (-1 at either end).
type wakeLink struct {
	at         int64
	next, prev int32
}

// eventSched is the event kernel's scheduling state. It is sized once by
// newEventSched and never grows; under the reference kernel it stays
// empty.
type eventSched struct {
	// ready holds one bit per ROB slot: a waiting entry whose operands are
	// available now. Port-conflicted entries stay set until they issue.
	// nready counts the set bits.
	ready  []uint64
	nready int
	// cons holds one consumer set per ROB slot, setWords words each: the
	// waiting entries to notify when the producer in that slot issues.
	cons     []uint64
	setWords int
	// wheel[b] heads the list of slots due on cycles ≡ b (mod wheelSize);
	// it is meaningful only while wheelOcc has bit b set. wake holds each
	// slot's list membership.
	wheel    [wheelSize]int32
	wheelOcc [wheelWords]uint64
	wake     []wakeLink
}

// newEventSched sizes the scheduling state for a ROB of robSize slots.
func newEventSched(robSize int) eventSched {
	w := (robSize + 63) / 64
	return eventSched{
		ready:    make([]uint64, w),
		cons:     make([]uint64, robSize*w),
		setWords: w,
		wake:     make([]wakeLink, robSize),
	}
}

// reset empties every structure, as when the whole ROB is popped.
func (s *eventSched) reset() {
	clear(s.ready)
	s.nready = 0
	clear(s.cons)
	clear(s.wheelOcc[:])
	clear(s.wake)
}

// consumers returns the consumer set of the producer in slot.
func (s *eventSched) consumers(slot int) []uint64 {
	return s.cons[slot*s.setWords : (slot+1)*s.setWords]
}

// schedule puts slot on the wheel bucket of cycle at (≥ 1), at the head of
// its list.
func (s *eventSched) schedule(slot int32, at int64) {
	b := int(at) & wheelMask
	w := &s.wake[slot]
	w.at, w.prev = at, -1
	if bit := uint64(1) << (b & 63); s.wheelOcc[b>>6]&bit == 0 {
		s.wheelOcc[b>>6] |= bit
		w.next = -1
	} else {
		w.next = s.wheel[b]
		s.wake[w.next].prev = slot
	}
	s.wheel[b] = slot
}

// unlink takes slot off its wheel bucket.
func (s *eventSched) unlink(slot int32) {
	w := &s.wake[slot]
	b := int(w.at) & wheelMask
	if w.prev >= 0 {
		s.wake[w.prev].next = w.next
	} else if w.next >= 0 {
		s.wheel[b] = w.next
	} else {
		s.wheelOcc[b>>6] &^= 1 << (b & 63)
	}
	if w.next >= 0 {
		s.wake[w.next].prev = w.prev
	}
	w.at = 0
}

// drain moves the slots due at cycle now from its bucket into the ready
// set. Slots on the bucket for a later lap are relinked as its new list.
func (s *eventSched) drain(now int64) {
	b := int(now) & wheelMask
	bit := uint64(1) << (b & 63)
	if s.wheelOcc[b>>6]&bit == 0 {
		return
	}
	kept := int32(-1)
	for slot := s.wheel[b]; slot >= 0; {
		w := &s.wake[slot]
		next := w.next
		if w.at <= now {
			w.at = 0
			s.ready[slot>>6] |= 1 << (slot & 63)
			s.nready++
		} else {
			w.prev, w.next = -1, kept
			if kept >= 0 {
				s.wake[kept].prev = slot
			}
			kept = slot
		}
		slot = next
	}
	if kept < 0 {
		s.wheelOcc[b>>6] &^= bit
	} else {
		s.wheel[b] = kept
	}
}

// nextWake returns a lower bound on the earliest pending wakeup after now:
// the first cycle past now whose bucket is occupied. The bucket may hold
// only later-lap entries, which makes the bound early, never late.
func (s *eventSched) nextWake(now int64) (int64, bool) {
	start := int(now+1) & wheelMask
	sw, sb := start>>6, uint(start&63)
	for i := 0; i <= wheelWords; i++ {
		wi := (sw + i) & (wheelWords - 1)
		word := s.wheelOcc[wi]
		switch i {
		case 0:
			word &= ^uint64(0) << sb
		case wheelWords:
			word &= 1<<sb - 1
		}
		if word != 0 {
			b := wi<<6 | bits.TrailingZeros64(word)
			return now + 1 + int64((b-start)&wheelMask), true
		}
	}
	return 0, false
}

// registerDeps records the freshly dispatched entry's producer
// dependencies. Entries with no unresolved producers are scheduled
// immediately; the earliest cycle an entry can issue is the one after its
// dispatch, matching the reference scan which runs before dispatch. A
// consumer whose two sources share one producer registers once: both
// sources would fold the same doneAt.
func (c *Core) registerDeps(slot int) {
	e := &c.rob[slot]
	e.nwait = 0
	e.readyAt = 0
	c.dependOn(slot, e, e.prod1)
	if e.prod2 != e.prod1 {
		c.dependOn(slot, e, e.prod2)
	}
	if e.nwait == 0 {
		c.sched.schedule(int32(slot), max(e.readyAt, c.now+1))
	}
}

// dependOn registers entry e, in slot, on one source's producer ref.
func (c *Core) dependOn(slot int, e *robEntry, ref regRef) {
	if ref.seq == 0 {
		return
	}
	p := &c.rob[ref.slot]
	if p.seq != ref.seq {
		return // producer committed: value available
	}
	if p.state == stWaiting {
		c.sched.consumers(int(ref.slot))[slot>>6] |= 1 << (slot & 63)
		e.nwait++
		return
	}
	// Issued producer: completion time already known.
	e.readyAt = max(e.readyAt, p.doneAt)
}

// notifyConsumers wakes the consumers registered on the just-issued
// producer in the given slot and empties its set. The walk is in slot
// order; that is immaterial because each notification is independent — it
// only decrements the consumer's wait count and, at zero, schedules a
// wakeup whose eventual issue position is the slot's ring position alone.
func (c *Core) notifyConsumers(slot int, doneAt int64) {
	set := c.sched.consumers(slot)
	for wi, word := range set {
		if word == 0 {
			continue
		}
		set[wi] = 0
		for ; word != 0; word &= word - 1 {
			cs := wi<<6 | bits.TrailingZeros64(word)
			ce := &c.rob[cs]
			ce.readyAt = max(ce.readyAt, doneAt)
			if ce.nwait--; ce.nwait == 0 {
				c.sched.schedule(int32(cs), max(ce.readyAt, c.now+1))
			}
		}
	}
}

// unschedule removes the popped entry in slot from every scheduling
// structure: the ready set, its wheel bucket, and the consumer sets of the
// producers it still waits on. Its own consumer set is already empty, as
// every consumer is younger and squashes pop youngest first.
func (c *Core) unschedule(slot int, e *robEntry) {
	s := &c.sched
	if bit := uint64(1) << (slot & 63); s.ready[slot>>6]&bit != 0 {
		s.ready[slot>>6] &^= bit
		s.nready--
	}
	if s.wake[slot].at != 0 {
		s.unlink(int32(slot))
	}
	if e.state != stWaiting || e.nwait == 0 {
		return
	}
	for _, ref := range [2]regRef{e.prod1, e.prod2} {
		if ref.seq != 0 && c.rob[ref.slot].seq == ref.seq {
			s.consumers(int(ref.slot))[slot>>6] &^= 1 << (slot & 63)
		}
	}
}

// issueEvent selects and executes ready instructions, oldest first,
// respecting functional-unit ports — the event-driven counterpart of
// issueRef with identical selection semantics. The ready set is walked in
// ring order from the ROB head, which is program order.
func (c *Core) issueEvent() {
	s := &c.sched
	s.drain(c.now)
	if s.nready == 0 {
		return
	}
	width := c.cfg.Core.IssueWidth
	budget := c.newBudget()
	issued, left := 0, s.nready
	n := len(s.ready)
	hw, hb := c.head>>6, uint(c.head&63)
	for i := 0; i <= n; i++ {
		wi := hw + i
		if wi >= n {
			wi -= n
		}
		word := s.ready[wi]
		switch i {
		case 0:
			word &= ^uint64(0) << hb
		case n:
			word &= 1<<hb - 1
		}
		for ; word != 0; word &= word - 1 {
			b := bits.TrailingZeros64(word)
			slot := wi<<6 | b
			e := &c.rob[slot]
			left--
			ok, lat := c.allocFU(e, &budget)
			if !ok {
				// Port conflict: the scan kernel skips the entry but keeps
				// scanning younger ones; its bit stays set for a later cycle.
				if left == 0 {
					return
				}
				continue
			}
			s.ready[wi] &^= 1 << b
			s.nready--
			c.markIssued(e, lat)
			issued++
			c.notifyConsumers(slot, e.doneAt)
			if e.kind == trace.Branch && (e.mispred || e.btbMiss) {
				c.squashAfter(slot, e)
				c.finish(e)
				return
			}
			c.finish(e)
			if issued == width || left == 0 {
				return
			}
		}
	}
}

// skipIdle fast-forwards now over cycles in which Step could only burn
// time: nothing can commit (head not complete), issue (ready set empty),
// dispatch (frontend empty, not yet decoded, or resource-stalled) or fetch
// (gated or frontend full). The skipped window is provably frozen — the
// only per-cycle state changes the reference kernel would make are
// Cycles++ and, when dispatch is resource-stalled, exactly one stall
// counter++ — so both are batched and the resulting Stats stay
// bit-identical. Skipping stops at the earliest next event: the head's
// completion, the first occupied wake-wheel bucket, the frontend head's
// decode time, or the fetch gate.
func (c *Core) skipIdle() {
	if c.sched.nready > 0 {
		// Something may issue next cycle (possibly only after a div unit
		// frees, but then issue still has to re-evaluate each cycle).
		return
	}
	next := int64(math.MaxInt64)

	// Commit: the head entry's completion is the only commit event.
	if c.count > 0 {
		h := &c.rob[c.head]
		if h.state == stDone {
			if h.doneAt <= c.now+1 {
				return // commit can retire next cycle
			}
			next = h.doneAt
		}
		// A waiting head is covered by the wake wheel below.
	}

	// Dispatch: either the frontend head is still decoding (its readyAt is
	// an event), or it is ready and blocked on a structural resource (one
	// stall counter ticks every skipped cycle), or it can dispatch.
	var stall *uint64
	if c.fqLen > 0 {
		f := &c.fq[c.fqHead]
		if f.readyAt > c.now+1 {
			if f.readyAt < next {
				next = f.readyAt
			}
		} else {
			stall = c.dispatchStall(f)
			if stall == nil {
				return // dispatch can make progress next cycle
			}
		}
	}

	// Fetch: runs whenever the gate has passed and the frontend has room.
	if c.fqLen < 2*c.cfg.Core.FetchWidth {
		if c.fetchGate <= c.now+1 {
			return
		}
		if c.fetchGate < next {
			next = c.fetchGate
		}
	}

	// Issue: the first occupied wheel bucket. It may hold only later-lap
	// entries; that only shortens the skip, never overshoots a wakeup.
	if t, ok := c.sched.nextWake(c.now); ok && t < next {
		next = t
	}

	if next == math.MaxInt64 || next <= c.now+1 {
		return
	}
	// Cycles now+1 .. next-1 are identical no-ops; batch them.
	skipped := next - c.now - 1
	c.now += skipped
	c.Stats.Cycles += uint64(skipped)
	if stall != nil {
		*stall += uint64(skipped)
	}
}

// dispatchStall returns the stall counter dispatch would increment for the
// decoded frontend head this cycle, replicating dispatch's check order, or
// nil when the instruction can dispatch.
func (c *Core) dispatchStall(f *fetched) *uint64 {
	p := &c.cfg.Core
	if c.count >= p.ROBSize {
		return &c.Stats.StallROB
	}
	if c.iqCount >= p.IQSize {
		return &c.Stats.StallIQ
	}
	switch f.kind {
	case trace.Load:
		if c.lqCount >= p.LQSize {
			return &c.Stats.StallLQ
		}
	case trace.Store:
		if c.sqCount >= p.SQSize {
			return &c.Stats.StallSQ
		}
	}
	if f.dst >= 0 && c.freePhys <= 0 {
		return &c.Stats.StallRF
	}
	return nil
}
