package uarch

import (
	"math"

	"vertical3d/internal/trace"
)

// This file is the event-driven simulation kernel. It replaces the
// reference kernel's per-cycle O(ROBSize) issue scan and O(SQSize) store
// CAM with:
//
//   - producer→consumer wakeup lists (wakes): a dispatching instruction
//     registers on each in-flight producer; when the producer issues and
//     its doneAt becomes known, it notifies its consumers, so ready() is
//     never re-polled;
//   - a time-ordered wakeup heap (wakeHeap) feeding a seq-ordered ready
//     queue (readyQ): issue touches only entries that are actually ready,
//     in oldest-first program order — the same selection the scan makes;
//   - memory latencies read from the shared dispatch-time probe
//     (Core.memLatency), so issue performs no hierarchy access at all;
//   - idle-cycle skipping in Run: when no stage can commit, issue,
//     dispatch or fetch, now jumps to the next event time with batched
//     Cycles/stall accounting.
//
// Squashes never walk the scheduling queues: sequence numbers are unique
// for the core's lifetime, so stale (slot, seq) refs left behind by a
// flush simply stop validating and are dropped when next touched.
//
// The differential oracle (oracle_test.go) checks bit-identical Stats and
// HierStats against the reference kernel for every workload profile.

// wakeNode is one consumer registration in the wake-list arena: a slab of
// freelist-linked nodes replacing the previous per-slot []qref slices, so
// registering and notifying consumers never allocates in steady state and
// clearing a list is an O(list) splice back onto the freelist.
type wakeNode struct {
	next int32
	ref  qref
}

// wakeNil terminates arena chains (list heads and the freelist).
const wakeNil = int32(-1)

// wakeAdd pushes a consumer registration onto the producer slot's list,
// reusing a freelist node when one is available.
func (c *Core) wakeAdd(slot int32, r qref) {
	nd := wakeNode{next: c.wakeHead[slot], ref: r}
	idx := c.wakeFree
	if idx != wakeNil {
		c.wakeFree = c.wakeArena[idx].next
		c.wakeArena[idx] = nd
	} else {
		idx = int32(len(c.wakeArena))
		c.wakeArena = append(c.wakeArena, nd)
	}
	c.wakeHead[slot] = idx
}

// wakeDrop splices the slot's whole consumer list onto the freelist.
func (c *Core) wakeDrop(slot int32) {
	head := c.wakeHead[slot]
	if head == wakeNil {
		return
	}
	tail := head
	for c.wakeArena[tail].next != wakeNil {
		tail = c.wakeArena[tail].next
	}
	c.wakeArena[tail].next = c.wakeFree
	c.wakeFree = head
	c.wakeHead[slot] = wakeNil
}

// registerDeps records the freshly dispatched entry's producer
// dependencies. Entries with no unresolved producers are scheduled
// immediately; the earliest cycle an entry can issue is the one after its
// dispatch, matching the reference scan which runs before dispatch.
func (c *Core) registerDeps(slot int) {
	e := &c.rob[slot]
	e.nwait = 0
	e.readyAt = 0
	c.wakeDrop(int32(slot)) // drop stale consumers of the slot's previous occupant
	for _, ref := range [2]regRef{e.prod1, e.prod2} {
		if ref.seq == 0 {
			continue
		}
		p := &c.rob[ref.slot]
		if p.seq != ref.seq {
			continue // producer committed or squashed: value available
		}
		if p.state == stWaiting {
			c.wakeAdd(ref.slot, qref{slot: int32(slot), seq: e.seq})
			e.nwait++
			continue
		}
		// Issued producer: completion time already known.
		if p.doneAt > e.readyAt {
			e.readyAt = p.doneAt
		}
	}
	if e.nwait == 0 {
		at := e.readyAt
		if at < c.now+1 {
			at = c.now + 1
		}
		c.wakePush(wakeEv{at: at, slot: int32(slot), seq: e.seq})
	}
}

// notifyConsumers wakes the consumers registered on the just-issued
// producer in the given slot, freeing each arena node as it goes. Consumers
// squashed since registration fail the seq check and are dropped. The walk
// is newest-registration-first (push-front order); that is immaterial
// because each notification is independent — it only decrements the
// consumer's wait count and, at zero, schedules a wakeup whose eventual
// readyQ position is keyed by seq alone.
func (c *Core) notifyConsumers(slot int32, doneAt int64) {
	idx := c.wakeHead[slot]
	if idx == wakeNil {
		return
	}
	c.wakeHead[slot] = wakeNil
	for idx != wakeNil {
		nd := &c.wakeArena[idx]
		w := nd.ref
		next := nd.next
		nd.next = c.wakeFree
		c.wakeFree = idx
		idx = next

		ce := &c.rob[w.slot]
		if ce.seq != w.seq || ce.state != stWaiting || ce.nwait == 0 {
			continue
		}
		if doneAt > ce.readyAt {
			ce.readyAt = doneAt
		}
		ce.nwait--
		if ce.nwait == 0 {
			at := ce.readyAt
			if at < c.now+1 {
				at = c.now + 1
			}
			c.wakePush(wakeEv{at: at, slot: w.slot, seq: w.seq})
		}
	}
}

// wakePush inserts into the min-heap ordered by wake time.
func (c *Core) wakePush(ev wakeEv) {
	c.wakeHeap = append(c.wakeHeap, ev)
	i := len(c.wakeHeap) - 1
	for i > 0 {
		p := (i - 1) / 2
		if c.wakeHeap[p].at <= c.wakeHeap[i].at {
			break
		}
		c.wakeHeap[p], c.wakeHeap[i] = c.wakeHeap[i], c.wakeHeap[p]
		i = p
	}
}

// wakePop removes and returns the earliest wakeup. The sift-down picks
// the smaller child branch-free, like readyPop: on equal wake times the
// left child wins, exactly as the two-conditional form chose, so pop
// order is unchanged (ties are harmless anyway — issueEvent drains every
// event due at or before now and re-validates against the ROB).
func (c *Core) wakePop() wakeEv {
	h := c.wakeHeap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	c.wakeHeap = h[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		r := l + 1
		m := l + b2i(r < n && h[r].at < h[l].at)
		if h[i].at <= h[m].at {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	return top
}

// readyPush inserts a ready entry into the seq-keyed min-heap. Sequence
// numbers are unique for the core's lifetime, so pop order is exactly
// program order — the same oldest-first selection the scan kernel makes —
// without the previous sorted-slice insert's O(n) memmove per entry.
func (c *Core) readyPush(r qref) {
	h := append(c.readyQ, r)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p].seq <= h[i].seq {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	c.readyQ = h
}

// readyPop removes the oldest ready entry. The sift-down picks the smaller
// child branch-free: unique seqs mean no ties, so the comparison result
// indexes the child directly instead of a second conditional swap.
func (c *Core) readyPop() qref {
	h := c.readyQ
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	c.readyQ = h[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		r := l + 1
		m := l + b2i(r < n && h[r].seq < h[l].seq)
		if h[i].seq <= h[m].seq {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	return top
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// issueEvent selects and executes ready instructions, oldest first,
// respecting functional-unit ports — the event-driven counterpart of
// issueRef with identical selection semantics.
func (c *Core) issueEvent() {
	// Promote wakeups that are due into the ready queue.
	for len(c.wakeHeap) > 0 && c.wakeHeap[0].at <= c.now {
		w := c.wakePop()
		e := &c.rob[w.slot]
		if e.seq == w.seq && e.state == stWaiting {
			c.readyPush(qref{slot: w.slot, seq: w.seq})
		}
	}
	if len(c.readyQ) == 0 {
		return
	}

	p := &c.cfg.Core
	budget := c.newBudget()
	issued := 0
	kept := c.readyKept[:0] // port-conflict entries retained for a later cycle
	for len(c.readyQ) > 0 && issued < p.IssueWidth {
		r := c.readyPop()
		e := &c.rob[r.slot]
		if e.seq != r.seq || e.state != stWaiting {
			continue // squashed or already handled: drop lazily
		}
		ok, lat := c.allocFU(e, &budget)
		if !ok {
			// Port conflict: the scan kernel skips the entry but keeps
			// scanning younger ones; keep it ready for a later cycle.
			kept = append(kept, r)
			continue
		}

		c.markIssued(e, lat)
		issued++
		c.notifyConsumers(r.slot, e.doneAt)

		if e.kind == trace.Branch && (e.mispred || e.btbMiss) {
			// Younger entries left in the heap are now stale refs; they
			// fail the seq check and drop lazily when next popped.
			c.squashAfter(int(r.slot), e)
			c.finish(e)
			break
		}
		c.finish(e)
	}
	// Re-arm port-conflicted entries for the next issue cycle.
	for _, r := range kept {
		c.readyPush(r)
	}
	c.readyKept = kept[:0]
}

// skipIdle fast-forwards now over cycles in which Step could only burn
// time: nothing can commit (head not complete), issue (ready queue empty),
// dispatch (frontend empty, not yet decoded, or resource-stalled) or fetch
// (gated or frontend full). The skipped window is provably frozen — the
// only per-cycle state changes the reference kernel would make are
// Cycles++ and, when dispatch is resource-stalled, exactly one stall
// counter++ — so both are batched and the resulting Stats stay
// bit-identical. Skipping stops at the earliest next event: the head's
// completion, the earliest operand wakeup, the frontend head's decode
// time, or the fetch gate.
func (c *Core) skipIdle() {
	if len(c.readyQ) > 0 {
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
		// A waiting head is covered by the wakeup heap below.
	}

	// Issue: earliest scheduled operand wakeup (possibly a stale ref from
	// a squash — that only shortens the skip, never overshoots it).
	if len(c.wakeHeap) > 0 {
		if t := c.wakeHeap[0].at; t <= c.now+1 {
			return
		} else if t < next {
			next = t
		}
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
