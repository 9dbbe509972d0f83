package mem

import (
	"fmt"

	"vertical3d/internal/config"
)

// dirState is the MESI-style directory state of a line.
type dirState uint8

const (
	dirShared dirState = iota
	dirModified
)

// dirEntry tracks a line in the sliced L3 directory.
type dirEntry struct {
	sharers uint32 // bitmask of private-cache domains holding the line
	owner   int8   // domain holding the line Modified, -1 otherwise
	state   dirState
}

// dirTable is the coherence directory: an open-addressed table from line
// address to dirEntry with linear probing, so a lookup is a multiply and
// a short scan of adjacent slots instead of a map's hashing. Lines never
// leave the directory, so the table needs no tombstones; it doubles once
// half full.
type dirTable struct {
	slots []dirSlot // a power of two
	used  int
	shift uint // 64 - log2(len(slots))
}

// dirSlot is one table slot; key is the line address plus one, and zero
// marks an empty slot.
type dirSlot struct {
	key uint64
	dirEntry
}

// newDirTable returns a table with room for n lines before it grows.
func newDirTable(n int) dirTable {
	size, shift := 1<<4, uint(60)
	for size < 2*n {
		size, shift = size<<1, shift-1
	}
	return dirTable{slots: make([]dirSlot, size), shift: shift}
}

// probe returns the slot holding la, or the empty slot where la belongs.
func (t *dirTable) probe(la uint64) *dirSlot {
	mask := len(t.slots) - 1
	for i := int((la + 1) * 0x9e3779b97f4a7c15 >> t.shift); ; i = (i + 1) & mask {
		if s := &t.slots[i]; s.key == la+1 || s.key == 0 {
			return s
		}
	}
}

// find returns la's entry, or nil when the directory has none.
func (t *dirTable) find(la uint64) *dirEntry {
	if s := t.probe(la); s.key != 0 {
		return &s.dirEntry
	}
	return nil
}

// entry returns la's entry, first adding an untracked one (no sharers, no
// owner) when the directory has none. The pointer is valid until the next
// entry call.
func (t *dirTable) entry(la uint64) *dirEntry {
	s := t.probe(la)
	if s.key != 0 {
		return &s.dirEntry
	}
	if 2*(t.used+1) > len(t.slots) {
		old := t.slots
		*t = dirTable{slots: make([]dirSlot, 2*len(old)), used: t.used, shift: t.shift - 1}
		for _, o := range old {
			if o.key != 0 {
				*t.probe(o.key - 1) = o
			}
		}
		s = t.probe(la)
	}
	t.used++
	*s = dirSlot{key: la + 1, dirEntry: dirEntry{owner: -1}}
	return &s.dirEntry
}

// Multicore is the multicore memory system: private IL1/DL1 per core,
// private or pair-shared L2s, and a shared, sliced L3 with a MESI directory
// over a ring NoC (Table 9's "Ring with MESI directory-based protocol").
type Multicore struct {
	ncores   int
	sharedL2 bool

	il1 []*Cache
	dl1 []*Cache
	l2  []*Cache // indexed by L2 domain

	l3  *Cache
	dir dirTable

	cfg        config.CoreParams
	hopCycles  int
	stops      int
	dramCycles int

	lineShift uint

	// lastDataLine supports the per-core next-line stream prefetcher.
	lastDataLine []uint64

	// Extra counts the coherence/NoC events for the power model.
	Extra struct {
		NoCHops       uint64
		Invalidations uint64
		Forwards      uint64
		Prefetches    uint64
	}
}

// NewMulticore builds the memory system for an MCConfig. When SharedL2 is
// set, pairs of cores share an L2 of twice the capacity and one NoC router
// stop (Figure 4), halving the ring's stop count. A configuration with a
// non-positive core count or bad cache geometry is reported as an error.
func NewMulticore(mc config.MCConfig) (*Multicore, error) {
	p := mc.PerCore.Core
	n := mc.Cores
	if n < 1 {
		return nil, fmt.Errorf("mem: %s: core count must be >= 1, got %d", mc.Name, n)
	}
	m := &Multicore{
		ncores:     n,
		sharedL2:   mc.SharedL2,
		cfg:        p,
		hopCycles:  mc.RouterHopCycles,
		dir:        newDirTable(1 << 16),
		dramCycles: int(p.DRAMLatencyNs * mc.PerCore.FreqGHz),
	}
	fail := func(level string, err error) (*Multicore, error) {
		return nil, fmt.Errorf("mem: %s %s: %w", mc.Name, level, err)
	}
	for i := 0; i < n; i++ {
		il1, err := NewCache(p.IL1.SizeKB, p.IL1.Assoc, p.IL1.LineBytes)
		if err != nil {
			return fail("IL1", err)
		}
		dl1, err := NewCache(p.DL1.SizeKB, p.DL1.Assoc, p.DL1.LineBytes)
		if err != nil {
			return fail("DL1", err)
		}
		m.il1 = append(m.il1, il1)
		m.dl1 = append(m.dl1, dl1)
	}
	if mc.SharedL2 {
		for i := 0; i < n/2; i++ {
			l2, err := NewCache(p.L2.SizeKB*2, p.L2.Assoc, p.L2.LineBytes)
			if err != nil {
				return fail("L2", err)
			}
			m.l2 = append(m.l2, l2)
		}
		m.stops = n / 2
	} else {
		for i := 0; i < n; i++ {
			l2, err := NewCache(p.L2.SizeKB, p.L2.Assoc, p.L2.LineBytes)
			if err != nil {
				return fail("L2", err)
			}
			m.l2 = append(m.l2, l2)
		}
		m.stops = n
	}
	if m.stops < 1 {
		m.stops = 1
	}
	// The shared L3 scales with the core count (2MB per core, Table 9).
	l3, err := NewCache(p.L3.SizeKB*n, p.L3.Assoc, p.L3.LineBytes)
	if err != nil {
		return fail("L3", err)
	}
	m.l3 = l3
	shift := uint(0)
	for 1<<shift < p.L3.LineBytes {
		shift++
	}
	m.lineShift = shift
	m.lastDataLine = make([]uint64, n)
	return m, nil
}

// domain maps a core to its private-cache domain (L2 index).
func (m *Multicore) domain(core int) int {
	if m.sharedL2 {
		return core / 2
	}
	return core
}

// slice maps a line to its L3 slice / directory home stop.
func (m *Multicore) slice(la uint64) int { return int(la % uint64(m.stops)) }

// hops returns the ring distance between stops a and b.
func (m *Multicore) hops(a, b int) int {
	d := a - b
	if d < 0 {
		d = -d
	}
	if alt := m.stops - d; alt < d {
		d = alt
	}
	return d
}

// FetchExtra performs an instruction fetch for the core.
func (m *Multicore) FetchExtra(core int, pc uint64) int {
	if hit, _, _ := m.il1[core].Access(pc, false); hit {
		return 0
	}
	dom := m.domain(core)
	extra := m.cfg.L2.RTCycles
	if hit, _, _ := m.l2[dom].Access(pc, false); hit {
		return extra
	}
	h := m.hops(dom, m.slice(pc>>m.lineShift))
	m.Extra.NoCHops += uint64(h)
	extra += h*m.hopCycles + m.cfg.L3.RTCycles
	if hit, _, _ := m.l3.Access(pc, false); hit {
		return extra
	}
	return extra + m.dramCycles
}

// DataExtra performs a data access for the core with full directory
// coherence, returning the extra latency beyond a DL1 hit.
func (m *Multicore) DataExtra(core int, addr uint64, write bool) int {
	dom := m.domain(core)
	la := addr >> m.lineShift

	// Per-core next-line stream prefetch into the domain's L2.
	dla := addr >> uint(5) // DL1 line granularity
	if dla == m.lastDataLine[core]+1 {
		m.Extra.Prefetches++
		next := (dla + 2) << 5
		if !m.dl1[core].Probe(next) {
			m.dl1[core].Access(next, false)
			m.l2[dom].Access(next, false)
			m.l3.Access(next, false)
		}
	}
	m.lastDataLine[core] = dla

	hit, victim, dirty := m.dl1[core].Access(addr, write)
	if dirty {
		m.l2[dom].Access(victim, true)
	}
	if hit {
		if !write {
			return 0
		}
		// Write hit: if other domains share the line, pay an upgrade.
		if e := m.dir.find(la); e != nil && e.sharers&^(1<<uint(dom)) != 0 {
			return m.invalidateOthers(e, la, dom)
		}
		return 0
	}

	extra := m.cfg.L2.RTCycles
	l2hit, v2, d2 := m.l2[dom].Access(addr, write)
	if d2 {
		m.l3.Access(v2, true)
	}
	if l2hit && !write {
		return extra
	}
	if l2hit && write {
		if e := m.dir.find(la); e != nil && e.sharers&^(1<<uint(dom)) != 0 {
			extra += m.invalidateOthers(e, la, dom)
		}
		return extra
	}

	// Miss in the private domain: go to the home L3 slice.
	home := m.slice(la)
	h := m.hops(dom, home)
	m.Extra.NoCHops += uint64(h)
	extra += h*m.hopCycles + m.cfg.L3.RTCycles

	e := m.dir.entry(la)

	// If another domain holds the line Modified, forward from its cache.
	if e.state == dirModified && e.owner >= 0 && int(e.owner) != dom {
		fh := m.hops(home, int(e.owner)) + m.hops(int(e.owner), dom)
		m.Extra.NoCHops += uint64(fh)
		m.Extra.Forwards++
		extra += fh*m.hopCycles + m.cfg.L2.RTCycles
		e.state = dirShared
		e.sharers |= 1 << uint(e.owner)
		e.owner = -1
	}

	if write {
		extra += m.invalidateOthers(e, la, dom)
		e.state = dirModified
		e.owner = int8(dom)
		e.sharers = 1 << uint(dom)
	} else {
		e.sharers |= 1 << uint(dom)
	}

	if hit3, _, _ := m.l3.Access(addr, write); hit3 {
		return extra
	}
	return extra + m.dramCycles
}

// invalidateOthers removes the line from every other sharer's caches and
// returns the invalidation latency (the farthest acknowledgement).
func (m *Multicore) invalidateOthers(e *dirEntry, la uint64, dom int) int {
	addr := la << m.lineShift
	worst := 0
	for d := 0; d < m.stops; d++ {
		if d == dom || e.sharers&(1<<uint(d)) == 0 {
			continue
		}
		m.Extra.Invalidations++
		m.l2[d].Invalidate(addr)
		// Invalidate the L1s of the domain's cores.
		if m.sharedL2 {
			m.dl1[2*d].Invalidate(addr)
			if 2*d+1 < m.ncores {
				m.dl1[2*d+1].Invalidate(addr)
			}
		} else {
			m.dl1[d].Invalidate(addr)
		}
		if h := m.hops(dom, d); h > worst {
			worst = h
		}
	}
	e.sharers = 1 << uint(dom)
	e.owner = int8(dom)
	e.state = dirModified
	m.Extra.NoCHops += uint64(2 * worst)
	return 2 * worst * m.hopCycles
}

// Stats aggregates the hierarchy statistics across cores.
func (m *Multicore) Stats() HierStats {
	var s HierStats
	for _, c := range m.il1 {
		s.IL1.Accesses += c.Stats.Accesses
		s.IL1.Misses += c.Stats.Misses
	}
	for _, c := range m.dl1 {
		s.DL1.Accesses += c.Stats.Accesses
		s.DL1.Misses += c.Stats.Misses
	}
	for _, c := range m.l2 {
		s.L2.Accesses += c.Stats.Accesses
		s.L2.Misses += c.Stats.Misses
		s.L2.Writebacks += c.Stats.Writebacks
	}
	s.L3 = m.l3.Stats
	s.DRAMAccesses = m.l3.Stats.Misses
	s.NoCHops = m.Extra.NoCHops
	s.Invalidations = m.Extra.Invalidations
	s.Forwards = m.Extra.Forwards
	return s
}

// String describes the topology.
func (m *Multicore) String() string {
	kind := "private L2s"
	if m.sharedL2 {
		kind = "pair-shared L2s"
	}
	return fmt.Sprintf("%d cores, %s, %d ring stops, %d-cycle hops", m.ncores, kind, m.stops, m.hopCycles)
}

var _ Backend = (*Multicore)(nil)
