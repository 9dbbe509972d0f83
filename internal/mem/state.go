package mem

import (
	"errors"
	"fmt"
)

// CacheState is a deep copy of a Cache's mutable contents — the packed
// tag/age lane, dirty bits, LRU clock, way memo and statistics — plus the
// geometry it was captured from. It is the unit of the multicore warm-state
// snapshot (MCState): a snapshot taken once per warmup identity is
// restored into many concurrently running sweep cells, so State copies out
// and SetState copies in; neither ever aliases the snapshot's slices
// (copy-on-restore).
type CacheState struct {
	Sets      int
	Ways      int
	LineShift uint

	Words   []uint64
	Dirty   []bool
	Clock   uint32
	LastLA  uint64
	LastIdx int32
	Stats   CacheStats
}

// State returns a deep copy of the cache's mutable state.
func (c *Cache) State() CacheState {
	return CacheState{
		Sets:      c.sets,
		Ways:      c.ways,
		LineShift: c.lineShift,
		Words:     append([]uint64(nil), c.words...),
		Dirty:     append([]bool(nil), c.dirty...),
		Clock:     c.clock,
		LastLA:    c.lastLA,
		LastIdx:   c.lastIdx,
		Stats:     c.Stats,
	}
}

// compatible reports whether the snapshot was captured from a cache of this
// geometry. Restoring a mismatched snapshot would alias lines across sets.
func (c *Cache) compatible(s *CacheState) error {
	if s.Sets != c.sets || s.Ways != c.ways || s.LineShift != c.lineShift ||
		len(s.Words) != len(c.words) || len(s.Dirty) != len(c.dirty) {
		return fmt.Errorf("mem: snapshot geometry %dx%d way (shift %d, %d words) does not match cache %dx%d way (shift %d, %d words)",
			s.Sets, s.Ways, s.LineShift, len(s.Words), c.sets, c.ways, c.lineShift, len(c.words))
	}
	if int(s.LastIdx) >= len(c.words) {
		return fmt.Errorf("mem: snapshot way memo %d is out of range (%d words)", s.LastIdx, len(c.words))
	}
	return nil
}

// setState copies the snapshot into the cache's own storage. The caller has
// already verified compatibility.
func (c *Cache) setState(s *CacheState) {
	copy(c.words, s.Words)
	copy(c.dirty, s.Dirty)
	c.clock = s.Clock
	c.lastLA = s.LastLA
	c.lastIdx = s.LastIdx
	c.Stats = s.Stats
}

// SetState restores a snapshot taken by State into this cache, copying into
// the cache's existing arrays so the snapshot can keep serving other cells.
// A geometry mismatch is rejected before any mutation.
func (c *Cache) SetState(s *CacheState) error {
	if err := c.compatible(s); err != nil {
		return err
	}
	c.setState(s)
	return nil
}

// DirEntryState is the exported form of a directory entry in an MCState.
type DirEntryState struct {
	Sharers uint32
	Owner   int8
	State   uint8
}

// MCState is a deep snapshot of a Multicore memory system: every private
// and shared cache, the coherence directory, the per-core prefetcher state
// and the NoC/coherence counters. It carries no configuration, only
// probe-sequence-dependent state.
type MCState struct {
	IL1, DL1, L2 []CacheState
	L3           CacheState

	Dir          map[uint64]DirEntryState
	LastDataLine []uint64

	NoCHops       uint64
	Invalidations uint64
	Forwards      uint64
	Prefetches    uint64
}

// State returns a deep copy of the multicore system's mutable state.
func (m *Multicore) State() *MCState {
	s := &MCState{
		L3:           m.l3.State(),
		Dir:          make(map[uint64]DirEntryState, m.dir.used),
		LastDataLine: append([]uint64(nil), m.lastDataLine...),

		NoCHops:       m.Extra.NoCHops,
		Invalidations: m.Extra.Invalidations,
		Forwards:      m.Extra.Forwards,
		Prefetches:    m.Extra.Prefetches,
	}
	for _, c := range m.il1 {
		s.IL1 = append(s.IL1, c.State())
	}
	for _, c := range m.dl1 {
		s.DL1 = append(s.DL1, c.State())
	}
	for _, c := range m.l2 {
		s.L2 = append(s.L2, c.State())
	}
	for _, e := range m.dir.slots {
		if e.key != 0 {
			s.Dir[e.key-1] = DirEntryState{Sharers: e.sharers, Owner: e.owner, State: uint8(e.state)}
		}
	}
	return s
}

// SetState restores a snapshot taken by State. Topology and geometry are
// checked across every cache before any mutation; the directory is rebuilt
// into a fresh table, so restoring cells never share one.
func (m *Multicore) SetState(s *MCState) error {
	if s == nil {
		return errors.New("mem: nil multicore snapshot")
	}
	if len(s.IL1) != len(m.il1) || len(s.DL1) != len(m.dl1) || len(s.L2) != len(m.l2) ||
		len(s.LastDataLine) != len(m.lastDataLine) {
		return fmt.Errorf("mem: snapshot topology (%d IL1, %d DL1, %d L2) does not match %s",
			len(s.IL1), len(s.DL1), len(s.L2), m)
	}
	for i := range m.il1 {
		if err := m.il1[i].compatible(&s.IL1[i]); err != nil {
			return fmt.Errorf("mem: IL1[%d]: %w", i, err)
		}
	}
	for i := range m.dl1 {
		if err := m.dl1[i].compatible(&s.DL1[i]); err != nil {
			return fmt.Errorf("mem: DL1[%d]: %w", i, err)
		}
	}
	for i := range m.l2 {
		if err := m.l2[i].compatible(&s.L2[i]); err != nil {
			return fmt.Errorf("mem: L2[%d]: %w", i, err)
		}
	}
	if err := m.l3.compatible(&s.L3); err != nil {
		return fmt.Errorf("mem: L3: %w", err)
	}
	for i := range m.il1 {
		m.il1[i].setState(&s.IL1[i])
	}
	for i := range m.dl1 {
		m.dl1[i].setState(&s.DL1[i])
	}
	for i := range m.l2 {
		m.l2[i].setState(&s.L2[i])
	}
	m.l3.setState(&s.L3)
	m.dir = newDirTable(len(s.Dir))
	for la, e := range s.Dir {
		*m.dir.entry(la) = dirEntry{sharers: e.Sharers, owner: e.Owner, state: dirState(e.State)}
	}
	copy(m.lastDataLine, s.LastDataLine)
	m.Extra.NoCHops = s.NoCHops
	m.Extra.Invalidations = s.Invalidations
	m.Extra.Forwards = s.Forwards
	m.Extra.Prefetches = s.Prefetches
	return nil
}
