// Package mem implements the memory system of the simulated machine: set
// associative caches with LRU replacement and write-back policy, a
// single-core hierarchy (IL1/DL1/L2/L3/DRAM), and a multicore hierarchy
// with MESI directory coherence over a ring NoC — the substrate of Table 9.
package mem

import (
	"fmt"
)

// invalidTag marks an empty way in the packed word lane. Real tags must
// stay below it; see the tag-width guard in Access.
const invalidTag = 0xFFFF_FFFF

// CacheStats counts accesses and misses.
type CacheStats struct {
	Accesses   uint64
	Misses     uint64
	Writebacks uint64
}

// Cache is a set-associative, write-back, write-allocate cache.
//
// Line bookkeeping is packed into a single uint64 lane, tag<<32 | age:
// the lookup path — by far the hottest loop in the whole simulator, every
// fetch and data probe of both the detailed core and the functional warmer
// lands here — then touches exactly one 64-byte host cache line per 8-way
// set, for the hit scan, the LRU-stamp update and the victim scan alike.
// The earlier []line struct slice spread a set over two-plus host lines
// and cost a second line again on the age update; for simulated L2/L3
// sizes whose bookkeeping exceeds the host's own caches, those extra lines
// were the simulator's dominant cost. Dirty bits live in a separate,
// rarely-touched lane.
//
// The 32-bit packed tag bounds supported addresses: addr >> lineShift must
// stay below 2^32 × sets (e.g. 2^50 for a 64-set cache with 64-byte
// lines), far above anything the trace generators produce; Access guards
// the invariant with a panic rather than silently aliasing.
type Cache struct {
	sets      int
	ways      int
	lineShift uint
	setShift  uint // log2(sets)
	setMask   uint64
	words     []uint64 // sets*ways, row-major by set; tag<<32 | age
	dirty     []bool   // write-back state, same indexing
	clock     uint32

	// lastLA/lastIdx memoise the way the previous access resolved to.
	// Consecutive accesses to one line are the most common probe pattern,
	// and the fast path re-verifies the memo against the stored tag before
	// trusting it, so an eviction or invalidation in between simply falls
	// back to the scan — outcomes are exactly the scan's in every case
	// (tags are unique within a set, so the memoised way is the way a scan
	// would find).
	lastLA  uint64
	lastIdx int32

	Stats CacheStats
}

// NewCache builds a cache of sizeKB kilobytes with the given associativity
// and line size. Bad geometry (non-positive dimensions, a non-power-of-two
// line size or set count) is a configuration error and is returned as one;
// the address-slicing bit math below depends on these invariants.
func NewCache(sizeKB, assoc, lineBytes int) (*Cache, error) {
	if sizeKB <= 0 || assoc <= 0 || lineBytes <= 0 {
		return nil, fmt.Errorf("mem: bad cache geometry %dKB/%dway/%dB", sizeKB, assoc, lineBytes)
	}
	if lineBytes&(lineBytes-1) != 0 {
		return nil, fmt.Errorf("mem: line size %dB must be a power of two", lineBytes)
	}
	nlines := sizeKB * 1024 / lineBytes
	sets := nlines / assoc
	if sets == 0 || sets&(sets-1) != 0 {
		return nil, fmt.Errorf("mem: set count %d (from %dKB/%dway/%dB) must be a power of two", sets, sizeKB, assoc, lineBytes)
	}
	shift := uint(0)
	for 1<<shift < lineBytes {
		shift++
	}
	setShift := uint(0)
	for 1<<setShift < sets {
		setShift++
	}
	c := &Cache{
		sets:      sets,
		ways:      assoc,
		lineShift: shift,
		setShift:  setShift,
		setMask:   uint64(sets - 1),
		words:     make([]uint64, sets*assoc),
		dirty:     make([]bool, sets*assoc),
		lastIdx:   -1,
	}
	for i := range c.words {
		c.words[i] = invalidTag << 32
	}
	return c, nil
}

// LineBytes returns the line size.
func (c *Cache) LineBytes() int { return 1 << c.lineShift }

// lineAddr returns the line-aligned address.
func (c *Cache) lineAddr(addr uint64) uint64 { return addr >> c.lineShift }

// Access looks up addr, allocating on miss. It returns whether the access
// hit, and if an eviction occurred, the victim's line-aligned address and
// dirtiness.
func (c *Cache) Access(addr uint64, write bool) (hit bool, victim uint64, victimDirty bool) {
	la := addr >> c.lineShift
	if la == c.lastLA {
		if i := c.lastIdx; i >= 0 && c.words[i]>>32 == la>>c.setShift {
			c.Stats.Accesses++
			c.clock++
			c.words[i] = c.words[i]&^uint64(^uint32(0)) | uint64(c.clock)
			if write {
				c.dirty[i] = true
			}
			return true, 0, false
		}
	}
	c.Stats.Accesses++
	c.clock++
	set := la & c.setMask
	tag := la >> c.setShift
	if tag >= invalidTag {
		panic(fmt.Sprintf("mem: address %#x beyond the packed-tag range", addr))
	}
	key := tag << 32
	base := int(set) * c.ways
	words := c.words[base : base+c.ways]

	for i, w := range words {
		if w>>32 == tag {
			words[i] = key | uint64(c.clock)
			if write {
				c.dirty[base+i] = true
			}
			c.lastLA, c.lastIdx = la, int32(base+i)
			return true, 0, false
		}
	}
	c.Stats.Misses++

	// Choose a victim: invalid way first, else LRU (ties keep the last
	// minimal-age way, preserving the original <= scan's choice).
	vi := -1
	var oldest uint32 = ^uint32(0)
	for i, w := range words {
		if w>>32 == invalidTag {
			vi = i
			break
		}
		if a := uint32(w); a <= oldest {
			oldest = a
			vi = i
		}
	}
	if vt := words[vi] >> 32; vt != invalidTag {
		victim = (vt<<c.setShift | set) << c.lineShift
		if c.dirty[base+vi] {
			victimDirty = true
			c.Stats.Writebacks++
		}
	}
	words[vi] = key | uint64(c.clock)
	c.dirty[base+vi] = write
	c.lastLA, c.lastIdx = la, int32(base+vi)
	return false, victim, victimDirty
}

// Probe reports whether the address is present without disturbing LRU.
func (c *Cache) Probe(addr uint64) bool {
	la := addr >> c.lineShift
	tag := la >> c.setShift
	base := int(la&c.setMask) * c.ways
	for _, w := range c.words[base : base+c.ways] {
		if w>>32 == tag {
			return true
		}
	}
	return false
}

// Invalidate removes the line if present, returning whether it was dirty.
func (c *Cache) Invalidate(addr uint64) (present, dirty bool) {
	la := addr >> c.lineShift
	tag := la >> c.setShift
	base := int(la&c.setMask) * c.ways
	for i, w := range c.words[base : base+c.ways] {
		if w>>32 == tag {
			c.words[base+i] = invalidTag<<32 | w&0xFFFF_FFFF
			return true, c.dirty[base+i]
		}
	}
	return false, false
}
