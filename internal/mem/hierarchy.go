package mem

import (
	"fmt"
	"math"

	"vertical3d/internal/config"
)

// Backend is the interface the core simulator uses: it returns the extra
// latency in cycles beyond an L1 hit (0 on hit) for instruction and data
// accesses.
//
// Backends are stateful (cache contents, coherence directory, prefetcher
// state), so results depend on the exact call sequence. The uarch kernels
// rely on this contract: both the scan-based reference kernel and the
// event-driven kernel make FetchExtra/DataExtra calls in the same order
// (idle-skipped cycles perform no accesses), which is what keeps
// HierStats bit-identical between them — including multicore lockstep
// runs, where per-cycle Step interleaves the cores' accesses.
type Backend interface {
	FetchExtra(coreID int, pc uint64) int
	DataExtra(coreID int, addr uint64, write bool) int
}

// HierStats aggregates hierarchy-wide event counts for the power model.
type HierStats struct {
	IL1, DL1, L2, L3 CacheStats
	DRAMAccesses     uint64
	NoCHops          uint64
	Invalidations    uint64
	Forwards         uint64
}

// Add returns the field-wise sum s + o.
func (s HierStats) Add(o HierStats) HierStats {
	return s.zip(o, func(a, b uint64) uint64 { return a + b })
}

// Sub returns the field-wise difference s - o (counter snapshot diff).
func (s HierStats) Sub(o HierStats) HierStats {
	return s.zip(o, func(a, b uint64) uint64 { return a - b })
}

// Scale returns every counter multiplied by f, rounded to the nearest
// integer (the extrapolation of sampled windows to a full run).
func (s HierStats) Scale(f float64) HierStats {
	return s.zip(HierStats{}, func(a, _ uint64) uint64 { return uint64(math.Round(float64(a) * f)) })
}

// zip combines s and o counter by counter.
func (s HierStats) zip(o HierStats, op func(a, b uint64) uint64) HierStats {
	c := func(x, y CacheStats) CacheStats {
		return CacheStats{
			Accesses:   op(x.Accesses, y.Accesses),
			Misses:     op(x.Misses, y.Misses),
			Writebacks: op(x.Writebacks, y.Writebacks),
		}
	}
	return HierStats{
		IL1:           c(s.IL1, o.IL1),
		DL1:           c(s.DL1, o.DL1),
		L2:            c(s.L2, o.L2),
		L3:            c(s.L3, o.L3),
		DRAMAccesses:  op(s.DRAMAccesses, o.DRAMAccesses),
		NoCHops:       op(s.NoCHops, o.NoCHops),
		Invalidations: op(s.Invalidations, o.Invalidations),
		Forwards:      op(s.Forwards, o.Forwards),
	}
}

// Hierarchy is the single-core memory system of Table 9.
type Hierarchy struct {
	il1, dl1, l2, l3 *Cache
	cfg              config.CoreParams
	freqGHz          float64
	dramCycles       int

	// lastDataLine supports a simple next-line stream prefetcher that pulls
	// ascending streams into the L2, hiding most of the DRAM latency of
	// sequential workloads while leaving pointer-chasing traffic exposed.
	lastDataLine uint64
	Prefetches   uint64
}

// NewHierarchy builds the single-core hierarchy for a configuration. The
// DRAM latency is fixed in nanoseconds, so faster cores wait more cycles.
// A configuration with bad cache geometry is reported as an error naming
// the offending level.
func NewHierarchy(c config.Config) (*Hierarchy, error) {
	p := c.Core
	h := &Hierarchy{
		cfg:        p,
		freqGHz:    c.FreqGHz,
		dramCycles: dramCycles(c),
	}
	var err error
	levels := []struct {
		name string
		dst  **Cache
		cp   config.CacheParams
	}{
		{"IL1", &h.il1, p.IL1},
		{"DL1", &h.dl1, p.DL1},
		{"L2", &h.l2, p.L2},
		{"L3", &h.l3, p.L3},
	}
	for _, l := range levels {
		if *l.dst, err = NewCache(l.cp.SizeKB, l.cp.Assoc, l.cp.LineBytes); err != nil {
			return nil, fmt.Errorf("mem: %s %s: %w", c.Name, l.name, err)
		}
	}
	return h, nil
}

// dramCycles is the DRAM latency in core cycles: fixed in nanoseconds, so
// faster cores wait more cycles.
func dramCycles(c config.Config) int { return int(c.Core.DRAMLatencyNs * c.FreqGHz) }

// FillLatenciesOf returns the extra latencies an L1 miss of a
// configuration's hierarchy can resolve with, each inclusive of the levels
// above it: an L2 hit, an L3 hit and a DRAM fill. Every L1 miss resolves
// with exactly one of the three, which lets a probe tape record fill
// levels instead of latencies.
func FillLatenciesOf(c config.Config) (l2, l3, dram int) {
	l2 = c.Core.L2.RTCycles
	l3 = l2 + c.Core.L3.RTCycles
	return l2, l3, l3 + dramCycles(c)
}

// FetchExtra performs an instruction fetch; returns extra cycles beyond an
// IL1 hit.
func (h *Hierarchy) FetchExtra(_ int, pc uint64) int {
	if hit, _, _ := h.il1.Access(pc, false); hit {
		return 0
	}
	return h.fillFromL2(pc, false)
}

// DataExtra performs a data access; returns extra cycles beyond a DL1 hit.
func (h *Hierarchy) DataExtra(_ int, addr uint64, write bool) int {
	// Stream prefetch: an access to the successor of the previous data line
	// pulls the following line into L2 ahead of time.
	la := addr >> h.dl1.lineShift
	if la == h.lastDataLine+1 {
		h.Prefetches++
		next := (la + 2) << h.dl1.lineShift
		if !h.dl1.Probe(next) {
			h.dl1.Access(next, false)
			h.l2.Access(next, false)
			h.l3.Access(next, false)
		}
	}
	h.lastDataLine = la

	hit, victim, dirty := h.dl1.Access(addr, write)
	if dirty {
		h.l2.Access(victim, true) // write back the victim
	}
	if hit {
		return 0
	}
	return h.fillFromL2(addr, write)
}

// fillFromL2 walks L2 → L3 → DRAM and returns the extra fill latency.
func (h *Hierarchy) fillFromL2(addr uint64, write bool) int {
	extra := h.cfg.L2.RTCycles
	hit, victim, dirty := h.l2.Access(addr, write)
	if dirty {
		h.l3.Access(victim, true)
	}
	if hit {
		return extra
	}
	extra += h.cfg.L3.RTCycles
	if hit3, _, _ := h.l3.Access(addr, write); hit3 {
		return extra
	}
	return extra + h.dramCycles
}

// Stats returns the per-level statistics.
func (h *Hierarchy) Stats() HierStats {
	return HierStats{
		IL1:          h.il1.Stats,
		DL1:          h.dl1.Stats,
		L2:           h.l2.Stats,
		L3:           h.l3.Stats,
		DRAMAccesses: h.l3.Stats.Misses,
	}
}

// LevelStats returns the live counters of the IL1, DL1, L2 and L3, the
// values Stats copies: a caller that reads them after every probe keeps the
// pointers instead of copying the whole HierStats each time.
func (h *Hierarchy) LevelStats() [4]*CacheStats {
	return [4]*CacheStats{&h.il1.Stats, &h.dl1.Stats, &h.l2.Stats, &h.l3.Stats}
}

var _ Backend = (*Hierarchy)(nil)
