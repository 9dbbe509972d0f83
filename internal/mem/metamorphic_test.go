package mem

import (
	"math/rand"
	"testing"
)

// TestMetamorphicLRUMissesFallWithAssociativity checks LRU's inclusion
// property at a fixed set count: a set with 2k ways always holds the k
// most recently used lines a k-way set holds, so adding ways can only turn
// misses into hits. On every seeded read/write stream, every access that
// hits with k ways hits with 2k, and the miss count never rises from 1 to
// 2, 4, 8 and 16 ways.
func TestMetamorphicLRUMissesFallWithAssociativity(t *testing.T) {
	const (
		sets      = 64
		lineBytes = 64
	)
	// Each stream draws n addresses: a hot region, strided sweeps and
	// uniform accesses over a footprint larger than the biggest cache.
	streams := []struct {
		name                string
		seed                int64
		footKB, hotKB       int
		hotFrac, strideFrac float64
		writeFrac           float64
	}{
		{"uniform", 1, 256, 0, 0, 0, 0.3},
		{"hot-set", 2, 512, 24, 0.8, 0, 0.2},
		{"strided", 3, 128, 0, 0, 0.9, 0.5},
		{"mixed", 4, 1024, 48, 0.5, 0.3, 0.4},
		{"read-only", 5, 96, 16, 0.6, 0.2, 0},
		{"write-only", 6, 96, 16, 0.6, 0.2, 1},
	}
	const n = 200_000
	for _, s := range streams {
		t.Run(s.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(s.seed))
			type access struct {
				addr  uint64
				write bool
			}
			stream := make([]access, n)
			var next uint64
			for i := range stream {
				var a uint64
				switch r := rng.Float64(); {
				case r < s.hotFrac:
					a = uint64(rng.Intn(s.hotKB * 1024))
				case r < s.hotFrac+s.strideFrac:
					next = (next + lineBytes) % uint64(s.footKB*1024)
					a = next
				default:
					a = uint64(rng.Intn(s.footKB * 1024))
				}
				stream[i] = access{addr: a &^ 7, write: rng.Float64() < s.writeFrac}
			}

			waysList := []int{1, 2, 4, 8, 16}
			caches := make([]*Cache, len(waysList))
			for k, ways := range waysList {
				c, err := NewCache(sets*ways*lineBytes/1024, ways, lineBytes)
				if err != nil {
					t.Fatal(err)
				}
				caches[k] = c
			}
			// Per access: a hit with k ways is a hit with 2k ways.
			for i, a := range stream {
				smaller := false
				for k, c := range caches {
					hit, _, _ := c.Access(a.addr, a.write)
					if smaller && !hit {
						t.Fatalf("access %d: hit with %d ways, missed with %d", i, waysList[k-1], waysList[k])
					}
					smaller = hit
				}
			}
			for k := 1; k < len(caches); k++ {
				if lo, hi := caches[k-1].Stats.Misses, caches[k].Stats.Misses; hi > lo {
					t.Errorf("%d ways: %d misses, more than the %d with %d ways", waysList[k], hi, lo, waysList[k-1])
				}
			}
		})
	}
}
