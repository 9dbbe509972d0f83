package trace

import (
	"math"
	"math/rand"
	"testing"
)

// FuzzGenerator feeds adversarial workload profiles to the trace generator
// and asserts it never panics and always emits well-formed instructions:
// kinds in range, register indices inside the architectural file, branch
// PCs/targets inside the code segment. Degenerate profiles (zero or
// negative footprints, NaN rates, biased-past-1 mixes) must degrade to a
// boring-but-valid stream, not crash the simulator mid-sweep.
func FuzzGenerator(f *testing.F) {
	f.Add(int64(42), 0, 16384, 0.28, 0.12, 0.15, 6.0, 0.92, 0.02, 0.3, 64, 32, 0.15, 0.05, 0.3, 0.1)
	f.Add(int64(1), 3, 0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0, 0, 0.0, 0.0, 0.0, 0.0)
	f.Add(int64(-7), -1, -8, 1.5, 1.5, 1.5, -3.0, 2.0, -1.0, 2.0, -64, -1, 1.5, 1.5, 1.5, 1.5)
	f.Add(int64(0), 1000, 1<<20, math.NaN(), 0.2, 0.1, math.NaN(), math.Inf(1), math.NaN(), 0.5, 1<<20, 1, math.Inf(-1), 0.2, 0.9, 0.5)

	f.Fuzz(func(t *testing.T, seed int64, threadID, footKB int,
		load, store, branch, depMean, bias, flip, stride float64,
		codeKB, hotKB int, hotFrac, complexFrac, sharedFrac, serialFrac float64) {
		// Keep allocations bounded; adversarial shapes, not adversarial sizes.
		if codeKB > 1<<20 || codeKB < math.MinInt32 {
			codeKB %= 1 << 20
		}
		if footKB > 1<<20 || footKB < math.MinInt32 {
			footKB %= 1 << 20
		}
		if hotKB > 1<<20 || hotKB < math.MinInt32 {
			hotKB %= 1 << 20
		}
		p := Profile{
			Name:        "fuzz",
			Mix:         Mix{Load: load, Store: store, Branch: branch},
			DepMean:     depMean,
			FootprintKB: footKB,
			HotFrac:     hotFrac,
			HotKB:       hotKB,
			StrideFrac:  stride,
			CodeKB:      codeKB,
			BranchBias:  bias,
			FlipRate:    flip,
			ComplexFrac: complexFrac,
			SharedFrac:  sharedFrac,
			SerialFrac:  serialFrac,
		}
		g := NewGenerator(p, seed, threadID) // must not panic
		codeLimit := uint64(0x0040_0000) + uint64(max(codeKB, 1))*1024
		for i := 0; i < 2000; i++ {
			in := g.Next() // must not panic
			if in.Kind >= numKinds {
				t.Fatalf("instruction %d: kind %d out of range", i, in.Kind)
			}
			for _, r := range []int16{in.Src1, in.Src2, in.Dst} {
				if r < -1 || r >= 64 {
					t.Fatalf("instruction %d: register %d out of range", i, r)
				}
			}
			if in.Kind == Branch {
				if in.PC < 0x0040_0000 || in.PC >= codeLimit {
					t.Fatalf("instruction %d: branch PC %#x outside code segment", i, in.PC)
				}
				if in.Target < 0x0040_0000 || in.Target >= codeLimit {
					t.Fatalf("instruction %d: branch target %#x outside code segment", i, in.Target)
				}
			}
		}
	})
}

// FuzzRecordingRoundTrip appends a random instruction sequence through a
// Recorder and replays it at random batch sizes and At positions: the
// output must equal the input. The sequences mix generator-like slots
// (PC+4 runs, taken branches jumping to their Target) with everything the
// control word cannot imply or hold: wide registers and kinds, PCs that
// break the implied successor, Targets on non-branches, zero Targets on
// taken branches and addresses above 32 bits.
func FuzzRecordingRoundTrip(f *testing.F) {
	f.Add(int64(1), uint16(100), uint8(0))
	f.Add(int64(2), uint16(recChunk+300), uint8(3))
	f.Add(int64(3), uint16(3*markEvery+1), uint8(255))
	f.Add(int64(4), uint16(0), uint8(128))

	f.Fuzz(func(t *testing.T, seed int64, n uint16, wild uint8) {
		rng := rand.New(rand.NewSource(seed))
		odd := func() bool { return rng.Intn(256) < int(wild) }
		reg := func() int16 {
			if odd() {
				return int16(rng.Uint32())
			}
			return int16(rng.Intn(65)) - 1
		}
		ins := make([]Inst, int(n))
		pc := uint64(0x40_0000)
		for i := range ins {
			in := Inst{PC: pc, Kind: Kind(rng.Intn(int(numKinds))), Src1: reg(), Src2: reg(), Dst: reg(), Complex: rng.Intn(8) == 0}
			if odd() {
				in.Kind = Kind(rng.Intn(256))
			}
			if odd() {
				in.PC = rng.Uint64()
			}
			switch {
			case in.Kind == Branch:
				in.Taken = rng.Intn(2) == 0
				if !odd() {
					in.Target = 0x40_0000 + uint64(rng.Intn(4096))*4
				}
			case in.Kind == Load || in.Kind == Store:
				in.Addr = 0x1000_0000 + uint64(rng.Intn(1<<20))*8
				if odd() {
					in.Addr = rng.Uint64()
				}
			}
			if odd() {
				in.Target = rng.Uint64()
				in.Taken = rng.Intn(2) == 0
			}
			ins[i] = in
			pc = successor(&in)
		}
		rc := NewRecorder(rng.Intn(len(ins) + 1))
		for _, in := range ins {
			rc.Append(in)
		}
		rec := rc.Finish(testProfile(), seed, 0)
		if rec.Len() != len(ins) {
			t.Fatalf("Len() = %d, want %d", rec.Len(), len(ins))
		}
		r := NewReplayer(rec)
		buf := make([]Inst, 700)
		for pos := 0; pos < len(ins); {
			k := min(1+rng.Intn(len(buf)), len(ins)-pos)
			r.NextBatch(buf[:k])
			for i, got := range buf[:k] {
				if got != ins[pos+i] {
					t.Fatalf("replayed slot %d = %+v, want %+v", pos+i, got, ins[pos+i])
				}
			}
			pos += k
		}
		for range min(len(ins), 64) {
			i := rng.Intn(len(ins))
			if got := rec.At(i); got != ins[i] {
				t.Fatalf("At(%d) = %+v, want %+v", i, got, ins[i])
			}
		}
	})
}
