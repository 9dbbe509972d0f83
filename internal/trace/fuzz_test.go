package trace

import (
	"bytes"
	"math"
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

// FuzzReadRecording feeds arbitrary bytes to the .m3dtrace reader. It
// must reject them with an error or return a recording that re-encodes to
// exactly the input; it must never panic, and never allocate more than a
// small multiple of the input plus a fixed allowance for its buffers,
// whatever instruction count the header claims.
func FuzzReadRecording(f *testing.F) {
	for _, n := range []int{0, 1, 300} {
		var b bytes.Buffer
		if err := Record(testProfile(), 42, 3, n).Encode(&b); err != nil {
			f.Fatal(err)
		}
		f.Add(b.Bytes())
		f.Add(b.Bytes()[:b.Len()/2])
	}
	f.Add(encodeClaim(f, 1<<31, make([]byte, 16)))

	f.Fuzz(func(t *testing.T, data []byte) {
		var rec *Recording
		var err error
		if n := allocated(func() { rec, err = ReadRecording(bytes.NewReader(data)) }); n > 8*uint64(len(data))+1<<20 {
			t.Fatalf("reading %d bytes allocated %d", len(data), n)
		}
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := rec.Encode(&out); err != nil {
			t.Fatalf("an accepted recording does not re-encode: %v", err)
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("an accepted recording re-encodes to %d different bytes (input %d)", out.Len(), len(data))
		}
	})
}
