package trace

import (
	"testing"
	"unsafe"
)

// TestInstLayout pins the field-reordered Inst to 40 bytes (three uint64
// words, three int16 registers, three single-byte fields, 7-byte tail
// pad). The grouping-by-meaning order used before the reorder cost 48
// bytes; a regression here means a field was added or moved without
// re-checking the padding.
func TestInstLayout(t *testing.T) {
	const want = 40
	if got := unsafe.Sizeof(Inst{}); got != want {
		t.Fatalf("unsafe.Sizeof(Inst{}) = %d, want %d — keep fields ordered widest-first", got, want)
	}
	if got := unsafe.Alignof(Inst{}); got != 8 {
		t.Fatalf("unsafe.Alignof(Inst{}) = %d, want 8", got)
	}
	// The three word lanes must lead so the int16/byte tail shares one pad.
	var in Inst
	if off := unsafe.Offsetof(in.PC); off != 0 {
		t.Errorf("PC offset = %d, want 0", off)
	}
	if off := unsafe.Offsetof(in.Addr); off != 8 {
		t.Errorf("Addr offset = %d, want 8", off)
	}
	if off := unsafe.Offsetof(in.Target); off != 16 {
		t.Errorf("Target offset = %d, want 16", off)
	}
	if off := unsafe.Offsetof(in.Src1); off != 24 {
		t.Errorf("Src1 offset = %d, want 24", off)
	}
}

// TestPackedMetaRoundTrip checks the control word represents every Kind
// alongside the two flags and every register in [-1, 126], and refuses
// (escapes) the values it cannot hold.
func TestPackedMetaRoundTrip(t *testing.T) {
	if numKinds > ctlKindMask+1 {
		t.Fatalf("numKinds = %d no longer fits the control word's %d kind slots", numKinds, ctlKindMask+1)
	}
	for k := Kind(0); k < numKinds; k++ {
		for _, taken := range []bool{false, true} {
			for _, complex := range []bool{false, true} {
				for r := int16(-1); r <= 126; r++ {
					in := Inst{Kind: k, Taken: taken, Complex: complex, Src1: r, Src2: 125 - r, Dst: r / 2}
					w, ok := pack(in)
					var got Inst
					unpack(&got, w)
					if !ok || w&(ctlPC|ctlAddr|ctlTarget|ctlEscape) != 0 || got != in {
						t.Fatalf("control word round-trip failed for %+v: word %#x ok=%v", in, w, ok)
					}
				}
			}
		}
	}
	for _, in := range []Inst{{Kind: numKinds + 7}, {Src1: 127}, {Src2: -2}, {Dst: 32767}} {
		if _, ok := pack(in); ok {
			t.Errorf("pack accepted %+v, which the control word cannot hold", in)
		}
	}
}
