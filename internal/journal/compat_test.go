package journal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// compatCell is the cell payload of the pinned segment below.
type compatCell struct {
	IPC  float64
	Name string
}

// compatIdentity is the identity the pinned segment was written under.
func compatIdentity() Identity {
	return Identity{Experiment: "fig6", Params: Params("seed", "42")}
}

// pinnedSegment is a .m3dj segment written by the journal's original,
// pre-seglog implementation: three Record calls of compatCell values,
// the third frame torn 7 bytes short by a crash.
const pinnedSegment = "M3DJNL01o\x00\x00\x00{\"Identity\":{\"Experiment\":\"fig6\",\"Params\":[{\"Key\":\"seed\",\"Value\":\"42\"}]},\"CreatedUnixNano\":1792233710102911742}" +
	"E\x00\x00\x00-H\x94\xec{\"K\":\"Mcf/Base#1\",\"V\":{\"IPC\":0.3333333333333333,\"Name\":\"Mcf/Base#1\"}}" +
	"C\x00\x00\x00\x1d!U\x16{\"K\":\"Mcf/M3D#2\",\"V\":{\"IPC\":1.3333333333333333,\"Name\":\"Mcf/M3D#2\"}}" +
	"E\x00\x00\x00\x02\xbf\x0b~{\"K\":\"Gcc/Base#3\",\"V\":{\"IPC\":2.3333333333333335,\"Name\":\"Gcc/Ba"

// pinnedData and pinnedGood are the offsets of pinnedSegment's first
// record and of the end of its last whole one.
const (
	pinnedData = 12 + 0x6f
	pinnedGood = pinnedData + 8 + 0x45 + 8 + 0x43
)

// pinnedFrame is the frame the original implementation appended for
// Record("Mcf/Base#1", compatCell{0.5, "fresh"}).
const pinnedFrame = "1\x00\x00\x00\xb9\xdb\xa1\x91{\"K\":\"Mcf/Base#1\",\"V\":{\"IPC\":0.5,\"Name\":\"fresh\"}}"

// TestPinnedSegmentCompat pins byte compatibility with segments written
// before the journal moved onto internal/seglog, in both directions: the
// old bytes load to the same cells and counters, and a fresh Record
// appends the same frame the old code did.
func TestPinnedSegmentCompat(t *testing.T) {
	for _, stale := range []bool{false, true} {
		dir := t.TempDir()
		path := filepath.Join(dir, "compat"+segExt)
		if err := os.WriteFile(path, []byte(pinnedSegment), 0o644); err != nil {
			t.Fatal(err)
		}
		if stale {
			old := time.Now().Add(-2 * tornTruncateAge)
			if err := os.Chtimes(path, old, old); err != nil {
				t.Fatal(err)
			}
		}
		j, err := Open(dir, compatIdentity())
		if err != nil {
			t.Fatal(err)
		}
		if got, want := j.Stats(), (Stats{Segments: 1, Records: 2, TornTails: 1}); got != want {
			t.Fatalf("stale=%v: stats = %+v, want %+v", stale, got, want)
		}
		for key, want := range map[string]compatCell{
			"Mcf/Base#1": {1.0 / 3.0, "Mcf/Base#1"},
			"Mcf/M3D#2":  {1 + 1.0/3.0, "Mcf/M3D#2"},
		} {
			var got compatCell
			if !j.Lookup(key, &got) || got != want {
				t.Fatalf("stale=%v: %s = %+v, want %+v", stale, key, got, want)
			}
		}
		if j.Lookup("Gcc/Base#3", new(compatCell)) {
			t.Fatalf("stale=%v: the torn record was served", stale)
		}
		_ = j.Close()
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		want := int64(len(pinnedSegment))
		if stale {
			want = pinnedGood
		}
		if info.Size() != want {
			t.Fatalf("stale=%v: segment size %d, want %d", stale, info.Size(), want)
		}
	}

	dir := t.TempDir()
	j, err := Open(dir, compatIdentity())
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Record("Mcf/Base#1", compatCell{0.5, "fresh"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(segPath(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	// The preamble matches up to the creation stamp's 19 digits and '}'.
	stamp := pinnedData - 20
	if len(b) < pinnedData || !bytes.Equal(b[:stamp], []byte(pinnedSegment[:stamp])) {
		t.Fatalf("preamble %q, want %q", b, pinnedSegment[:pinnedData])
	}
	if got := b[pinnedData:]; string(got) != pinnedFrame {
		t.Fatalf("fresh frame %q, want %q", got, pinnedFrame)
	}
}
