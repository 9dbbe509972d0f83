package jobstore

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// pinnedSegment is the .m3dq segment the store's original, pre-seglog
// implementation wrote when it compacted a manifest of three jobs: s000001
// done with a deadline, s000002 failed, s000003 evicted (and so dropped).
const pinnedSegment = "M3DJOB01'\x00\x00\x00{\"CreatedUnixNano\":1792233710124297903}" +
	"\xc5\x00\x00\x00V\xf5\xca7{\"ID\":\"s000001\",\"Seq\":1,\"State\":\"done\",\"Spec\":{\"Experiment\":\"fig6\",\"Benchmarks\":[\"Mcf\"]},\"DeadlineUnixNano\":1800000000000000000,\"CreatedUnixNano\":1700000000000001000,\"UnixNano\":1700000000000094000}" +
	"\xb2\x00\x00\x00\xfbK\x8a\xb2{\"ID\":\"s000002\",\"Seq\":2,\"State\":\"failed\",\"Spec\":{\"Experiment\":\"lpstudy\",\"Benchmarks\":[\"Gcc\"]},\"Error\":\"boom\",\"CreatedUnixNano\":1700000000000002000,\"UnixNano\":1700000000000095000}"

// pinnedData is the offset of pinnedSegment's first record.
const pinnedData = 12 + 0x27

// pinnedFrames are the frames the original implementation appended for an
// Accept and a failed Transition of s000009 at t=1.7e18.
const pinnedFrames = "\xc9\x00\x00\x00\x89\x8c/.{\"ID\":\"s000009\",\"Seq\":9,\"State\":\"accepted\",\"Spec\":{\"Experiment\":\"fig6\",\"Benchmarks\":[\"Mcf\"]},\"DeadlineUnixNano\":1800000000000000000,\"CreatedUnixNano\":1700000000000000000,\"UnixNano\":1700000000000000000}" +
	"O\x00\x00\x00\xd6\xa3\xde\x91{\"ID\":\"s000009\",\"State\":\"failed\",\"Error\":\"boom\",\"UnixNano\":1700000000000000000}"

// compatSpec is the sweep spec of the pinned jobs.
type compatSpec struct {
	Experiment string
	Benchmarks []string
}

// TestPinnedSegmentCompat pins byte compatibility with manifests written
// before the store moved onto internal/seglog, in both directions: the old
// compacted segment replays to the same ledger and counters, and a fresh
// Accept/Transition appends the same frames the old code did.
func TestPinnedSegmentCompat(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "jobsc-1-1"+segExt), []byte(pinnedSegment), 0o644); err != nil {
		t.Fatal(err)
	}
	s := openT(t, dir)
	if got, want := s.Stats(), (Stats{Segments: 1, Records: 2, Jobs: 2}); got != want {
		t.Fatalf("stats = %+v, want %+v", got, want)
	}
	at := func(ns int64) time.Time { return time.Unix(0, ns) }
	want := []Job{
		{ID: "s000001", Seq: 1, State: StateDone,
			Spec:     json.RawMessage(`{"Experiment":"fig6","Benchmarks":["Mcf"]}`),
			Deadline: at(1_800_000_000_000_000_000), Created: at(1_700_000_000_000_001_000), Updated: at(1_700_000_000_000_094_000)},
		{ID: "s000002", Seq: 2, State: StateFailed, Error: "boom",
			Spec:    json.RawMessage(`{"Experiment":"lpstudy","Benchmarks":["Gcc"]}`),
			Created: at(1_700_000_000_000_002_000), Updated: at(1_700_000_000_000_095_000)},
	}
	if got := s.Jobs(); !reflect.DeepEqual(got, want) {
		t.Fatalf("ledger = %+v\nwant %+v", got, want)
	}
	if s.MaxSeq() != 2 {
		t.Fatalf("MaxSeq = %d, want 2", s.MaxSeq())
	}

	dir = t.TempDir()
	s = openT(t, dir)
	s.now = func() time.Time { return at(1_700_000_000_000_000_000) }
	if err := s.Accept("s000009", 9, compatSpec{"fig6", []string{"Mcf"}}, at(1_800_000_000_000_000_000)); err != nil {
		t.Fatal(err)
	}
	if err := s.Transition("s000009", StateFailed, "boom"); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	names := segFiles(t, dir)
	if len(names) != 1 {
		t.Fatalf("want 1 segment, got %v", names)
	}
	b, err := os.ReadFile(filepath.Join(dir, names[0]))
	if err != nil {
		t.Fatal(err)
	}
	// The preamble matches up to the creation stamp's 19 digits and '}'.
	stamp := pinnedData - 20
	if len(b) < pinnedData || string(b[:stamp]) != pinnedSegment[:stamp] {
		t.Fatalf("preamble %q, want %q", b, pinnedSegment[:pinnedData])
	}
	if got := b[pinnedData:]; string(got) != pinnedFrames {
		t.Fatalf("fresh frames %q\nwant %q", got, pinnedFrames)
	}
}
