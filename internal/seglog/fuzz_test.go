package seglog_test

import (
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
	"time"

	"vertical3d/internal/fsio"
	"vertical3d/internal/jobstore"
	"vertical3d/internal/journal"
	"vertical3d/internal/seglog"
)

// The two formats in use, as their packages declare them.
var (
	journalFormat = seglog.Format{Name: "journal", Magic: "M3DJNL01", Ext: ".m3dj", MaxPayload: 1 << 26}
	jobsFormat    = seglog.Format{Name: "jobstore", Magic: "M3DJOB01", Ext: ".m3dq", MaxPayload: 1 << 22}
)

// onlySegment returns the bytes of the one segment in dir.
func onlySegment(tb testing.TB, dir, ext string) []byte {
	tb.Helper()
	m, _ := filepath.Glob(filepath.Join(dir, "*"+ext))
	if len(m) != 1 {
		tb.Fatalf("want one %s segment, got %v", ext, m)
	}
	b, err := os.ReadFile(m[0])
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// journalSegment writes a real two-record journal segment.
func journalSegment(tb testing.TB) []byte {
	dir := tb.TempDir()
	j, err := journal.Open(dir, journal.Identity{Experiment: "fig6", Params: journal.Params("seed", "42")})
	if err != nil {
		tb.Fatal(err)
	}
	for i, key := range []string{"Mcf/Base#1", "Mcf/M3D#2"} {
		if err := j.Record(key, map[string]float64{"IPC": float64(i) + 0.5}); err != nil {
			tb.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		tb.Fatal(err)
	}
	return onlySegment(tb, dir, journalFormat.Ext)
}

// jobsSegment writes a real accept-plus-transition job manifest segment.
func jobsSegment(tb testing.TB) []byte {
	dir := tb.TempDir()
	s, err := jobstore.Open(dir)
	if err != nil {
		tb.Fatal(err)
	}
	if err := s.Accept("s000001", 1, map[string]string{"experiment": "lpstudy"}, time.Time{}); err != nil {
		tb.Fatal(err)
	}
	if err := s.Transition("s000001", jobstore.StateDone, ""); err != nil {
		tb.Fatal(err)
	}
	if err := s.Close(); err != nil {
		tb.Fatal(err)
	}
	return onlySegment(tb, dir, jobsFormat.Ext)
}

// config builds a log over dir whose header check exercises all three
// verdicts: a journal-style identity decides Load or Skip, an undecodable
// header is quarantined. Payloads load when they are JSON objects.
func config(f seglog.Format, dir string) seglog.Config {
	ident := json.RawMessage(`{"Experiment":"fig6"}`)
	return seglog.Config{
		Format:   f,
		Dir:      dir,
		Prefix:   "fuzz",
		Identity: ident,
		Check: func(header []byte) seglog.Verdict {
			var hdr struct{ Identity *struct{ Experiment string } }
			switch {
			case json.Unmarshal(header, &hdr) != nil:
				return seglog.Quarantine
			case hdr.Identity != nil && hdr.Identity.Experiment != "fig6":
				return seglog.Skip
			}
			return seglog.Load
		},
		Apply: func(payload []byte) bool {
			var v map[string]any
			return json.Unmarshal(payload, &v) == nil
		},
	}
}

// FuzzSeglog feeds arbitrary bytes to the shared segment loader as an
// on-disk file in each format in use. The contract: Open never panics;
// the file is loaded, skipped or quarantined exactly once; truncation of
// a stale torn tail only ever shrinks the file, to a prefix that reloads
// without a torn tail; and the log can still Append afterwards.
func FuzzSeglog(f *testing.F) {
	for _, valid := range [][]byte{journalSegment(f), jobsSegment(f)} {
		f.Add(valid)
		f.Add(valid[:len(valid)-5]) // torn payload
		f.Add(valid[:10])           // torn header
		flip := append([]byte(nil), valid...)
		flip[len(flip)/2] ^= 0x08
		f.Add(flip)
		huge := append([]byte(nil), valid[:12]...)
		binary.LittleEndian.PutUint32(huge[8:12], 1<<30) // implausible header length
		f.Add(huge)
		// Valid header, record claiming a huge payload.
		hlen := binary.LittleEndian.Uint32(valid[8:12])
		bigRec := append([]byte(nil), valid[:12+hlen]...)
		bigRec = binary.LittleEndian.AppendUint32(bigRec, 1<<31-1)
		bigRec = binary.LittleEndian.AppendUint32(bigRec, crc32.ChecksumIEEE(nil))
		f.Add(bigRec)
	}
	f.Add([]byte(journalFormat.Magic)) // magic only
	f.Add([]byte(jobsFormat.Magic))
	f.Add([]byte{})                         // empty file
	f.Add([]byte("M3DTRC01 not a journal")) // foreign magic

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, format := range []seglog.Format{journalFormat, jobsFormat} {
			dir := t.TempDir()
			path := filepath.Join(dir, "fuzz-seg"+format.Ext)
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Skip()
			}
			// Age the file so the stale-truncation path is exercised too.
			old := time.Now().Add(-2 * seglog.TornTruncateAge)
			_ = os.Chtimes(path, old, old)

			l, err := seglog.Open(fsio.OS, config(format, dir))
			if err != nil {
				t.Fatalf("%s: Open must not fail on a corrupt segment: %v", format.Name, err)
			}
			s := l.Stats()
			if s.Segments+s.SkippedSegments+s.Quarantined != 1 {
				t.Fatalf("%s: segment not loaded, skipped or quarantined exactly once: %+v", format.Name, s)
			}
			if s.Quarantined == 1 {
				if _, err := os.Stat(path + seglog.QuarantineExt); err != nil {
					t.Fatalf("%s: quarantined bytes lost: %v", format.Name, err)
				}
			}
			if info, err := os.Stat(path); err == nil && info.Size() > int64(len(data)) {
				t.Fatalf("%s: loader grew the segment: %d > %d", format.Name, info.Size(), len(data))
			}

			frame, err := format.Frame([]byte(`{"post":"fuzz"}`))
			if err != nil {
				t.Fatal(err)
			}
			if err := l.Append(frame); err != nil {
				t.Fatalf("%s: log unusable after a corrupt load: %v", format.Name, err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}

			// The cut file replays cleanly, next to the appended segment.
			r, err := seglog.Open(fsio.OS, config(format, dir))
			if err != nil {
				t.Fatal(err)
			}
			rs := r.Stats()
			if rs.Records != s.Records+1 || rs.TornTails != 0 || rs.Quarantined != 0 {
				t.Fatalf("%s: reload after cut and append = %+v, first load %+v", format.Name, rs, s)
			}
		}
	})
}
