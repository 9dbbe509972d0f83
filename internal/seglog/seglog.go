// Package seglog is the CRC-framed, append-only segment log under the
// write-ahead result journal (internal/journal, .m3dj) and the m3dd job
// manifest (internal/jobstore, .m3dq); their package comments hold the
// on-disk layout. A log directory holds one segment per writing process:
// a magic, a length-prefixed JSON header, then records framed as
// {payload length, CRC32 of the payload, payload}.
//
//   - A segment's header is written to a temp file, fsync'd and renamed
//     into place, so no reader ever sees a torn header; every Append is
//     fsync'd before it returns.
//   - On load the consumer rules on each header: load it, skip it as
//     foreign, or quarantine it. A corrupt magic or header is quarantined
//     too: renamed to <name>.quarantine, so later opens ignore it while an
//     operator can still inspect the bytes.
//   - A torn tail (short frame, implausible length, CRC mismatch, or a
//     payload the consumer cannot decode — the signature of a crash
//     mid-append) ends a segment at its last good record. Stale torn
//     segments are truncated back to that point; recent ones, possibly
//     still appended to by a live sibling process, are left alone.
//   - A failed append or segment creation (ENOSPC, EIO, a failed fsync)
//     quarantines the active segment and degrades the log: Append stops
//     touching the disk and returns the original cause, while the
//     consumer keeps serving its in-memory state.
//
// All filesystem access goes through the internal/fsio seam.
package seglog

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"vertical3d/internal/fsio"
)

const (
	// QuarantineExt is appended to a bad segment's full name, so "x.m3dj"
	// becomes "x.m3dj.quarantine" and no longer matches the segment suffix.
	QuarantineExt = ".quarantine"

	// TornTruncateAge is how long a torn segment must have been quiet
	// before its tail is physically truncated.
	TornTruncateAge = time.Minute

	// maxHeader bounds the header length prefix a loader will trust.
	maxHeader = 1 << 20
)

// Format fixes one consumer's on-disk segment format. Each consumer
// declares its Format once; a change to one is a format change.
type Format struct {
	Name       string // error prefix: "journal", "jobstore"
	Magic      string // 8-byte file magic
	Ext        string // segment suffix; temp files are "<Ext>-tmp-*"
	MaxPayload int    // longest payload appended or trusted on load
}

// Header renders a segment preamble: magic, header length and the JSON
// header {Identity, CreatedUnixNano} stamped now (Identity omitted when
// nil; it must be valid JSON).
func (f Format) Header(identity json.RawMessage) []byte {
	hdr, _ := json.Marshal(struct {
		Identity        json.RawMessage `json:",omitempty"`
		CreatedUnixNano int64
	}{identity, time.Now().UnixNano()})
	buf := binary.LittleEndian.AppendUint32([]byte(f.Magic), uint32(len(hdr)))
	return append(buf, hdr...)
}

// Frame renders one CRC-framed record, refusing a payload over MaxPayload.
func (f Format) Frame(payload []byte) ([]byte, error) {
	if len(payload) > f.MaxPayload {
		return nil, fmt.Errorf("%s: payload %d exceeds %d bytes", f.Name, len(payload), f.MaxPayload)
	}
	frame := binary.LittleEndian.AppendUint32(make([]byte, 0, 8+len(payload)), uint32(len(payload)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(payload))
	return append(frame, payload...), nil
}

// Verdict is a consumer's ruling on a segment header found on load.
type Verdict int

const (
	Load       Verdict = iota // replay the segment's records
	Skip                      // leave a well-formed foreign segment alone
	Quarantine                // rename a corrupt segment aside
)

// Config binds a Log to one directory and one consumer.
type Config struct {
	Format
	Dir string // created if missing
	// Prefix starts the append segment's name: <Prefix>-<unixnano>-<pid><Ext>.
	Prefix string
	// Identity goes into the header of every segment this log writes.
	Identity json.RawMessage
	// Check rules on each segment header found on load.
	Check func(header []byte) Verdict
	// Apply receives each checksum-verified payload in file order and
	// reports whether it decoded; false ends the segment as a torn tail.
	Apply func(payload []byte) bool
}

// Stats counts what a log loaded and how its appends went. SkippedSegments
// counts foreign or unopenable files; Quarantined counts corrupt headers
// plus the active segment after an append failure; AppendErrors includes
// the failures counted through Fail.
type Stats struct {
	Segments, SkippedSegments, Records, TornTails int
	Quarantined                                   int
	Degraded                                      bool
	Appends, AppendErrors                         int
}

// Log is an open segment log. It is not safe for concurrent use: its
// owner serializes calls under its own lock.
type Log struct {
	fs      fsio.FS
	cfg     Config
	loaded  []string  // segment paths Open replayed, removed by Rewrite
	f       fsio.File // append segment, created on the first Append
	segPath string    // published path of f
	cause   error     // first fatal append error; non-nil once degraded
	stats   Stats
}

// errTorn ends a segment at its last good record.
var errTorn = errors.New("torn frame")

// Open creates cfg.Dir if needed and replays every segment in it in name
// order through fsys (nil: fsio.OS). Corrupt segments and torn tails
// never fail Open.
func Open(fsys fsio.FS, cfg Config) (*Log, error) {
	if fsys == nil {
		fsys = fsio.OS
	}
	if cfg.Dir == "" {
		return nil, fmt.Errorf("%s: empty directory", cfg.Name)
	}
	if err := fsys.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.Name, err)
	}
	entries, err := fsys.ReadDir(cfg.Dir)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.Name, err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), cfg.Ext) {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	l := &Log{fs: fsys, cfg: cfg}
	for _, name := range names {
		l.load(filepath.Join(cfg.Dir, name))
	}
	return l, nil
}

// load replays one segment file.
func (l *Log) load(path string) {
	f, err := l.fs.Open(path)
	if err != nil {
		l.stats.SkippedSegments++
		return
	}
	hdr, ok := l.readHeader(f)
	verdict := Quarantine
	if ok {
		verdict = l.cfg.Check(hdr)
	}
	if verdict != Load {
		_ = f.Close()
		if verdict == Skip {
			l.stats.SkippedSegments++
		} else {
			l.quarantine(path)
		}
		return
	}
	good := int64(len(l.cfg.Magic) + 4 + len(hdr)) // just past the last verified record
	recs, torn := 0, false
	for {
		payload, err := l.readFrame(f)
		if err == io.EOF {
			break
		}
		if err != nil || !l.cfg.Apply(payload) {
			torn = true
			break
		}
		good += 8 + int64(len(payload))
		recs++
	}
	_ = f.Close()
	l.loaded = append(l.loaded, path)
	l.stats.Segments++
	l.stats.Records += recs
	if !torn {
		return
	}
	l.stats.TornTails++
	// Truncating under a live writer would corrupt its acknowledged
	// records, so only a segment quiet for TornTruncateAge is cut.
	if info, err := l.fs.Stat(path); err == nil && time.Since(info.ModTime()) >= TornTruncateAge {
		_ = l.fs.Truncate(path, good) // best-effort cleanup
	}
}

// readHeader verifies the magic and returns the raw JSON header.
func (l *Log) readHeader(f io.Reader) ([]byte, bool) {
	pre := make([]byte, len(l.cfg.Magic)+4)
	if _, err := io.ReadFull(f, pre); err != nil || string(pre[:len(l.cfg.Magic)]) != l.cfg.Magic {
		return nil, false
	}
	hlen := binary.LittleEndian.Uint32(pre[len(l.cfg.Magic):])
	if hlen == 0 || hlen > maxHeader {
		return nil, false
	}
	hdr := make([]byte, hlen)
	if _, err := io.ReadFull(f, hdr); err != nil {
		return nil, false
	}
	return hdr, true
}

// readFrame reads and verifies one frame. It returns io.EOF at a clean end
// of file and errTorn for any torn or corrupt frame.
func (l *Log) readFrame(f io.Reader) ([]byte, error) {
	var pre [8]byte
	if _, err := io.ReadFull(f, pre[:]); err == io.EOF {
		return nil, io.EOF
	} else if err != nil {
		return nil, errTorn
	}
	plen := binary.LittleEndian.Uint32(pre[:4])
	if plen == 0 || plen > uint32(l.cfg.MaxPayload) {
		return nil, errTorn
	}
	payload := make([]byte, plen)
	if _, err := io.ReadFull(f, payload); err != nil || crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(pre[4:]) {
		return nil, errTorn
	}
	return payload, nil
}

// quarantine renames a bad segment aside and counts it; a failed rename
// leaves the file to be retried on the next open.
func (l *Log) quarantine(path string) {
	if err := l.fs.Rename(path, path+QuarantineExt); err != nil {
		l.stats.SkippedSegments++
		return
	}
	l.stats.Quarantined++
}

// Append writes one frame (see Format.Frame) to the append segment,
// creating it on first use, and fsyncs it before returning. Once degraded,
// it returns the original cause without touching the disk.
func (l *Log) Append(frame []byte) error {
	if l.cause != nil {
		return l.cause
	}
	if l.f == nil {
		if err := l.create(); err != nil {
			return l.degrade(err)
		}
	}
	if _, err := l.f.Write(frame); err != nil {
		return l.degrade(fmt.Errorf("%s: append: %w", l.cfg.Name, err))
	}
	if err := l.f.Sync(); err != nil {
		return l.degrade(fmt.Errorf("%s: sync: %w", l.cfg.Name, err))
	}
	l.stats.Appends++
	return nil
}

// Fail counts an append that failed before reaching the disk (a record
// that would not encode) and returns err. The failure is the value's, not
// the disk's, so the log does not degrade.
func (l *Log) Fail(err error) error {
	l.stats.AppendErrors++
	return err
}

// degrade quarantines the active segment (its tail is suspect — a partial
// frame or unsynced bytes), stops appends and returns the cause.
func (l *Log) degrade(cause error) error {
	l.stats.AppendErrors++
	l.stats.Degraded = true
	l.cause = cause
	if l.f != nil {
		_ = l.f.Close()
		l.f = nil
	}
	if l.segPath != "" {
		l.quarantine(l.segPath)
		l.segPath = ""
	}
	return cause
}

// create writes the header to a temp file, fsyncs it and renames it into
// place, keeping the handle open for appends.
func (l *Log) create() error {
	name := l.cfg.Name
	tmp, err := l.fs.CreateTemp(l.cfg.Dir, l.cfg.Ext+"-tmp-*")
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	path := l.segName(l.cfg.Prefix)
	if _, err = tmp.Write(l.cfg.Header(l.cfg.Identity)); err != nil {
		err = fmt.Errorf("%s: write header: %w", name, err)
	} else if err = tmp.Sync(); err != nil {
		err = fmt.Errorf("%s: sync header: %w", name, err)
	} else if err = l.fs.Rename(tmp.Name(), path); err != nil {
		err = fmt.Errorf("%s: publish segment: %w", name, err)
	}
	if err != nil {
		_ = tmp.Close()
		_ = l.fs.Remove(tmp.Name())
		return err
	}
	// Persist the directory entry too, best-effort: some filesystems need
	// an explicit fsync of the parent for the rename to survive a crash.
	_ = fsio.SyncDir(l.fs, l.cfg.Dir)
	l.f, l.segPath = tmp, path
	return nil
}

// Rewrite publishes one segment <prefix>-<unixnano>-<pid><Ext> holding
// frames (fsio.Publish), then removes every segment Open loaded. A crash
// in between leaves both, so a consumer whose replay is idempotent over
// old and new records can compact safely.
func (l *Log) Rewrite(prefix string, frames [][]byte) error {
	buf := l.cfg.Header(l.cfg.Identity)
	for _, frame := range frames {
		buf = append(buf, frame...)
	}
	err := fsio.Publish(l.fs, l.segName(prefix), l.cfg.Ext+"-tmp-*", func(w io.Writer) error {
		_, err := w.Write(buf)
		return err
	})
	if err != nil {
		return fmt.Errorf("%s: rewrite: %w", l.cfg.Name, err)
	}
	for _, path := range l.loaded {
		_ = l.fs.Remove(path) // a survivor's records replay again, harmlessly
	}
	l.loaded = nil
	return nil
}

// segName builds a collision-resistant segment path.
func (l *Log) segName(prefix string) string {
	return filepath.Join(l.cfg.Dir, fmt.Sprintf("%s-%d-%d%s", prefix, time.Now().UnixNano(), os.Getpid(), l.cfg.Ext))
}

// Stats returns a snapshot of the load and append counters.
func (l *Log) Stats() Stats { return l.stats }

// Cause returns the error that degraded the log, or nil while it appends.
func (l *Log) Cause() error { return l.cause }

// Close syncs and closes the append segment, if one was created.
// Idempotent; a degraded log closes trivially.
func (l *Log) Close() error {
	f := l.f
	if f == nil {
		return nil
	}
	l.f, l.segPath = nil, ""
	err := f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("%s: close: %w", l.cfg.Name, err)
	}
	return nil
}
