// Package journal is the write-ahead, per-cell result journal behind the
// experiment pipeline's crash-safe sweeps (-journal-dir in the command-line
// binaries). A large design-space sweep — Fig. 6/9, the strategy tables,
// the LP study — is a set of independent (benchmark × design) cells, each a
// pure function of its identity tuple (profile, design, config, sizing,
// seed, kernel). The journal checkpoints every completed cell to disk the
// moment it finishes, so a panic storm, an OOM kill or a plain Ctrl-C
// throws away at most the in-flight cells: a re-run with the same journal
// directory skips every journaled cell and merges its recorded result
// bit-identically into the new sweep.
//
// On-disk layout: a journal directory holds append-only segment files, one
// per writing process, in the internal/seglog format:
//
//	<experiment>-<identity fnv64>-<unixnano>-<pid>.m3dj
//
//	offset  size  field
//	0       8     magic "M3DJNL01"
//	8       4     header length H (little-endian uint32)
//	12      H     JSON header {Identity, CreatedUnixNano}
//	12+H    ...   records, each:
//	                4  payload length L (little-endian uint32)
//	                4  CRC32 (IEEE) of the payload
//	                L  payload: JSON {"K": cell key, "V": result}
//
// seglog owns durability and the degradation ladder: fsync'd appends,
// torn-tail cuts, quarantine of corrupt headers, and degrade-to-memory on
// a failed append (Lookup keeps serving the in-memory index while Record
// returns the original cause, surfaced through Stats().Degraded and
// DegradedCause()). The journal adds the identity check — segments of
// other sweeps (or other sizings of the same sweep) in a shared directory
// are skipped, never merged — and the cell index.
//
// The package depends only on the standard library plus fsio and seglog,
// so every layer of the pipeline (parallel, experiments, multicore, the
// cmds) can import it without cycles.
package journal

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"slices"
	"strings"
	"sync"

	"vertical3d/internal/fsio"
	"vertical3d/internal/seglog"
)

const (
	segMagic = "M3DJNL01"
	segExt   = ".m3dj"

	quarantineExt   = seglog.QuarantineExt
	tornTruncateAge = seglog.TornTruncateAge
)

// format is the .m3dj segment format.
var format = seglog.Format{Name: "journal", Magic: segMagic, Ext: segExt, MaxPayload: 1 << 26}

// Param is one key/value pair of a sweep identity.
type Param struct {
	Key   string
	Value string
}

// Params builds a parameter list from alternating key/value strings.
// It panics on an odd argument count — identities are built from literals.
func Params(kv ...string) []Param {
	if len(kv)%2 != 0 {
		panic("journal: Params needs alternating key/value pairs")
	}
	out := make([]Param, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		out = append(out, Param{Key: kv[i], Value: kv[i+1]})
	}
	return out
}

// Identity pins a journal to one sweep definition: the experiment name
// plus every parameter that changes cell results (sizing, seed, kernel —
// but never the worker count or the design order, which are merge-neutral
// by the pipeline's determinism contract). Segments whose identity does
// not match are skipped on load, so several sweeps can share a directory.
type Identity struct {
	Experiment string
	Params     []Param
}

// Hash folds the identity into the 64-bit FNV-1a fingerprint used in
// segment file names.
func (id Identity) Hash() uint64 {
	h := fnv.New64a()
	io.WriteString(h, id.Experiment)
	for _, p := range id.Params {
		io.WriteString(h, "|")
		io.WriteString(h, p.Key)
		io.WriteString(h, "=")
		io.WriteString(h, p.Value)
	}
	return h.Sum64()
}

// String renders the identity for log lines.
func (id Identity) String() string {
	var b strings.Builder
	b.WriteString(id.Experiment)
	for _, p := range id.Params {
		fmt.Fprintf(&b, " %s=%s", p.Key, p.Value)
	}
	return b.String()
}

// equal reports field-wise equality (order-sensitive: identities are
// built from literals, so the order is canonical).
func (id Identity) equal(o Identity) bool {
	return id.Experiment == o.Experiment && slices.Equal(id.Params, o.Params)
}

// segHeader is the JSON header of a segment file.
type segHeader struct {
	Identity        Identity
	CreatedUnixNano int64
}

// record is the JSON payload of one journal frame.
type record struct {
	K string
	V json.RawMessage
}

// Stats counts what a journal loaded and how it was used. The Hits counter
// is the resume oracle's witness that journaled cells were merged, not
// re-executed.
type Stats struct {
	// Segments and Records count what Open loaded for this identity;
	// SkippedSegments counts files in the directory belonging to other
	// identities (or that could not be opened). TornTails counts segments
	// whose tail was cut at the last good record.
	Segments        int
	SkippedSegments int
	Records         int
	TornTails       int

	// Quarantined counts segment files renamed to *.m3dj.quarantine:
	// corrupt headers found on load plus the active segment after an
	// append failure. Degraded reports the journal has stopped appending
	// after an I/O failure (Lookup still serves the in-memory index).
	Quarantined int
	Degraded    bool

	// Hits and Misses count Lookup outcomes; Appends counts recorded
	// cells and AppendErrors the appends that failed to reach disk.
	Hits         int
	Misses       int
	Appends      int
	AppendErrors int
}

// Journal is an open per-sweep result journal: an in-memory index of every
// previously journaled cell plus an append-only segment for newly
// completed ones. All methods are safe for concurrent use by the worker
// pool; a nil *Journal is valid and behaves as an always-miss, discard-all
// journal, so call sites need no guards.
type Journal struct {
	mu           sync.Mutex
	id           Identity
	cells        map[string]json.RawMessage
	log          *seglog.Log
	hits, misses int
}

// seam is the filesystem Open routes through — the real one in
// production, an *fsio.Injector under the chaos campaigns that drive the
// whole sweep stack (experiments → journal) through injected storage
// faults without plumbing an FS through every layer.
var seam fsio.Seam

// SetFS overrides the filesystem Open uses; nil restores the real one.
// Test-only: journals opened afterwards are unaffected by later calls.
func SetFS(fs fsio.FS) { seam.Set(fs) }

// Open loads every matching segment of dir (creating the directory if
// needed) and returns a journal ready for Lookup/Record on the default
// filesystem (see SetFS). See OpenFS.
func Open(dir string, id Identity) (*Journal, error) {
	return OpenFS(seam.Get(), dir, id)
}

// OpenFS is Open over an explicit filesystem seam (chaos tests pass an
// *fsio.Injector). Segments with a foreign identity are skipped; segments
// with a corrupt magic or header are quarantined; torn tails are cut (and
// stale ones physically truncated). The append segment is created lazily
// on the first Record, so re-running a fully journaled sweep leaves the
// directory untouched.
func OpenFS(fsys fsio.FS, dir string, id Identity) (*Journal, error) {
	if id.Experiment == "" {
		return nil, errors.New("journal: identity needs an experiment name")
	}
	ident, _ := json.Marshal(id) // plain strings: cannot fail
	j := &Journal{id: id, cells: map[string]json.RawMessage{}}
	// Name order makes the merge deterministic; within one identity all
	// values for a key are bit-identical by the determinism contract, so
	// order only breaks ties between identical payloads.
	var err error
	j.log, err = seglog.Open(fsys, seglog.Config{
		Format:   format,
		Dir:      dir,
		Prefix:   fmt.Sprintf("%s-%016x", fsio.SafeName(id.Experiment), id.Hash()),
		Identity: ident,
		Check:    j.check,
		Apply:    j.apply,
	})
	if err != nil {
		return nil, err
	}
	return j, nil
}

// check admits segments of this journal's identity, skips well-formed
// foreign ones and quarantines headers that do not decode.
func (j *Journal) check(header []byte) seglog.Verdict {
	var hdr segHeader
	switch {
	case json.Unmarshal(header, &hdr) != nil:
		return seglog.Quarantine
	case !hdr.Identity.equal(j.id):
		return seglog.Skip
	}
	return seglog.Load
}

// apply indexes one replayed record; a payload that does not decode to a
// keyed record ends the segment as a torn tail.
func (j *Journal) apply(payload []byte) bool {
	var rec record
	if json.Unmarshal(payload, &rec) != nil || rec.K == "" {
		return false
	}
	j.cells[rec.K] = rec.V
	return true
}

// Lookup unmarshals the journaled result of a cell into out and reports
// whether the cell was found. A nil journal (or an undecodable record)
// misses. Concurrency-safe.
func (j *Journal) Lookup(key string, out any) bool {
	raw, ok := j.LookupRaw(key)
	// Unmarshal outside the lock: raw is never mutated once stored.
	if ok && json.Unmarshal(raw, out) != nil {
		j.mu.Lock()
		j.hits--
		j.misses++
		j.mu.Unlock()
		return false
	}
	return ok
}

// LookupRaw returns the journaled result of a cell as its canonical JSON
// encoding, without decoding it — the read path of the result cache's disk
// tier, which stores and re-serves exactly these bytes so a cached cell is
// byte-identical to a journal-resumed one. The returned slice is never
// mutated after being stored; callers must treat it as read-only. A nil
// journal misses. Concurrency-safe; counted in Stats like Lookup.
func (j *Journal) LookupRaw(key string) (json.RawMessage, bool) {
	if j == nil {
		return nil, false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	raw, ok := j.cells[key]
	if ok {
		j.hits++
	} else {
		j.misses++
	}
	return raw, ok
}

// Record journals a completed cell: the append is fsync'd before Record
// returns, so an acknowledged cell survives any later crash. The value
// must round-trip through JSON bit-identically (plain exported structs of
// finite floats, integers and strings — every sweep result type in this
// repository qualifies). A nil journal discards. Concurrency-safe.
//
// A failed write, sync or segment creation quarantines the active segment
// and degrades the journal: this and every later Record return the
// original cause without touching the disk, while Lookup keeps serving
// the in-memory index. Degradation is observable through Stats().Degraded
// and DegradedCause().
func (j *Journal) Record(key string, v any) error {
	if j == nil {
		return nil
	}
	if key == "" {
		return errors.New("journal: empty cell key")
	}
	raw, err := json.Marshal(v)
	if err != nil {
		return j.failed(fmt.Errorf("journal: encode %q: %w", key, err))
	}
	payload, err := json.Marshal(record{K: key, V: raw})
	if err != nil {
		return j.failed(fmt.Errorf("journal: frame %q: %w", key, err))
	}
	frame, err := format.Frame(payload)
	if err != nil {
		return j.failed(err)
	}

	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.log.Append(frame); err != nil {
		return err
	}
	j.cells[key] = raw
	return nil
}

// failed counts an append that failed before reaching the log. Encoding
// failures are per-value, not a sick disk, so they do not degrade the
// journal.
func (j *Journal) failed(err error) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.log.Fail(err)
}

// Len returns the number of distinct journaled cells currently indexed.
func (j *Journal) Len() int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.cells)
}

// Stats returns a snapshot of the load/hit/append counters.
func (j *Journal) Stats() Stats {
	if j == nil {
		return Stats{}
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	ls := j.log.Stats()
	return Stats{
		Segments:        ls.Segments,
		SkippedSegments: ls.SkippedSegments,
		Records:         ls.Records,
		TornTails:       ls.TornTails,
		Quarantined:     ls.Quarantined,
		Degraded:        ls.Degraded,
		Hits:            j.hits,
		Misses:          j.misses,
		Appends:         ls.Appends,
		AppendErrors:    ls.AppendErrors,
	}
}

// DegradedCause returns the error that degraded the journal, or nil while
// it is still appending (a nil journal is trivially healthy).
func (j *Journal) DegradedCause() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.log.Cause()
}

// Close flushes and closes the append segment (if one was created).
// Idempotent; a nil or degraded journal closes trivially.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.log.Close()
}

// CellKey builds the canonical per-cell journal key: a readable
// "<bench>/<design>" prefix plus the FNV-64a fingerprint of every value
// in the cell's identity tuple (profile contents, derived configuration,
// sizing, seed, kernel), rendered via %+v. Two cells agree on a key only
// when every input that could change their result agrees.
//
// Callers must pass values whose %+v rendering is deterministic — structs
// of plain data, not pointers or funcs.
func CellKey(bench, design string, identity ...any) string {
	h := fnv.New64a()
	for _, v := range identity {
		fmt.Fprintf(h, "%+v|", v)
	}
	return fmt.Sprintf("%s/%s#%016x", bench, design, h.Sum64())
}
