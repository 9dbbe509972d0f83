// Package jobstore is the write-ahead job manifest behind the m3dd
// daemon's crash-tolerant serving: every accepted sweep spec and every
// state transition is appended to disk before it is acted on, so a
// restarted daemon replays the manifest, restores the ledger, and
// re-enqueues every unfinished job. Re-run cells are then served from the
// journal/result cache, so a kill -9 mid-sweep costs at most the in-flight
// cells — never a job, never a completed cell.
//
// On-disk layout: a manifest directory holds append-only segment files,
// one per writing process, in the internal/seglog format:
//
//	jobs-<unixnano>-<pid>.m3dq
//
//	offset  size  field
//	0       8     magic "M3DJOB01"
//	8       4     header length H (little-endian uint32)
//	12      H     JSON header {CreatedUnixNano}
//	12+H    ...   records, each:
//	                4  payload length L (little-endian uint32)
//	                4  CRC32 (IEEE) of the payload
//	                L  payload: JSON Record
//
// seglog owns durability and the degradation ladder: fsync'd appends,
// torn-tail cuts, quarantine of corrupt headers, and degrade-to-memory on
// a failed append — the in-memory ledger keeps answering while Append
// returns the original cause, so the daemon keeps serving with
// memory-only jobs instead of refusing traffic over a bookkeeping failure.
//
// Replay is last-writer-wins per job: records carry their wall-clock
// nanos and a state update applies only when it is not older than the
// job's latest, so segments from interleaved processes (or a compaction
// racing a crash) merge to the same ledger in any file order.
//
// Compaction: Open folds each job's record chain into one record and,
// when the manifest has accumulated enough dead weight, rewrites it as a
// single compact segment (seglog.Log.Rewrite) before removing the old
// files — crash-safe at every step because replay of old+new together is
// idempotent under the last-writer-wins rule. Jobs in the terminal
// "evicted" state are dropped from the compact image entirely.
package jobstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"vertical3d/internal/fsio"
	"vertical3d/internal/seglog"
)

const (
	segMagic = "M3DJOB01"
	segExt   = ".m3dq"

	quarantineExt   = seglog.QuarantineExt
	tornTruncateAge = seglog.TornTruncateAge

	// compactSlack is how many dead records the manifest tolerates before
	// Open rewrites it: a compact image is one record per job, so a
	// manifest is rewritten when it holds more than 2×jobs+compactSlack
	// records (every job contributes at least an accept plus a handful of
	// transitions before going stale).
	compactSlack = 64
)

// format is the .m3dq segment format.
var format = seglog.Format{Name: "jobstore", Magic: segMagic, Ext: segExt, MaxPayload: 1 << 22}

// Job states, in lifecycle order. Accepted/Queued/Running/Interrupted are
// unfinished — a restarted daemon re-enqueues them; Done/Failed/Evicted
// are terminal.
const (
	StateAccepted    = "accepted"
	StateQueued      = "queued"
	StateRunning     = "running"
	StateInterrupted = "interrupted" // shutdown landed mid-job; resume on restart
	StateDone        = "done"
	StateFailed      = "failed"
	StateEvicted     = "evicted" // dropped from the ledger; compaction forgets it
)

// Terminal reports whether a state ends a job's lifecycle. Unfinished
// (non-terminal) jobs are re-enqueued by a restarted daemon.
func Terminal(state string) bool {
	return state == StateDone || state == StateFailed || state == StateEvicted
}

// Record is one manifest frame: a job acceptance (Spec non-empty) or a
// state transition. Exported so the fuzz targets and the serving chaos
// campaigns can build frames directly.
type Record struct {
	// ID is the job id the record belongs to.
	ID string
	// Seq is the numeric sequence behind the id, persisted so a restarted
	// daemon continues numbering instead of reissuing ids.
	Seq int `json:",omitempty"`
	// State is the job state this record establishes ("" on records that
	// only carry a spec).
	State string `json:",omitempty"`
	// Spec is the accepted sweep request, verbatim JSON; set on accept
	// records and compact images.
	Spec json.RawMessage `json:",omitempty"`
	// Error is the failure message of a failed/interrupted transition.
	Error string `json:",omitempty"`
	// DeadlineUnixNano is the job's absolute deadline (0 = none).
	DeadlineUnixNano int64 `json:",omitempty"`
	// CreatedUnixNano is the job's accept time; set on accept records and
	// compact images.
	CreatedUnixNano int64 `json:",omitempty"`
	// UnixNano is the record's own wall-clock time; replay is
	// last-writer-wins on it.
	UnixNano int64
}

// Job is one replayed ledger entry.
type Job struct {
	ID       string
	Seq      int
	Spec     json.RawMessage
	State    string
	Error    string
	Deadline time.Time // zero = none
	Created  time.Time
	Updated  time.Time
}

// Stats counts what a store loaded and how it was used.
type Stats struct {
	// Segments and Records count what Open replayed; SkippedSegments
	// counts unreadable files; TornTails segments whose tail was cut.
	Segments        int `json:"segments"`
	SkippedSegments int `json:"skipped_segments"`
	Records         int `json:"records"`
	TornTails       int `json:"torn_tails"`

	// Quarantined counts segment files renamed to *.m3dq.quarantine
	// (corrupt headers on load plus the active segment after an append
	// failure). Degraded reports the store has stopped appending after an
	// I/O failure — the in-memory ledger keeps answering.
	Quarantined int  `json:"quarantined"`
	Degraded    bool `json:"degraded"`

	// Jobs is the replayed ledger size; Compacted counts manifest rewrites
	// performed by Open.
	Jobs      int `json:"jobs"`
	Compacted int `json:"compacted"`

	// Appends counts acknowledged records, AppendErrors the ones that
	// failed to reach disk.
	Appends      int `json:"appends"`
	AppendErrors int `json:"append_errors"`
}

// Store is an open job manifest: the replayed ledger plus an append-only
// segment for new records. All methods are safe for concurrent use; a nil
// *Store is valid and behaves as an empty, discard-all manifest, so the
// daemon's memory-only mode needs no guards.
type Store struct {
	mu        sync.Mutex
	jobs      map[string]*Job
	log       *seglog.Log
	compacted int
	now       func() time.Time // test seam
}

// seam is the filesystem Open routes through — the real one in
// production, an *fsio.Injector under the serving chaos campaigns.
var seam fsio.Seam

// SetFS overrides the filesystem Open uses; nil restores the real one.
// Test-only: stores opened afterwards are unaffected by later calls.
func SetFS(fs fsio.FS) { seam.Set(fs) }

// Open replays every manifest segment of dir (creating the directory if
// needed), compacts the manifest when it has accumulated enough dead
// records, and returns a store ready for Append on the default filesystem
// (see SetFS). See OpenFS.
func Open(dir string) (*Store, error) {
	return OpenFS(seam.Get(), dir)
}

// OpenFS is Open over an explicit filesystem seam (chaos tests pass an
// *fsio.Injector).
func OpenFS(fsys fsio.FS, dir string) (*Store, error) {
	s := &Store{jobs: map[string]*Job{}, now: time.Now}
	// Name order is cosmetic: replay is last-writer-wins on record time,
	// so any file order converges to the same ledger.
	log, err := seglog.Open(fsys, seglog.Config{
		Format: format,
		Dir:    dir,
		Prefix: "jobs",
		Check: func(header []byte) seglog.Verdict {
			if json.Valid(header) {
				return seglog.Load
			}
			return seglog.Quarantine
		},
		Apply: s.replay,
	})
	if err != nil {
		return nil, err
	}
	s.log = log
	s.compact()
	return s, nil
}

// replay applies one loaded payload; one that does not decode to a record
// with a job id ends the segment as a torn tail.
func (s *Store) replay(payload []byte) bool {
	var rec Record
	if json.Unmarshal(payload, &rec) != nil || rec.ID == "" {
		return false
	}
	s.apply(rec)
	return true
}

// apply merges one record into the ledger: a record with a spec
// (re)creates the job; a record with a state applies it unless the ledger
// already holds a newer transition (last-writer-wins, so interleaved
// segments merge in any order). Transitions for unknown jobs — an accept
// record lost to a torn tail — are dropped: a job the daemon cannot
// respawn is not worth a ghost ledger row.
func (s *Store) apply(rec Record) {
	if rec.ID == "" {
		return
	}
	j := s.jobs[rec.ID]
	if j == nil {
		if len(rec.Spec) == 0 {
			return
		}
		created := rec.CreatedUnixNano
		if created == 0 {
			created = rec.UnixNano
		}
		j = &Job{
			ID:      rec.ID,
			Seq:     rec.Seq,
			Spec:    rec.Spec,
			State:   StateAccepted,
			Created: time.Unix(0, created),
			Updated: time.Unix(0, rec.UnixNano),
		}
		s.jobs[rec.ID] = j
	} else if len(rec.Spec) > 0 && len(j.Spec) == 0 {
		j.Spec = rec.Spec
	}
	if rec.DeadlineUnixNano != 0 {
		j.Deadline = time.Unix(0, rec.DeadlineUnixNano)
	}
	if rec.State != "" && !time.Unix(0, rec.UnixNano).Before(j.Updated) {
		j.State = rec.State
		j.Error = rec.Error
		j.Updated = time.Unix(0, rec.UnixNano)
	}
}

// compact rewrites the manifest as one compact segment when the replayed
// record count has outgrown the ledger (every dead transition is a record
// the next hundred restarts re-parse), through seglog's Rewrite: old and
// compact records merge idempotently, so a crash at any point leaves a
// manifest that replays to the same ledger. Evicted jobs are dropped
// from the image; their history dies with the old files.
func (s *Store) compact() {
	if s.log.Stats().Records <= 2*len(s.jobs)+compactSlack {
		return
	}
	var frames [][]byte
	for _, j := range s.sorted() {
		if j.State == StateEvicted {
			continue
		}
		rec := Record{
			ID:              j.ID,
			Seq:             j.Seq,
			State:           j.State,
			Spec:            j.Spec,
			Error:           j.Error,
			CreatedUnixNano: j.Created.UnixNano(),
			UnixNano:        j.Updated.UnixNano(),
		}
		if !j.Deadline.IsZero() {
			rec.DeadlineUnixNano = j.Deadline.UnixNano()
		}
		frame, err := frameRecord(rec)
		if err != nil {
			return // compaction is best-effort; the fat manifest still replays
		}
		frames = append(frames, frame)
	}
	if s.log.Rewrite("jobsc", frames) != nil {
		return
	}
	for id, j := range s.jobs {
		if j.State == StateEvicted {
			delete(s.jobs, id)
		}
	}
	s.compacted++
}

// headerBytes renders the segment preamble: magic, header length, header.
func headerBytes() []byte { return format.Header(nil) }

// frameRecord renders one CRC-framed record.
func frameRecord(rec Record) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("jobstore: encode record %q: %w", rec.ID, err)
	}
	return format.Frame(payload)
}

// Accept records a newly admitted job: its id, sequence number, sweep
// spec and optional deadline. The append is fsync'd before Accept
// returns; the write happens before the daemon acts on the job, which is
// what makes the manifest write-ahead. The in-memory ledger is updated
// even when the disk append fails (memory-only degraded mode), so the
// daemon's live job table never forks from the store. A nil store
// discards. Concurrency-safe.
func (s *Store) Accept(id string, seq int, spec any, deadline time.Time) error {
	if s == nil {
		return nil
	}
	raw, err := json.Marshal(spec)
	if err != nil {
		return fmt.Errorf("jobstore: encode spec %q: %w", id, err)
	}
	now := s.now()
	rec := Record{
		ID:              id,
		Seq:             seq,
		State:           StateAccepted,
		Spec:            raw,
		CreatedUnixNano: now.UnixNano(),
		UnixNano:        now.UnixNano(),
	}
	if !deadline.IsZero() {
		rec.DeadlineUnixNano = deadline.UnixNano()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.apply(rec)
	return s.appendLocked(rec)
}

// Transition records a job state change (and, for failures, the message).
// The in-memory ledger is updated even when the disk append fails. A nil
// store discards. Concurrency-safe.
func (s *Store) Transition(id, state, errMsg string) error {
	if s == nil {
		return nil
	}
	if state == "" {
		return errors.New("jobstore: empty state")
	}
	rec := Record{ID: id, State: state, Error: errMsg, UnixNano: s.now().UnixNano()}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.jobs[id] == nil {
		return fmt.Errorf("jobstore: transition for unknown job %q", id)
	}
	s.apply(rec)
	return s.appendLocked(rec)
}

// appendLocked frames and appends one record, fsync'd. Called with s.mu
// held. A failed write, sync or segment creation quarantines the active
// segment and degrades the store.
func (s *Store) appendLocked(rec Record) error {
	if err := s.log.Cause(); err != nil {
		return err
	}
	frame, err := frameRecord(rec)
	if err != nil {
		return s.log.Fail(err)
	}
	return s.log.Append(frame)
}

// Jobs returns the replayed ledger sorted by sequence number (creation
// order). The specs are shared read-only slices; callers must not mutate
// them. A nil store returns nil.
func (s *Store) Jobs() []Job {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sorted()
}

// sorted copies the ledger in (Seq, ID) order.
func (s *Store) sorted() []Job {
	out := make([]Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, *j)
	}
	sort.Slice(out, func(i, k int) bool {
		if out[i].Seq != out[k].Seq {
			return out[i].Seq < out[k].Seq
		}
		return out[i].ID < out[k].ID
	})
	return out
}

// MaxSeq returns the highest job sequence number in the ledger, so a
// restarted daemon continues numbering instead of reissuing ids.
func (s *Store) MaxSeq() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	maxSeq := 0
	for _, j := range s.jobs {
		maxSeq = max(maxSeq, j.Seq)
	}
	return maxSeq
}

// Stats returns a snapshot of the load/append counters.
func (s *Store) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	ls := s.log.Stats()
	return Stats{
		Segments:        ls.Segments,
		SkippedSegments: ls.SkippedSegments,
		Records:         ls.Records,
		TornTails:       ls.TornTails,
		Quarantined:     ls.Quarantined,
		Degraded:        ls.Degraded,
		Jobs:            len(s.jobs),
		Compacted:       s.compacted,
		Appends:         ls.Appends,
		AppendErrors:    ls.AppendErrors,
	}
}

// DegradedCause returns the error that degraded the store, or nil while
// it is still appending (a nil store is trivially healthy).
func (s *Store) DegradedCause() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.log.Cause()
}

// Close flushes and closes the append segment (if one was created).
// Idempotent; a nil or degraded store closes trivially.
func (s *Store) Close() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.log.Close()
}
