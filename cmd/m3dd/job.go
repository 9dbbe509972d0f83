package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"vertical3d/internal/jobstore"
	"vertical3d/internal/journal"
	"vertical3d/internal/workload"
)

// sweepRequest is the POST /sweeps body.
type sweepRequest struct {
	// Experiment is one of fig6, fig9, lpstudy, table3, table4, table5,
	// table6.
	Experiment string `json:"experiment"`
	// Benchmarks defaults to the experiment's full suite; the tables take
	// none.
	Benchmarks []string `json:"benchmarks,omitempty"`
	// Warmup/Measure size fig6 and lpstudy cells (Warmup is per-core for
	// fig9); 0 keeps the server default.
	Warmup  uint64 `json:"warmup,omitempty"`
	Measure uint64 `json:"measure,omitempty"`
	// Instrs and Phases size fig9 (total parallel work, barrier phases).
	Instrs uint64 `json:"instrs,omitempty"`
	Phases int    `json:"phases,omitempty"`
	// Seed overrides the default seed (42); a pointer so 0 is expressible.
	Seed *int64 `json:"seed,omitempty"`
	// Sample enables interval sampling, Workers the sweep's pool size,
	// KeepGoing the complete-through-failures mode.
	Sample    bool `json:"sample,omitempty"`
	Workers   int  `json:"workers,omitempty"`
	KeepGoing bool `json:"keep_going,omitempty"`
}

// experimentNames is the accepted experiment set, in rendering order.
var experimentNames = []string{"fig6", "fig9", "lpstudy", "table3", "table4", "table5", "table6"}

// lpDefaultBenchmarks is the LP study's benchmark subset (Section 7.1.2).
var lpDefaultBenchmarks = []string{"Gamess", "Mcf", "Povray", "Milc"}

// decodeSpec decodes and validates a POST /sweeps body: at most 1 MiB,
// unknown fields refused, then validate.
func decodeSpec(w http.ResponseWriter, body io.ReadCloser) (sweepRequest, error) {
	var req sweepRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, fmt.Errorf("bad request body: %w", err)
	}
	return req, req.validate()
}

// validate normalises the request and reports the first problem.
func (r *sweepRequest) validate() error {
	ok := false
	for _, n := range experimentNames {
		if r.Experiment == n {
			ok = true
		}
	}
	if !ok {
		return fmt.Errorf("unknown experiment %q (want one of %v)", r.Experiment, experimentNames)
	}
	switch r.Experiment {
	case "table3", "table4", "table5", "table6":
		if len(r.Benchmarks) > 0 {
			return fmt.Errorf("experiment %s takes no benchmarks", r.Experiment)
		}
	default:
		for _, b := range r.Benchmarks {
			if _, err := workload.ByName(b); err != nil {
				return err
			}
		}
	}
	if r.Workers < 0 {
		return fmt.Errorf("workers must be >= 0, got %d", r.Workers)
	}
	if r.Phases < 0 {
		return fmt.Errorf("phases must be >= 0, got %d", r.Phases)
	}
	return nil
}

// job is one accepted sweep and everything the API serves about it.
type job struct {
	id       string
	req      sweepRequest
	identity journal.Identity // the content address the sweep runs under
	deadline time.Time        // zero = none
	restored bool             // replayed from the manifest at boot

	// simulated counts cells that reached the simulator (cache, coalesced
	// and journal serves don't); accessed atomically from sweep workers.
	simulated atomic.Uint64

	mu       sync.Mutex
	state    string // jobstore.StateQueued | StateRunning | StateDone | StateFailed
	err      string
	result   *sweepResultView
	resBytes int64 // canonical-JSON size of result, for memory accounting
	created  time.Time
	finished time.Time
	evicted  bool

	// events is a bounded ring of the job's progress stream: at most
	// eventCap events are retained, eventsLost counts the trimmed ones and
	// firstSeq is the absolute sequence number of events[0]. A subscriber
	// that has fallen behind the ring is handed a "lost" marker carrying
	// the gap and resumes from firstSeq.
	events     []jobEvent
	firstSeq   int
	eventsLost int
	eventCap   int
	notify     chan struct{} // closed and replaced on every append
}

// jobEvent is one SSE frame of a job's progress stream.
type jobEvent struct {
	Seq   int    `json:"seq"`
	Type  string `json:"type"` // state | cell | done | failed | evicted | lost
	State string `json:"state,omitempty"`
	Cell  string `json:"cell,omitempty"`
	Error string `json:"error,omitempty"`
	// Lost is the number of events trimmed from the ring between the
	// subscriber's position and this frame (type "lost" only).
	Lost int `json:"lost,omitempty"`
}

// emitLocked appends an event, trims the ring to eventCap and wakes every
// subscriber. Callers hold j.mu.
func (j *job) emitLocked(ev jobEvent) {
	ev.Seq = j.firstSeq + len(j.events)
	j.events = append(j.events, ev)
	if j.eventCap > 0 && len(j.events) > j.eventCap {
		drop := len(j.events) - j.eventCap
		// Trim in place: subscribers copy under the lock, so compacting the
		// backing array never races a reader.
		j.events = append(j.events[:0], j.events[drop:]...)
		j.firstSeq += drop
		j.eventsLost += drop
	}
	close(j.notify)
	j.notify = make(chan struct{})
}

// setState transitions the job and emits the matching event.
func (j *job) setState(state string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = state
	j.emitLocked(jobEvent{Type: "state", State: state})
}

// finish transitions to the terminal state, result and event atomically, so
// an SSE subscriber that observes the terminal state has already been handed
// the final event.
func (j *job) finish(view *sweepResultView, err error) {
	var size int64
	if err == nil && view != nil {
		if raw, merr := json.Marshal(view); merr == nil {
			size = int64(len(raw))
		}
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.finished = time.Now()
	if err != nil {
		j.state = jobstore.StateFailed
		j.err = err.Error()
		j.emitLocked(jobEvent{Type: "failed", State: jobstore.StateFailed, Error: j.err})
		return
	}
	j.state = jobstore.StateDone
	j.result = view
	j.resBytes = size
	j.emitLocked(jobEvent{Type: "done", State: jobstore.StateDone})
}

// terminal reports whether the job has reached done or failed.
func (j *job) terminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return jobstore.Terminal(j.state)
}

// resultSize is the retained result's canonical-JSON size in bytes.
func (j *job) resultSize() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.resBytes
}

// evict marks the job evicted and emits the final "evicted" event: any
// live SSE subscriber wakes, streams the marker and terminates instead of
// hanging on a job the ledger has forgotten.
func (j *job) evict() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.evicted = true
	j.emitLocked(jobEvent{Type: "evicted", State: j.state})
}

// jobView is the GET /sweeps/{id} document.
type jobView struct {
	ID         string           `json:"id"`
	Experiment string           `json:"experiment"`
	State      string           `json:"state"`
	Error      string           `json:"error,omitempty"`
	Created    time.Time        `json:"created"`
	Deadline   *time.Time       `json:"deadline,omitempty"`
	Restored   bool             `json:"restored,omitempty"`
	Simulated  uint64           `json:"simulated_cells"`
	Result     *sweepResultView `json:"result,omitempty"`
}

func (j *job) view(withResult bool) jobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := jobView{
		ID:         j.id,
		Experiment: j.req.Experiment,
		State:      j.state,
		Error:      j.err,
		Created:    j.created,
		Restored:   j.restored,
		Simulated:  j.simulated.Load(),
	}
	if !j.deadline.IsZero() {
		d := j.deadline
		v.Deadline = &d
	}
	if withResult {
		v.Result = j.result
	}
	return v
}
