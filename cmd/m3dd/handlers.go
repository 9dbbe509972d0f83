package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"vertical3d/internal/experiments"
	"vertical3d/internal/jobstore"
	"vertical3d/internal/resultcache"
	"vertical3d/internal/trace"
	"vertical3d/internal/warm"
)

// routes builds the HTTP surface.
func (s *server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /sweeps", s.handleCreate)
	mux.HandleFunc("GET /sweeps", s.handleList)
	mux.HandleFunc("GET /sweeps/{id}", s.handleGet)
	mux.HandleFunc("GET /sweeps/{id}/cells", s.handleCells)
	mux.HandleFunc("GET /sweeps/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /statsz", s.handleStatsz)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// deadlineHeader and deadlineQuery carry a request's absolute or relative
// deadline: a Go duration ("90s", "2m") relative to arrival, or an RFC 3339
// timestamp. The header wins when both are set.
const deadlineHeader = "X-M3D-Deadline"

// parseDeadline resolves the request's deadline (zero time = none).
func parseDeadline(r *http.Request) (time.Time, error) {
	raw := r.Header.Get(deadlineHeader)
	if raw == "" {
		raw = r.URL.Query().Get("deadline")
	}
	if raw == "" {
		return time.Time{}, nil
	}
	if d, err := time.ParseDuration(raw); err == nil {
		if d <= 0 {
			return time.Time{}, fmt.Errorf("deadline duration must be positive, got %q", raw)
		}
		return time.Now().Add(d), nil
	}
	t, err := time.Parse(time.RFC3339, raw)
	if err != nil {
		return time.Time{}, fmt.Errorf("deadline %q is neither a duration nor RFC 3339", raw)
	}
	return t, nil
}

// handleCreate is the admission gate: validate, resolve the deadline,
// write-ahead the accepted spec, enqueue, and answer 202 — or shed with an
// explicit status the client can act on (503 draining, 400 bad/expired
// deadline, 429 + Retry-After over a full queue).
func (s *server) handleCreate(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() || s.ctx.Err() != nil {
		writeError(w, http.StatusServiceUnavailable, "m3dd is draining")
		return
	}
	req, err := decodeSpec(w, r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	deadline, err := parseDeadline(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if !deadline.IsZero() && !deadline.After(time.Now()) {
		s.mu.Lock()
		s.admission.DeadlineRejected++
		s.mu.Unlock()
		writeError(w, http.StatusBadRequest, "deadline %s already expired", deadline.Format(time.RFC3339))
		return
	}

	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, "m3dd is draining")
		return
	}
	if len(s.queue) >= s.cfg.QueueDepth {
		queued := len(s.queue)
		s.admission.Shed++
		s.mu.Unlock()
		// Retry-After scales with the backlog: a deeper queue means a
		// longer wait before a slot is worth asking for again.
		retry := min(60, max(1, queued/max(1, s.cfg.MaxSweeps)))
		w.Header().Set("Retry-After", strconv.Itoa(retry))
		writeError(w, http.StatusTooManyRequests, "queue full (%d sweep(s) queued); retry after %ds", queued, retry)
		return
	}
	s.seq++
	j := s.newJobLocked(fmt.Sprintf("s%06d", s.seq), req)
	j.deadline = deadline
	s.admission.Accepted++
	// Write-ahead: the spec reaches the manifest before the job reaches
	// the queue, so an accepted sweep survives any later crash. An append
	// failure degrades to memory-only jobs — it never refuses the request.
	if s.store != nil {
		if err := s.store.Accept(j.id, s.seq, req, deadline); err != nil {
			s.noteStoreFailure(err)
		} else if terr := s.store.Transition(j.id, jobstore.StateQueued, ""); terr != nil {
			s.noteStoreFailure(terr)
		}
	}
	s.wg.Add(1)
	s.queue = append(s.queue, j)
	s.evictLocked()
	s.kickLocked()
	s.mu.Unlock()

	writeJSON(w, http.StatusAccepted, map[string]string{
		"id":  j.id,
		"url": "/sweeps/" + j.id,
	})
}

func (s *server) lookup(w http.ResponseWriter, r *http.Request) *job {
	s.mu.Lock()
	j := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if j == nil {
		writeError(w, http.StatusNotFound, "no sweep %q", r.PathValue("id"))
	}
	return j
}

func (s *server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	views := make([]jobView, 0, len(s.order))
	for _, id := range s.order {
		views = append(views, s.jobs[id].view(false))
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"sweeps": views})
}

func (s *server) handleGet(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	writeJSON(w, http.StatusOK, j.view(true))
}

func (s *server) handleCells(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	j.mu.Lock()
	state := j.state
	var cells []cellView
	if j.result != nil {
		cells = j.result.Cells
	}
	j.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"state": state, "cells": cells})
}

// handleEvents streams a job's progress as server-sent events. The stream
// replays the retained event window — the ring holds the last EventCap
// events; a subscriber that has fallen behind it receives a "lost" marker
// carrying the gap, then resumes from the oldest retained event — and then
// follows live. It ends after the terminal done/failed event, after an
// "evicted" marker when the ledger drops the job mid-stream, when the
// client disconnects, or at daemon shutdown.
func (s *server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	writeEvent := func(ev jobEvent) {
		data, _ := json.Marshal(ev)
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, data)
	}

	next := 0 // absolute sequence number of the next event to stream
	for {
		j.mu.Lock()
		var lost int
		if next < j.firstSeq {
			lost = j.firstSeq - next
			next = j.firstSeq
		}
		// Copy under the lock: the ring trims in place, so streaming a live
		// subslice outside the lock would race the writer.
		pending := append([]jobEvent(nil), j.events[next-j.firstSeq:]...)
		terminal := jobstore.Terminal(j.state) || j.evicted
		notify := j.notify
		j.mu.Unlock()

		if lost > 0 {
			writeEvent(jobEvent{Seq: next - 1, Type: "lost", Lost: lost})
		}
		for _, ev := range pending {
			writeEvent(ev)
			next++
		}
		flusher.Flush()
		// The terminal event is appended in the same critical section as the
		// terminal state, so observing the state means it was in pending.
		if terminal {
			return
		}
		select {
		case <-notify:
		case <-r.Context().Done():
			return
		case <-s.ctx.Done():
			return
		}
	}
}

// healthzView is the GET /healthz document. The status is "ok" or
// "degraded" — a degraded node is still serving (every rung of the
// degradation ladder keeps answering traffic), so the HTTP status stays
// 200 and load balancers that only look at the code keep routing to it;
// ones that parse the body can prefer healthy peers. Only draining flips
// the code to 503.
type healthzView struct {
	Status string `json:"status"` // ok | degraded | draining
	// JobStore is the manifest's mode: "ok" (persisting), "memory-only"
	// (unusable or append-degraded), "disabled" (no -job-dir).
	JobStore string `json:"jobstore"`
	Queued   int    `json:"queued"`
	Running  int    `json:"running"`
	Depth    int    `json:"queue_depth"`
	// Degraded lists the layers with recorded degradation events.
	Degraded []string `json:"degraded,omitempty"`
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, healthzView{Status: "draining", JobStore: s.jobstoreMode()})
		return
	}
	v := healthzView{Status: "ok", JobStore: s.jobstoreMode(), Depth: s.cfg.QueueDepth}
	s.mu.Lock()
	v.Queued = len(s.queue)
	v.Running = s.running
	s.mu.Unlock()
	seen := map[string]bool{}
	for _, ev := range s.healthSnapshot() {
		if !seen[ev.Layer] {
			seen[ev.Layer] = true
			v.Degraded = append(v.Degraded, ev.Layer)
		}
	}
	if v.JobStore == "memory-only" && !seen["jobstore"] {
		v.Degraded = append(v.Degraded, "jobstore")
	}
	if len(v.Degraded) > 0 {
		v.Status = "degraded"
	}
	writeJSON(w, http.StatusOK, v)
}

// jobstoreMode names the manifest's current mode for /healthz and /statsz.
func (s *server) jobstoreMode() string {
	if s.cfg.JobDir == "" {
		return "disabled"
	}
	if s.store == nil || s.store.DegradedCause() != nil || s.storeNoted.Load() {
		return "memory-only"
	}
	return "ok"
}

// statszView is the GET /statsz document: the cache's hit/coalesce/disk
// counters, the simulator caches' resident entries, the job ledger, the
// queue and admission counters, the manifest's state, and the degradation
// events of recent sweeps.
type statszView struct {
	Cache         resultcache.Stats              `json:"cache"`
	Resident      residentView                   `json:"resident"`
	Jobs          map[string]int                 `json:"jobs"`
	Queued        int                            `json:"queued"`
	Running       int                            `json:"running"`
	QueueDepth    int                            `json:"queue_depth"`
	Admission     admissionStats                 `json:"admission"`
	JobStore      string                         `json:"jobstore"`
	JobStoreStats *jobstore.Stats                `json:"jobstore_stats,omitempty"`
	ResultBytes   int64                          `json:"result_bytes"`
	EventsLost    int                            `json:"events_lost"`
	Experiments   []string                       `json:"experiments"`
	Health        []experiments.DegradationEvent `json:"health,omitempty"`
	UptimeSeconds float64                        `json:"uptime_seconds"`
}

// residentView reports what the process-wide trace and tape caches hold.
// Running sweeps hold their entries and release them when they return, so
// every count is 0 on an idle daemon.
type residentView struct {
	TraceRecordings int `json:"trace_recordings"`
	TraceBytes      int `json:"trace_bytes"`
	ProbeTapes      int `json:"probe_tapes"`
	ProbeTapeBytes  int `json:"probe_tape_bytes"`
}

// resident reads the trace and tape registries.
func resident() residentView {
	tapes, tapeBytes := warm.ResidentTapes()
	return residentView{
		TraceRecordings: trace.CachedRecordings(),
		TraceBytes:      trace.CachedBytes(),
		ProbeTapes:      tapes,
		ProbeTapeBytes:  tapeBytes,
	}
}

func (s *server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	v := statszView{
		Cache:         s.cache.Stats(),
		Resident:      resident(),
		Jobs:          map[string]int{},
		QueueDepth:    s.cfg.QueueDepth,
		JobStore:      s.jobstoreMode(),
		Experiments:   experimentNames,
		UptimeSeconds: time.Since(s.start).Seconds(),
	}
	if s.store != nil {
		st := s.store.Stats()
		v.JobStoreStats = &st
	}
	s.mu.Lock()
	for _, id := range s.order {
		j := s.jobs[id]
		j.mu.Lock()
		v.Jobs[j.state]++
		v.EventsLost += j.eventsLost
		j.mu.Unlock()
	}
	v.Queued = len(s.queue)
	v.Running = s.running
	v.Admission = s.admission
	v.ResultBytes = s.resultBytes
	s.mu.Unlock()
	v.Health = s.healthSnapshot()
	writeJSON(w, http.StatusOK, v)
}
