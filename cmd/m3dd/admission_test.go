package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"vertical3d/internal/sweep"
	"vertical3d/internal/trace"
)

// postSweepRaw POSTs a request with optional extra headers and returns the
// response without asserting on the status.
func postSweepRaw(t *testing.T, base string, req sweepRequest, hdr map[string]string) *http.Response {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequest(http.MethodPost, base+"/sweeps", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		hreq.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// longSweep is a request sized to occupy a slot for a few seconds: long
// enough for admission tests to observe a saturated daemon, short enough
// that a cancelled run drains quickly (the pool only observes cancellation
// between cells).
func longSweep() sweepRequest {
	return sweepRequest{Experiment: "fig6", Benchmarks: []string{"Mcf"}, Measure: 1_000_000, Workers: 1}
}

// TestQueueFullSheds429 saturates a depth-1 queue behind a single busy slot
// and requires the next POST to be shed fast — the acceptance criterion is
// a 429 with Retry-After within 50ms, not a hang behind the queue.
func TestQueueFullSheds429(t *testing.T) {
	trace.ResetCache()
	defer trace.ResetCache()
	s, ts := newTestServer(t, serverConfig{MaxSweeps: 1, QueueDepth: 1})

	// Occupy the only slot with a sweep that outlives the test (the cleanup
	// context cancel kills it), then fill the queue.
	busy := postSweep(t, ts.URL, longSweep())
	waitRunning(t, s, busy)
	queued := postSweep(t, ts.URL, longSweep())

	start := time.Now()
	resp := postSweepRaw(t, ts.URL, longSweep(), nil)
	elapsed := time.Since(start)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated POST: status %d, want 429", resp.StatusCode)
	}
	// The 50ms bound is the acceptance criterion on a normal build; the
	// race detector slows the whole process (including the busy sweep
	// hogging the CPU) enough that only a looser bound is meaningful.
	bound := 50 * time.Millisecond
	if raceEnabled {
		bound = 500 * time.Millisecond
	}
	if elapsed > bound {
		t.Errorf("shed took %v, want < %v", elapsed, bound)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Errorf("Retry-After = %q, want a positive integer", resp.Header.Get("Retry-After"))
	}

	var stz struct {
		Admission admissionStats `json:"admission"`
	}
	getJSON(t, ts.URL+"/statsz", &stz)
	if stz.Admission.Shed != 1 {
		t.Errorf("admission shed = %d, want 1", stz.Admission.Shed)
	}
	if stz.Admission.Accepted != 2 {
		t.Errorf("admission accepted = %d, want 2", stz.Admission.Accepted)
	}
	_ = queued
}

// waitRunning polls until the job leaves the queue and is running.
func waitRunning(t *testing.T, s *server, id string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		s.mu.Lock()
		j := s.jobs[id]
		s.mu.Unlock()
		if j != nil {
			j.mu.Lock()
			running := j.state == "running"
			j.mu.Unlock()
			if running {
				return
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never started running", id)
}

// TestDeadlineRejections pins the malformed- and already-expired-deadline
// responses: all 400, none admitted.
func TestDeadlineRejections(t *testing.T) {
	_, ts := newTestServer(t, serverConfig{})

	cases := []struct {
		name  string
		value string
	}{
		{"past RFC3339", time.Now().Add(-time.Hour).Format(time.RFC3339)},
		{"negative duration", "-5s"},
		{"zero duration", "0s"},
		{"garbage", "soon-ish"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := postSweepRaw(t, ts.URL, sweepRequest{Experiment: "fig6", Benchmarks: []string{"Mcf"}},
				map[string]string{deadlineHeader: tc.value})
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("deadline %q: status %d, want 400", tc.value, resp.StatusCode)
			}
		})
	}

	// The query parameter is an equivalent spelling.
	body, _ := json.Marshal(sweepRequest{Experiment: "fig6", Benchmarks: []string{"Mcf"}})
	resp, err := http.Post(ts.URL+"/sweeps?deadline=-1s", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("?deadline=-1s: status %d, want 400", resp.StatusCode)
	}

	var stz struct {
		Admission admissionStats `json:"admission"`
	}
	getJSON(t, ts.URL+"/statsz", &stz)
	if stz.Admission.DeadlineRejected == 0 {
		t.Error("statsz recorded no deadline rejections")
	}
	if stz.Admission.Accepted != 0 {
		t.Errorf("admission accepted = %d, want 0", stz.Admission.Accepted)
	}
}

// TestDeadlineExpiresInQueue parks a short-deadline job behind a busy slot
// and requires the dispatcher's expiry sweep to fail it terminally without
// it ever running.
func TestDeadlineExpiresInQueue(t *testing.T) {
	trace.ResetCache()
	defer trace.ResetCache()
	s, ts := newTestServer(t, serverConfig{MaxSweeps: 1, QueueDepth: 4})

	busy := postSweep(t, ts.URL, longSweep())
	waitRunning(t, s, busy)

	resp := postSweepRaw(t, ts.URL, sweepRequest{Experiment: "fig6", Benchmarks: []string{"Mcf"}},
		map[string]string{deadlineHeader: "50ms"})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST with live deadline: status %d, want 202", resp.StatusCode)
	}
	var created struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatal(err)
	}

	v := waitTerminal(t, ts.URL, created.ID)
	if v.State != "failed" {
		t.Fatalf("queued job with expired deadline: state %q, want failed", v.State)
	}
	if !strings.Contains(v.Error, "deadline") {
		t.Errorf("failure reason %q does not mention the deadline", v.Error)
	}
	if v.Simulated != 0 {
		t.Errorf("expired job simulated %d cells, want 0", v.Simulated)
	}

	var stz struct {
		Admission admissionStats `json:"admission"`
	}
	getJSON(t, ts.URL+"/statsz", &stz)
	if stz.Admission.ExpiredInQueue != 1 {
		t.Errorf("expired_in_queue = %d, want 1", stz.Admission.ExpiredInQueue)
	}
}

// TestDeadlinePropagatesToRunningSweep gives a long sweep a short deadline
// and requires the context to cut it off mid-run as a terminal failure —
// the daemon is alive, so this is NOT a resumable interruption.
func TestDeadlinePropagatesToRunningSweep(t *testing.T) {
	trace.ResetCache()
	defer trace.ResetCache()
	_, ts := newTestServer(t, serverConfig{})

	resp := postSweepRaw(t, ts.URL, longSweep(), map[string]string{deadlineHeader: "300ms"})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST: status %d, want 202", resp.StatusCode)
	}
	var created struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatal(err)
	}

	v := waitTerminal(t, ts.URL, created.ID)
	if v.State != "failed" {
		t.Fatalf("over-deadline sweep: state %q, want failed", v.State)
	}
	if !strings.Contains(v.Error, "deadline") && !strings.Contains(v.Error, "context") {
		t.Errorf("failure reason %q mentions neither deadline nor context", v.Error)
	}

	// The deadline is also visible on the job document.
	var full jobView
	getJSON(t, ts.URL+"/sweeps/"+created.ID, &full)
	if full.Deadline == nil {
		t.Error("job view omits the deadline")
	}
}

// TestLoadShedPrefersCacheServiceable queues one cache-cold and one
// cache-warm sweep behind a busy slot and requires the dispatcher to pick
// the warm one first: under pressure, work the journal can answer cheaply
// jumps the queue.
func TestLoadShedPrefersCacheServiceable(t *testing.T) {
	trace.ResetCache()
	defer trace.ResetCache()
	jdir := t.TempDir()

	var mu sync.Mutex
	var runOrder []string
	logf := func(format string, args ...any) {
		line := fmt.Sprintf(format, args...)
		if strings.Contains(line, "running") {
			mu.Lock()
			runOrder = append(runOrder, line)
			mu.Unlock()
		}
	}

	s, ts := newTestServer(t, serverConfig{Env: sweep.Env{JournalDir: jdir}, MaxSweeps: 1, QueueDepth: 8, Logf: logf})

	// Warm the journal with the sweep the "warm" job will repeat.
	warmReq := sweepRequest{Experiment: "fig6", Benchmarks: []string{"Mcf"}}
	warmID := postSweep(t, ts.URL, warmReq)
	waitDone(t, ts.URL, warmID)

	// Saturate the slot with a sweep that holds it for a moment but does
	// finish, then queue cold before warm.
	busy := postSweep(t, ts.URL, sweepRequest{Experiment: "fig6", Benchmarks: []string{"Lbm"}, Measure: 400_000, Workers: 1})
	waitRunning(t, s, busy)
	seed := int64(99)
	coldID := postSweep(t, ts.URL, sweepRequest{Experiment: "fig6", Benchmarks: []string{"Milc"}, Seed: &seed})
	warm2ID := postSweep(t, ts.URL, warmReq)

	// When the slot frees, the dispatcher should pick the warm job first.
	waitDone(t, ts.URL, warm2ID)
	waitDone(t, ts.URL, coldID)

	mu.Lock()
	defer mu.Unlock()
	warmAt, coldAt := -1, -1
	for i, line := range runOrder {
		if strings.Contains(line, warm2ID+" ") {
			warmAt = i
		}
		if strings.Contains(line, coldID+" ") {
			coldAt = i
		}
	}
	if warmAt < 0 || coldAt < 0 {
		t.Fatalf("run order missing jobs: %q", runOrder)
	}
	if warmAt > coldAt {
		t.Errorf("cache-warm job ran after the cold one: %q", runOrder)
	}
}
