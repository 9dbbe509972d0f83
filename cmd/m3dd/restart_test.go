package main

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"vertical3d/internal/config"
	"vertical3d/internal/jobstore"
	"vertical3d/internal/sweep"
	"vertical3d/internal/trace"
)

// startServer is newTestServer with an explicit stop function so a test
// can shut a daemon instance down mid-test and start a successor over the
// same directories.
func startServer(t *testing.T, cfg serverConfig) (*server, *httptest.Server, func()) {
	t.Helper()
	cfg.Quick = true
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := newServer(ctx, cfg)
	ts := httptest.NewServer(s.routes())
	stopped := false
	stop := func() {
		if stopped {
			return
		}
		stopped = true
		ts.Close()
		cancel()
		s.wait()
		if s.store != nil {
			_ = s.store.Close()
		}
	}
	t.Cleanup(stop)
	return s, ts, stop
}

// waitTerminal polls a job until done or failed, returning its view.
func waitTerminal(t *testing.T, base, id string) rawJobView {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		var v rawJobView
		if code := getJSON(t, base+"/sweeps/"+id, &v); code != 200 {
			t.Fatalf("GET /sweeps/%s: status %d", id, code)
		}
		if v.State == "done" || v.State == "failed" {
			return v
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("sweep %s did not reach a terminal state", id)
	return rawJobView{}
}

// TestRestartResumesUnfinishedJobs is the restart-resume oracle's
// in-process half: a job the manifest records as running (a crash landed
// mid-sweep) over a journal directory that already holds every cell must
// be re-enqueued by a fresh daemon, complete with ZERO re-simulated cells,
// and serve measurements identical to the uninterrupted reference run.
func TestRestartResumesUnfinishedJobs(t *testing.T) {
	trace.ResetCache()
	defer trace.ResetCache()
	jdir, jobsDir := t.TempDir(), t.TempDir()
	req := sweepRequest{Experiment: "fig6", Benchmarks: []string{"Mcf"}}

	// Reference run fills the journal and pins the expected measurements.
	_, ts1, stop1 := startServer(t, serverConfig{Env: sweep.Env{JournalDir: jdir}})
	refID := postSweep(t, ts1.URL, req)
	ref := waitDone(t, ts1.URL, refID)
	if ref.Simulated == 0 {
		t.Fatal("reference sweep simulated nothing")
	}
	stop1()

	// Manufacture the crash wreckage: a manifest whose job was mid-run.
	st, err := jobstore.Open(jobsDir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Accept("s000001", 1, req, time.Time{}); err != nil {
		t.Fatal(err)
	}
	if err := st.Transition("s000001", jobstore.StateRunning, ""); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// The restarted daemon must re-enqueue and finish it from the journal.
	s2, ts2, _ := startServer(t, serverConfig{Env: sweep.Env{JournalDir: jdir}, JobDir: jobsDir})
	resumed := waitDone(t, ts2.URL, "s000001")
	if resumed.Simulated != 0 {
		t.Errorf("resumed job re-simulated %d cells, want 0 (journal holds them all)", resumed.Simulated)
	}
	if cs := s2.cache.Stats(); cs.DiskHits == 0 {
		t.Errorf("resume served no disk hits: %+v", cs)
	}
	if !reflect.DeepEqual(stripMeta(t, ref.Result), stripMeta(t, resumed.Result)) {
		t.Error("resumed sweep diverges from the uninterrupted reference")
	}

	var full jobView
	if code := getJSON(t, ts2.URL+"/sweeps/s000001", &full); code != 200 || !full.Restored {
		t.Errorf("resumed job not marked restored: %d %+v", code, full)
	}
	var stz struct {
		Admission admissionStats `json:"admission"`
	}
	getJSON(t, ts2.URL+"/statsz", &stz)
	if stz.Admission.Restored != 1 {
		t.Errorf("statsz restored = %d, want 1", stz.Admission.Restored)
	}

	// The manifest now records the job done: a third boot restores it as a
	// terminal ledger entry, not a queued one.
	s3, ts3, _ := startServer(t, serverConfig{Env: sweep.Env{JournalDir: jdir}, JobDir: jobsDir})
	var v3 jobView
	if code := getJSON(t, ts3.URL+"/sweeps/s000001", &v3); code != 200 || v3.State != "done" || !v3.Restored {
		t.Errorf("third boot ledger entry: %d %+v, want restored done", code, v3)
	}
	s3.mu.Lock()
	requeued := len(s3.queue)
	s3.mu.Unlock()
	if requeued != 0 {
		t.Errorf("third boot re-enqueued %d job(s), want 0", requeued)
	}
	_ = s2
}

// TestRestartResumeMidSweep interrupts a live sweep (the in-process
// equivalent of a kill mid-run: the daemon context is cancelled, which is
// what SIGTERM does) and proves the successor daemon finishes the job with
// the interrupted run's cells served from the journal — total simulation
// across both runs is exactly one sweep's worth.
func TestRestartResumeMidSweep(t *testing.T) {
	trace.ResetCache()
	defer trace.ResetCache()
	jdir, jobsDir := t.TempDir(), t.TempDir()
	// One worker and two benchmarks stretch the sweep so the interrupt
	// lands mid-run, not after it.
	req := sweepRequest{Experiment: "fig6", Benchmarks: []string{"Mcf", "Milc"}, Workers: 1}

	_, ts1, stop1 := startServer(t, serverConfig{Env: sweep.Env{JournalDir: jdir}, JobDir: jobsDir})
	id := postSweep(t, ts1.URL, req)

	// Wait for the sweep to make some progress, then pull the plug.
	var firstSim uint64
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		var v rawJobView
		getJSON(t, ts1.URL+"/sweeps/"+id, &v)
		if v.Simulated > 0 {
			firstSim = v.Simulated
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	stop1()

	// Count what the interrupted run actually journaled (stop1 may have
	// let a few more cells finish after the last poll).
	st, err := jobstore.Open(jobsDir)
	if err != nil {
		t.Fatal(err)
	}
	jobs := st.Jobs()
	_ = st.Close()
	if len(jobs) != 1 {
		t.Fatalf("manifest holds %d job(s), want 1", len(jobs))
	}
	if got := jobs[0].State; got != jobstore.StateInterrupted && got != jobstore.StateDone {
		t.Fatalf("manifest state after interrupt = %q, want interrupted (or done if the sweep won the race)", got)
	}
	if jobs[0].State == jobstore.StateDone {
		t.Skip("sweep completed before the interrupt landed; nothing to resume")
	}

	s2, ts2, _ := startServer(t, serverConfig{Env: sweep.Env{JournalDir: jdir}, JobDir: jobsDir})
	resumed := waitDone(t, ts2.URL, id)

	// Zero re-execution: every cell is simulated exactly once across the
	// two daemon lifetimes.
	suite := config.SingleCoreDesigns()
	cells := uint64(2 * len(suite)) // 2 benchmarks × designs
	if got := firstSim + resumed.Simulated; got > cells {
		t.Errorf("cells re-simulated: run1 %d + run2 %d > %d total", firstSim, resumed.Simulated, cells)
	}
	if resumed.Simulated == cells {
		t.Errorf("resume re-simulated the whole sweep (%d cells); journal served nothing", cells)
	}

	// The resumed result must match a clean single-daemon run byte for byte
	// (modulo per-run journal/health bookkeeping).
	cleanDir := t.TempDir()
	_, ts3, _ := startServer(t, serverConfig{Env: sweep.Env{JournalDir: cleanDir}})
	cleanID := postSweep(t, ts3.URL, req)
	clean := waitDone(t, ts3.URL, cleanID)
	if !reflect.DeepEqual(stripMeta(t, clean.Result), stripMeta(t, resumed.Result)) {
		t.Error("resumed sweep diverges from a clean uninterrupted run")
	}
	_ = s2
}

// TestRestoredSpecNoLongerValidFailsTerminally pins the poisoned-manifest
// guard: a persisted spec this daemon can no longer run must become a
// terminal failure, not a crash-looping queue entry.
func TestRestoredSpecNoLongerValidFailsTerminally(t *testing.T) {
	jobsDir := t.TempDir()
	st, err := jobstore.Open(jobsDir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Accept("s000001", 1, map[string]string{"experiment": "no-such-experiment"}, time.Time{}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	_, ts, stop := startServer(t, serverConfig{JobDir: jobsDir})
	if code := getJSON(t, ts.URL+"/sweeps/s000001", nil); code != 404 {
		t.Errorf("invalid restored spec still in ledger: status %d", code)
	}
	stop()

	st2, err := jobstore.Open(jobsDir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	jobs := st2.Jobs()
	if len(jobs) != 1 || jobs[0].State != jobstore.StateFailed {
		t.Errorf("manifest after restore = %+v, want failed", jobs)
	}
}

// TestRestoredJobSpecRoundTrips pins that the spec the manifest persists
// is the request the daemon accepted, field for field.
func TestRestoredJobSpecRoundTrips(t *testing.T) {
	jobsDir := t.TempDir()
	seed := int64(7)
	req := sweepRequest{Experiment: "fig6", Benchmarks: []string{"Mcf"}, Warmup: 11, Measure: 22, Seed: &seed, Sample: true, Workers: 3, KeepGoing: true}

	st, err := jobstore.Open(jobsDir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Accept("s000001", 1, req, time.Time{}); err != nil {
		t.Fatal(err)
	}
	_ = st.Close()

	st2, err := jobstore.Open(jobsDir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	var got sweepRequest
	if err := json.Unmarshal(st2.Jobs()[0].Spec, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, req) {
		t.Errorf("spec round-trip: got %+v, want %+v", got, req)
	}
}
