package main

import (
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"vertical3d/internal/fsio"
	"vertical3d/internal/jobstore"
	"vertical3d/internal/journal"
	"vertical3d/internal/sweep"
	"vertical3d/internal/trace"
)

// TestChaosManifestFaultsUnderLoad injects write faults into the job
// manifest while sweeps are accepted and run: every POST must still be
// accepted, every sweep must finish with results identical to an
// uninjected reference, and the daemon must report the downgrade to
// memory-only jobs — a bookkeeping failure never refuses traffic.
func TestChaosManifestFaultsUnderLoad(t *testing.T) {
	trace.ResetCache()
	defer trace.ResetCache()

	// Uninjected reference.
	refReq := sweepRequest{Experiment: "fig6", Benchmarks: []string{"Mcf"}}
	_, tsRef := newTestServer(t, serverConfig{})
	refID := postSweep(t, tsRef.URL, refReq)
	ref := waitDone(t, tsRef.URL, refID)

	// Poison every manifest write after the first few, so the daemon boots
	// clean and degrades mid-service.
	jobsDir := t.TempDir()
	jobstore.SetFS(fsio.NewInjector(1, nil, fsio.Rule{
		Op: fsio.OpWrite, Match: jobsDir, After: 2,
	}))
	defer jobstore.SetFS(nil)

	s, ts := newTestServer(t, serverConfig{JobDir: jobsDir, MaxSweeps: 2, QueueDepth: 16})

	// Several concurrent sweeps; all must be accepted and finish.
	ids := []string{postSweep(t, ts.URL, refReq), postSweep(t, ts.URL, refReq), postSweep(t, ts.URL, refReq)}
	for _, id := range ids {
		v := waitDone(t, ts.URL, id)
		if !reflect.DeepEqual(stripMeta(t, ref.Result), stripMeta(t, v.Result)) {
			t.Errorf("sweep %s under manifest faults diverges from the reference", id)
		}
	}

	// The downgrade is visible: memory-only jobstore, degraded status.
	var hz healthzView
	if code := getJSON(t, ts.URL+"/healthz", &hz); code != http.StatusOK {
		t.Fatalf("healthz status %d, want 200 even degraded", code)
	}
	if hz.JobStore != "memory-only" {
		t.Errorf("healthz jobstore = %q, want memory-only", hz.JobStore)
	}
	if hz.Status != "degraded" {
		t.Errorf("healthz status = %q, want degraded", hz.Status)
	}
	if st := s.store.Stats(); !st.Degraded {
		t.Errorf("jobstore stats not degraded: %+v", st)
	}

	// New POSTs still work after the downgrade.
	lateID := postSweep(t, ts.URL, refReq)
	late := waitDone(t, ts.URL, lateID)
	if !reflect.DeepEqual(stripMeta(t, ref.Result), stripMeta(t, late.Result)) {
		t.Error("post-downgrade sweep diverges from the reference")
	}
}

// TestChaosJournalFaultsUnderServing injects journal write faults under a
// live daemon: sweeps must complete with correct results and the result
// document's health block must record the degradation instead of hiding it.
func TestChaosJournalFaultsUnderServing(t *testing.T) {
	trace.ResetCache()
	defer trace.ResetCache()

	refReq := sweepRequest{Experiment: "fig6", Benchmarks: []string{"Mcf"}}
	_, tsRef := newTestServer(t, serverConfig{})
	ref := waitDone(t, tsRef.URL, postSweep(t, tsRef.URL, refReq))

	jdir := t.TempDir()
	journal.SetFS(fsio.NewInjector(7, nil, fsio.Rule{
		Op: fsio.OpWrite, Match: jdir, After: 1,
	}))
	defer journal.SetFS(nil)

	_, ts := newTestServer(t, serverConfig{Env: sweep.Env{JournalDir: jdir}})
	v := waitDone(t, ts.URL, postSweep(t, ts.URL, refReq))
	if !reflect.DeepEqual(stripMeta(t, ref.Result), stripMeta(t, v.Result)) {
		t.Error("sweep under journal faults diverges from the reference")
	}

	// The degradation is recorded in the result's health block.
	var doc struct {
		Result struct {
			Health struct {
				Events []map[string]any `json:"events"`
			} `json:"health"`
		} `json:"result"`
	}
	getJSON(t, ts.URL+"/sweeps/"+v.ID, &doc)
	if len(doc.Result.Health.Events) == 0 {
		t.Error("journal faults produced no health events in the result")
	}
}

// TestChaosManifestUnusableAtBoot points -job-dir at a regular file: the
// daemon must come up memory-only with a healthz warning and serve sweeps
// normally — the serving rung of the degradation ladder.
func TestChaosManifestUnusableAtBoot(t *testing.T) {
	trace.ResetCache()
	defer trace.ResetCache()

	bad := filepath.Join(t.TempDir(), "jobs")
	if err := os.WriteFile(bad, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}

	s, ts := newTestServer(t, serverConfig{JobDir: bad})
	if s.store != nil {
		t.Error("store is non-nil despite an unusable job dir")
	}

	var hz healthzView
	if code := getJSON(t, ts.URL+"/healthz", &hz); code != http.StatusOK {
		t.Fatalf("healthz status %d, want 200", code)
	}
	if hz.JobStore != "memory-only" {
		t.Errorf("healthz jobstore = %q, want memory-only", hz.JobStore)
	}
	if len(hz.Degraded) == 0 {
		t.Error("healthz carries no degradation warning")
	}

	// Traffic still flows.
	v := waitDone(t, ts.URL, postSweep(t, ts.URL, sweepRequest{Experiment: "lpstudy", Benchmarks: []string{"Mcf"}}))
	if v.State != "done" {
		t.Errorf("sweep under memory-only jobs: state %q", v.State)
	}
}

// TestChaosManifestCorruptSegmentQuarantinedAtBoot writes garbage into the
// job dir next to a valid manifest: the daemon must quarantine the corrupt
// segment, replay the valid one, and keep persisting.
func TestChaosManifestCorruptSegmentQuarantinedAtBoot(t *testing.T) {
	trace.ResetCache()
	defer trace.ResetCache()
	jobsDir := t.TempDir()

	// A valid manifest with one unfinished job...
	st, err := jobstore.Open(jobsDir)
	if err != nil {
		t.Fatal(err)
	}
	req := sweepRequest{Experiment: "lpstudy", Benchmarks: []string{"Mcf"}}
	if err := st.Accept("s000001", 1, req, time.Time{}); err != nil {
		t.Fatal(err)
	}
	_ = st.Close()
	// ...plus a corrupt sibling segment.
	if err := os.WriteFile(filepath.Join(jobsDir, "zzz-corrupt.m3dq"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	s, ts := newTestServer(t, serverConfig{JobDir: jobsDir})
	v := waitDone(t, ts.URL, "s000001")
	if v.State != "done" {
		t.Fatalf("restored job state %q, want done", v.State)
	}
	if st := s.store.Stats(); st.Quarantined == 0 && st.SkippedSegments == 0 {
		t.Errorf("corrupt segment neither quarantined nor skipped: %+v", st)
	}
}
