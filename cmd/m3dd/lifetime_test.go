package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"vertical3d/internal/config"
	"vertical3d/internal/guard/faultinject"
	"vertical3d/internal/trace"
	"vertical3d/internal/warm"
)

// The lifetime tests read the process-wide trace and warm registries, so
// none of them runs in parallel: Go starts the parallel tests of the
// package only after every sequential one has returned.

// resetResident empties the trace and warm registries for one test.
func resetResident(t *testing.T) {
	t.Helper()
	trace.ResetCache()
	warm.ResetCache()
	t.Cleanup(func() {
		trace.ResetCache()
		warm.ResetCache()
	})
}

// statszResident reads the resident block of /statsz.
func statszResident(t *testing.T, base string) residentView {
	t.Helper()
	var st struct {
		Resident residentView `json:"resident"`
	}
	if code := getJSON(t, base+"/statsz", &st); code != http.StatusOK {
		t.Fatalf("statsz: %d", code)
	}
	return st.Resident
}

// postSweepHeaders submits a request through postSweepRaw, requires a
// 202 and returns the job id.
func postSweepHeaders(t *testing.T, base string, req sweepRequest, hdr map[string]string) string {
	t.Helper()
	resp := postSweepRaw(t, base, req, hdr)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /sweeps: status %d", resp.StatusCode)
	}
	var out struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.ID
}

func seedPtr(v int64) *int64 { return &v }

// TestResidentCachesReleasedPerJob runs distinct-seed jobs through every
// sweep entry point and every way a sweep returns — success, a failed
// cell under fail-fast, a panicking cell under keep-going, an expired
// deadline — and requires each to leave the trace and warm registries
// empty: the daemon's resident memory follows its in-flight sweeps, not
// every seed it has served.
func TestResidentCachesReleasedPerJob(t *testing.T) {
	resetResident(t)
	in := faultinject.New()
	in.PanicAt(faultinject.Key("Gobmk", config.M3DHet.String()))
	in.SlowAt(time.Second, faultinject.Key("Hmmer", config.Base.String()))
	_, ts := newTestServer(t, serverConfig{faultHook: in.Hook()})

	deadline := map[string]string{deadlineHeader: "300ms"}
	cases := []struct {
		name  string
		req   sweepRequest
		hdr   map[string]string
		state string
	}{
		{"fig6", sweepRequest{Experiment: "fig6", Benchmarks: []string{"Mcf"}, Seed: seedPtr(101)}, nil, "done"},
		{"fig6-sample", sweepRequest{Experiment: "fig6", Benchmarks: []string{"Mcf"}, Seed: seedPtr(102), Sample: true}, nil, "done"},
		{"fig9", sweepRequest{Experiment: "fig9", Benchmarks: []string{"Fft"}, Seed: seedPtr(103)}, nil, "done"},
		{"lpstudy", sweepRequest{Experiment: "lpstudy", Benchmarks: []string{"Mcf"}, Seed: seedPtr(104)}, nil, "done"},
		{"failed", sweepRequest{Experiment: "fig6", Benchmarks: []string{"Gobmk"}, Seed: seedPtr(105)}, nil, "failed"},
		{"keep-going", sweepRequest{Experiment: "fig6", Benchmarks: []string{"Gobmk"}, Seed: seedPtr(106), KeepGoing: true}, nil, "done"},
		{"deadline", sweepRequest{Experiment: "fig6", Benchmarks: []string{"Hmmer"}, Seed: seedPtr(107)}, deadline, "failed"},
	}
	for _, c := range cases {
		misses := trace.CacheStats().Misses
		v := waitTerminal(t, ts.URL, postSweepHeaders(t, ts.URL, c.req, c.hdr))
		if v.State != c.state {
			t.Fatalf("%s: job %s (%s), want %s", c.name, v.State, v.Error, c.state)
		}
		if trace.CacheStats().Misses == misses {
			t.Errorf("%s: the job recorded no trace; the check below would be vacuous", c.name)
		}
		if r := statszResident(t, ts.URL); r != (residentView{}) {
			t.Errorf("%s: resident after the job = %+v, want all zero", c.name, r)
		}
	}
}

// TestResidentCachesReleasedOnShutdown cancels a running sweep by shutting
// the daemon down: the interrupted sweep releases its entries too.
func TestResidentCachesReleasedOnShutdown(t *testing.T) {
	resetResident(t)
	in := faultinject.New()
	in.SlowAt(500*time.Millisecond, faultinject.Key("Mcf", config.TSV3D.String()))
	ctx, cancel := context.WithCancel(context.Background())
	s := newServer(ctx, serverConfig{Quick: true, Workers: 2, Logf: t.Logf, faultHook: in.Hook()})
	ts := httptest.NewServer(s.routes())
	t.Cleanup(func() {
		ts.Close()
		cancel()
		s.wait()
	})

	// The slow cell holds the sweep open while the other worker records
	// the stream and its probe tape.
	postSweep(t, ts.URL, sweepRequest{Experiment: "fig6", Benchmarks: []string{"Mcf"}, Seed: seedPtr(111)})
	deadline := time.Now().Add(30 * time.Second)
	for r := resident(); in.Fired(faultinject.Key("Mcf", config.TSV3D.String())) == 0 || r.TraceRecordings == 0 || r.ProbeTapes == 0 || r.ProbeTapeBytes == 0; r = resident() {
		if time.Now().After(deadline) {
			t.Fatal("the sweep never recorded its stream and probe tape while its slow cell ran")
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	s.wait()
	if r := resident(); r != (residentView{}) {
		t.Errorf("resident after shutdown = %+v, want all zero", r)
	}
}

// TestConcurrentJobsShareResidentRecording runs jobs over one stream at
// once. The stream is recorded once, and its entry stays until the later
// job ends: an lpstudy job blocked in its last cell keeps the recording a
// fig6 job over the same profile and seed started and finished on.
func TestConcurrentJobsShareResidentRecording(t *testing.T) {
	resetResident(t)
	gate := make(chan struct{})
	hook := func(bench, design string) {
		if design == config.M3DHetLP.String() {
			<-gate
		}
	}
	_, ts := newTestServer(t, serverConfig{MaxSweeps: 2, faultHook: hook})

	// Two identical jobs at once: one recording between them.
	same := sweepRequest{Experiment: "fig6", Benchmarks: []string{"Mcf"}, Seed: seedPtr(201)}
	a, b := postSweep(t, ts.URL, same), postSweep(t, ts.URL, same)
	waitDone(t, ts.URL, a)
	waitDone(t, ts.URL, b)
	if st := trace.CacheStats(); st.Misses != 1 {
		t.Fatalf("two identical jobs: %d recordings, want 1", st.Misses)
	}
	if r := statszResident(t, ts.URL); r != (residentView{}) {
		t.Fatalf("resident after both jobs = %+v, want all zero", r)
	}

	// The lpstudy job records the stream, then blocks in its M3D-Het-LP
	// cell; the fig6 job replays the held recording and finishes first.
	trace.ResetCache()
	lp := postSweep(t, ts.URL, sweepRequest{Experiment: "lpstudy", Benchmarks: []string{"Mcf"}, Seed: seedPtr(202), Workers: 1})
	deadline := time.Now().Add(30 * time.Second)
	for trace.CacheStats().Misses == 0 {
		if time.Now().After(deadline) {
			close(gate)
			t.Fatal("the lpstudy job never recorded its stream")
		}
		time.Sleep(5 * time.Millisecond)
	}
	waitDone(t, ts.URL, postSweep(t, ts.URL, sweepRequest{Experiment: "fig6", Benchmarks: []string{"Mcf"}, Seed: seedPtr(202)}))
	r := statszResident(t, ts.URL)
	close(gate)
	if st := trace.CacheStats(); st.Misses != 1 {
		t.Errorf("overlapping jobs: %d recordings, want 1", st.Misses)
	}
	if r.TraceRecordings != 1 {
		t.Errorf("after the first job ended: %d resident recording(s), want 1 (held by the running job)", r.TraceRecordings)
	}
	waitDone(t, ts.URL, lp)
	if r := statszResident(t, ts.URL); r != (residentView{}) {
		t.Errorf("resident after both jobs = %+v, want all zero", r)
	}
}
