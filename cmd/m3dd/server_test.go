package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"vertical3d/internal/config"
	"vertical3d/internal/experiments"
	"vertical3d/internal/resultcache"
	"vertical3d/internal/sweep"
	"vertical3d/internal/sweepflag"
	"vertical3d/internal/tech"
	"vertical3d/internal/trace"
	"vertical3d/internal/warm"
	"vertical3d/internal/workload"
)

// newTestServer starts an httptest daemon with quick sizing.
func newTestServer(t *testing.T, cfg serverConfig) (*server, *httptest.Server) {
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
	t.Cleanup(func() {
		ts.Close()
		cancel()
		s.wait()
	})
	return s, ts
}

// postSweep submits a request and returns the job id.
func postSweep(t *testing.T, base string, req sweepRequest) string {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(base+"/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
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

// getJSON decodes a GET endpoint into out and returns the status code.
func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// rawJobView keeps the result as raw JSON so tests can compare it against
// an independently built view without type-erasure mismatches.
type rawJobView struct {
	ID        string          `json:"id"`
	State     string          `json:"state"`
	Error     string          `json:"error"`
	Simulated uint64          `json:"simulated_cells"`
	Result    json.RawMessage `json:"result"`
}

// waitDone polls a job until it reaches a terminal state.
func waitDone(t *testing.T, base, id string) rawJobView {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		var v rawJobView
		if code := getJSON(t, base+"/sweeps/"+id, &v); code != http.StatusOK {
			t.Fatalf("GET /sweeps/%s: status %d", id, code)
		}
		switch v.State {
		case "done":
			return v
		case "failed":
			t.Fatalf("sweep %s failed: %s", id, v.Error)
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("sweep %s did not finish", id)
	return rawJobView{}
}

func TestSweepRequestValidation(t *testing.T) {
	t.Parallel()
	_, ts := newTestServer(t, serverConfig{})
	post := func(body string) int {
		resp, err := http.Post(ts.URL+"/sweeps", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	cases := []struct {
		name, body string
	}{
		{"unknown experiment", `{"experiment":"fig1"}`},
		{"unknown benchmark", `{"experiment":"fig6","benchmarks":["NoSuchBench"]}`},
		{"unknown field", `{"experiment":"fig6","bogus":1}`},
		{"benchmarks on a table", `{"experiment":"table3","benchmarks":["Mcf"]}`},
		{"negative workers", `{"experiment":"fig6","workers":-1}`},
		{"not json", `hello`},
	}
	for _, c := range cases {
		if code := post(c.body); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", c.name, code)
		}
	}
	if code := getJSON(t, ts.URL+"/sweeps/s999999", nil); code != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", code)
	}
}

// TestSweepOracleMatchesDirectRun is the serving-layer acceptance oracle:
// a fig6 sweep served by the daemon — through its cache, worker pool and
// wire encoding — must be value-identical to running the library directly.
func TestSweepOracleMatchesDirectRun(t *testing.T) {
	trace.ResetCache()
	defer trace.ResetCache()
	_, ts := newTestServer(t, serverConfig{})

	id := postSweep(t, ts.URL, sweepRequest{Experiment: "fig6", Benchmarks: []string{"Mcf"}})
	v := waitDone(t, ts.URL, id)
	if v.Simulated == 0 {
		t.Fatalf("cold sweep simulated no cells")
	}

	// The direct run: same sizing (the test server runs Quick), no daemon,
	// no cache.
	suite, err := config.Derive(tech.N22())
	if err != nil {
		t.Fatal(err)
	}
	prof, err := workload.ByName("Mcf")
	if err != nil {
		t.Fatal(err)
	}
	opt := experiments.QuickRunOptions()
	opt.Workers = 2
	direct, err := experiments.Fig6With(suite, []trace.Profile{prof}, opt)
	if err != nil {
		t.Fatal(err)
	}

	var got, want any
	if err := json.Unmarshal(v.Result, &got); err != nil {
		t.Fatal(err)
	}
	wantBytes, err := json.Marshal(matrixView("fig6", &direct.Matrix))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(wantBytes, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("daemon fig6 result diverges from the direct library run\n got: %.300s...\nwant: %.300s...",
			v.Result, wantBytes)
	}
}

// TestConcurrentIdenticalSweepsCoalesce is the single-flight acceptance
// gate: K identical sweeps submitted together must execute one sweep's
// worth of simulations — every other cell is served as a memory hit or
// coalesced onto the in-flight computation — and all K must return
// byte-identical cell payloads.
func TestConcurrentIdenticalSweepsCoalesce(t *testing.T) {
	trace.ResetCache()
	defer trace.ResetCache()
	const k = 4
	s, ts := newTestServer(t, serverConfig{MaxSweeps: k})

	req := sweepRequest{Experiment: "fig6", Benchmarks: []string{"Mcf"}}
	ids := make([]string, k)
	var wg sync.WaitGroup
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ids[i] = postSweep(t, ts.URL, req)
		}(i)
	}
	wg.Wait()
	var totalSim uint64
	for _, id := range ids {
		totalSim += waitDone(t, ts.URL, id).Simulated
	}

	cells := uint64(len(config.SingleCoreDesigns())) // 1 benchmark × designs
	if totalSim != cells {
		t.Errorf("%d sweeps simulated %d cells in total, want exactly %d (one sweep's worth)",
			k, totalSim, cells)
	}
	cs := s.cache.Stats()
	if cs.Computed != cells {
		t.Errorf("cache computed %d cells, want %d", cs.Computed, cells)
	}
	if cs.Hits+cs.Coalesced != (k-1)*cells {
		t.Errorf("cache served %d hits + %d coalesced, want %d", cs.Hits, cs.Coalesced, (k-1)*cells)
	}

	// All K payloads byte-identical.
	var first []byte
	for i, id := range ids {
		resp, err := http.Get(ts.URL + "/sweeps/" + id + "/cells")
		if err != nil {
			t.Fatal(err)
		}
		body := new(bytes.Buffer)
		if _, err := body.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if i == 0 {
			first = body.Bytes()
		} else if !bytes.Equal(first, body.Bytes()) {
			t.Errorf("sweep %s cell payload differs from sweep %s", id, ids[0])
		}
	}
}

// TestEventsStreamFollowsSweep reads a job's SSE stream end to end: it must
// replay the queued state, carry a cell event per simulated cell, and
// terminate with the done event.
func TestEventsStreamFollowsSweep(t *testing.T) {
	trace.ResetCache()
	defer trace.ResetCache()
	_, ts := newTestServer(t, serverConfig{})

	id := postSweep(t, ts.URL, sweepRequest{Experiment: "lpstudy", Benchmarks: []string{"Mcf"}})
	resp, err := http.Get(ts.URL + "/sweeps/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type %q", ct)
	}

	var types []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if ev, ok := strings.CutPrefix(line, "event: "); ok {
			types = append(types, ev)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(types) < 2 || types[0] != "state" || types[len(types)-1] != "done" {
		t.Fatalf("event stream %v: want state ... done", types)
	}
	cellEvents := 0
	for _, ty := range types {
		if ty == "cell" {
			cellEvents++
		}
	}
	v := waitDone(t, ts.URL, id)
	if uint64(cellEvents) != v.Simulated {
		t.Errorf("stream carried %d cell events, job simulated %d cells", cellEvents, v.Simulated)
	}
}

// TestDiskTierServesAcrossDaemonRestart proves the m3dd restart path: a
// sweep journaled by one daemon instance is served by a fresh instance over
// the same journal directory without any re-simulation.
func TestDiskTierServesAcrossDaemonRestart(t *testing.T) {
	trace.ResetCache()
	defer trace.ResetCache()
	dir := t.TempDir()

	_, ts1 := newTestServer(t, serverConfig{Env: sweep.Env{JournalDir: dir}})
	id := postSweep(t, ts1.URL, sweepRequest{Experiment: "fig6", Benchmarks: []string{"Mcf"}})
	first := waitDone(t, ts1.URL, id)
	if first.Simulated == 0 {
		t.Fatal("cold sweep simulated nothing")
	}
	ts1.Close()

	s2, ts2 := newTestServer(t, serverConfig{Env: sweep.Env{JournalDir: dir}})
	id2 := postSweep(t, ts2.URL, sweepRequest{Experiment: "fig6", Benchmarks: []string{"Mcf"}})
	second := waitDone(t, ts2.URL, id2)
	if second.Simulated != 0 {
		t.Errorf("restarted daemon re-simulated %d cells despite the journal", second.Simulated)
	}
	if cs := s2.cache.Stats(); cs.DiskHits == 0 {
		t.Errorf("disk tier served nothing: %+v", cs)
	}
	// The journal/health blocks legitimately differ (the first run appended
	// cells, the second loaded them); the measurements must not.
	if !reflect.DeepEqual(stripMeta(t, first.Result), stripMeta(t, second.Result)) {
		t.Error("disk-served sweep diverges from the original")
	}
}

// stripMeta drops the per-run bookkeeping (journal counters, degradation
// events) from a result document, leaving only the measurements.
func stripMeta(t *testing.T, raw json.RawMessage) map[string]any {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	delete(m, "journal")
	delete(m, "health")
	return m
}

func TestHealthzAndStatsz(t *testing.T) {
	t.Parallel()
	s, ts := newTestServer(t, serverConfig{})

	var hz healthzView
	if code := getJSON(t, ts.URL+"/healthz", &hz); code != http.StatusOK || hz.Status != "ok" {
		t.Fatalf("healthz: %d %+v", code, hz)
	}
	if hz.JobStore != "disabled" {
		t.Fatalf("healthz jobstore = %q, want disabled (no -job-dir)", hz.JobStore)
	}
	var st struct {
		Cache      resultcache.Stats `json:"cache"`
		Jobs       map[string]int    `json:"jobs"`
		QueueDepth int               `json:"queue_depth"`
		JobStore   string            `json:"jobstore"`
	}
	if code := getJSON(t, ts.URL+"/statsz", &st); code != http.StatusOK {
		t.Fatalf("statsz: %d", code)
	}
	if st.QueueDepth == 0 || st.JobStore != "disabled" {
		t.Fatalf("statsz admission fields missing: %+v", st)
	}

	s.drain()
	if code := getJSON(t, ts.URL+"/healthz", &hz); code != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz: %d, want 503", code)
	}
	resp, err := http.Post(ts.URL+"/sweeps", "application/json",
		strings.NewReader(`{"experiment":"fig6"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining POST /sweeps: %d, want 503", resp.StatusCode)
	}
}

// TestTableSweeps smoke-runs the non-figure experiments through the API.
func TestTableSweeps(t *testing.T) {
	t.Parallel()
	_, ts := newTestServer(t, serverConfig{})
	for _, exp := range []string{"table6"} {
		id := postSweep(t, ts.URL, sweepRequest{Experiment: exp})
		v := waitDone(t, ts.URL, id)
		var view sweepResultView
		if err := json.Unmarshal(v.Result, &view); err != nil {
			t.Fatalf("%s: %v", exp, err)
		}
		if len(view.M3DChoices) == 0 || len(view.TSVChoices) == 0 {
			t.Errorf("%s: empty choices", exp)
		}
	}
}

// TestSampledSweepServesCLIJournal checks that the daemon's shared-flag
// defaults match the CLI's: a sampled fig6 sweep runs under the identity
// m3dcli -sample journals under, so the CLI's journal serves every cell,
// and a fresh sampled fig9 sweep writes its multicore warm-state snapshots
// to -warm-dir.
func TestSampledSweepServesCLIJournal(t *testing.T) {
	trace.ResetCache()
	warm.ResetCache()
	t.Cleanup(func() {
		_ = trace.SetCacheDir("")
		_ = warm.SetCacheDir("")
		trace.ResetCache()
		warm.ResetCache()
	})
	jdir, wdir := t.TempDir(), t.TempDir()

	// m3dcli -quick -sample -journal-dir jdir fig6, over one benchmark.
	cfs := flag.NewFlagSet("m3dcli", flag.ContinueOnError)
	cli := sweepflag.Register(cfs, "m3dcli", sweepflag.Batch|sweepflag.SampleParams)
	if err := cfs.Parse([]string{"-sample", "-journal-dir", jdir}); err != nil {
		t.Fatal(err)
	}
	cenv, err := cli.Env()
	if err != nil {
		t.Fatal(err)
	}
	opt := experiments.QuickRunOptions()
	opt.Env = cenv
	cli.Sampling(&opt)
	suite, err := config.Derive(tech.N22())
	if err != nil {
		t.Fatal(err)
	}
	mcf, err := workload.ByName("Mcf")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := experiments.Fig6With(suite, []trace.Profile{mcf}, opt); err != nil {
		t.Fatal(err)
	}

	dfs := flag.NewFlagSet("m3dd", flag.ContinueOnError)
	daemon := sweepflag.Register(dfs, "m3dd", sharedFlags)
	if err := dfs.Parse([]string{"-journal-dir", jdir, "-warm-dir", wdir}); err != nil {
		t.Fatal(err)
	}
	env, err := daemon.Env()
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, serverConfig{Env: env})
	req := sweepRequest{Experiment: "fig6", Benchmarks: []string{"Mcf"}, Sample: true}
	if v := waitDone(t, ts.URL, postSweep(t, ts.URL, req)); v.Simulated != 0 {
		t.Errorf("sampled sweep simulated %d cells over the CLI's journal, want 0", v.Simulated)
	}

	req = sweepRequest{Experiment: "fig9", Benchmarks: []string{"Fft"}, Sample: true, Seed: seedPtr(7)}
	if v := waitDone(t, ts.URL, postSweep(t, ts.URL, req)); v.Simulated == 0 {
		t.Fatal("fresh sampled sweep simulated nothing")
	}
	snaps, err := filepath.Glob(filepath.Join(wdir, "*.m3dwarm"))
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 {
		t.Error("-warm-dir holds no .m3dwarm snapshot after a sampled sweep")
	}
}
