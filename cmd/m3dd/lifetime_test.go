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
	"vertical3d/internal/sweep"
	"vertical3d/internal/tech"
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

// modeName names a subtest by its sweeps' simulation mode.
func modeName(sample bool) string {
	if sample {
		return "sampled"
	}
	return "full"
}

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
	// taped jobs run single-core cells, full or sampled, which build probe
	// tapes and record no trace; multicore jobs record their streams.
	cases := []struct {
		name  string
		req   sweepRequest
		hdr   map[string]string
		state string
		taped bool
	}{
		{"fig6", sweepRequest{Experiment: "fig6", Benchmarks: []string{"Mcf"}, Seed: seedPtr(101)}, nil, "done", true},
		{"fig6-sample", sweepRequest{Experiment: "fig6", Benchmarks: []string{"Mcf"}, Seed: seedPtr(102), Sample: true}, nil, "done", true},
		{"fig9", sweepRequest{Experiment: "fig9", Benchmarks: []string{"Fft"}, Seed: seedPtr(103)}, nil, "done", false},
		{"lpstudy", sweepRequest{Experiment: "lpstudy", Benchmarks: []string{"Mcf"}, Seed: seedPtr(104)}, nil, "done", true},
		{"failed", sweepRequest{Experiment: "fig6", Benchmarks: []string{"Gobmk"}, Seed: seedPtr(105)}, nil, "failed", true},
		{"keep-going", sweepRequest{Experiment: "fig6", Benchmarks: []string{"Gobmk"}, Seed: seedPtr(106), KeepGoing: true}, nil, "done", true},
		{"deadline", sweepRequest{Experiment: "fig6", Benchmarks: []string{"Hmmer"}, Seed: seedPtr(107)}, deadline, "failed", true},
	}
	for _, c := range cases {
		misses, tapes := trace.CacheStats().Misses, warm.TapeBuilds()
		v := waitTerminal(t, ts.URL, postSweepHeaders(t, ts.URL, c.req, c.hdr))
		if v.State != c.state {
			t.Fatalf("%s: job %s (%s), want %s", c.name, v.State, v.Error, c.state)
		}
		recorded, taped := trace.CacheStats().Misses-misses, warm.TapeBuilds()-tapes
		switch {
		case c.taped && taped == 0:
			t.Errorf("%s: the job built no probe tape; the check below would be vacuous", c.name)
		case c.taped && recorded != 0:
			t.Errorf("%s: the single-core job recorded %d trace(s), want none", c.name, recorded)
		case !c.taped && recorded == 0:
			t.Errorf("%s: the job recorded no trace; the check below would be vacuous", c.name)
		}
		if r := statszResident(t, ts.URL); r != (residentView{}) {
			t.Errorf("%s: resident after the job = %+v, want all zero", c.name, r)
		}
	}
}

// TestResidentCachesReleasedOnShutdown cancels a running sweep by shutting
// the daemon down: the interrupted sweep releases its entries too. A
// running single-core job, full or sampled, holds probe tapes and no
// recording.
func TestResidentCachesReleasedOnShutdown(t *testing.T) {
	for _, sample := range []bool{false, true} {
		t.Run(modeName(sample), func(t *testing.T) {
			resetResident(t)
			in := faultinject.New()
			in.SlowAt(500*time.Millisecond, faultinject.Key("Mcf", config.TSV3D.String()))
			ctx, cancel := context.WithCancel(context.Background())
			s := newServer(ctx, serverConfig{Env: sweep.Env{Workers: 2}, Quick: true, Logf: t.Logf, faultHook: in.Hook()})
			ts := httptest.NewServer(s.routes())
			t.Cleanup(func() {
				ts.Close()
				cancel()
				s.wait()
			})

			// The slow cell holds the sweep open while the other worker
			// builds the profile's probe tapes.
			postSweep(t, ts.URL, sweepRequest{Experiment: "fig6", Benchmarks: []string{"Mcf"}, Seed: seedPtr(111), Sample: sample})
			held := func(r residentView) bool { return r.ProbeTapes > 0 && r.ProbeTapeBytes > 0 }
			deadline := time.Now().Add(30 * time.Second)
			r := statszResident(t, ts.URL)
			for ; in.Fired(faultinject.Key("Mcf", config.TSV3D.String())) == 0 || !held(r); r = statszResident(t, ts.URL) {
				if time.Now().After(deadline) {
					t.Fatal("the sweep never built its shared entries while its slow cell ran")
				}
				time.Sleep(5 * time.Millisecond)
			}
			if r.TraceRecordings != 0 || r.TraceBytes != 0 {
				t.Errorf("a running single-core job holds %d recording(s) of %d bytes, want none", r.TraceRecordings, r.TraceBytes)
			}
			cancel()
			s.wait()
			if r := resident(); r != (residentView{}) {
				t.Errorf("resident after shutdown = %+v, want all zero", r)
			}
		})
	}
}

// TestConcurrentJobsShareResidentRecording runs jobs over one stream at
// once. Single-core jobs, full or sampled, share one probe tape per
// geometry and record no trace. The shared tapes stay until the later job
// ends: an lpstudy job blocked in its last cell keeps the tapes a fig6 job
// over the same profile and seed started and finished on.
func TestConcurrentJobsShareResidentRecording(t *testing.T) {
	suite, err := config.Derive(tech.N22())
	if err != nil {
		t.Fatal(err)
	}
	geoms := func(designs ...config.Design) map[warm.Geometry]bool {
		m := map[warm.Geometry]bool{}
		for _, d := range designs {
			m[warm.GeometryOf(suite.Configs[d])] = true
		}
		return m
	}
	fig6Geoms := geoms(config.SingleCoreDesigns()...)
	lpGeoms := geoms(config.Base, config.M3DHet, config.M3DHetLP)
	both := geoms(append(config.SingleCoreDesigns(), config.M3DHetLP)...)

	for _, sample := range []bool{false, true} {
		t.Run(modeName(sample), func(t *testing.T) {
			resetResident(t)
			gate := make(chan struct{})
			hook := func(bench, design string) {
				if design == config.M3DHetLP.String() {
					<-gate
				}
			}
			_, ts := newTestServer(t, serverConfig{MaxSweeps: 2, faultHook: hook})
			// shared checks the builds so far: the tapes the jobs built,
			// and no recording.
			shared := func(when string, tapes int) {
				t.Helper()
				if n := warm.TapeBuilds(); n != uint64(tapes) {
					t.Errorf("%s: %d probe tape(s) built, want %d", when, n, tapes)
				}
				if n := trace.CacheStats().Misses; n != 0 {
					t.Errorf("%s: %d recording(s), want none", when, n)
				}
			}

			// Two identical jobs at once: one set of entries between them.
			same := sweepRequest{Experiment: "fig6", Benchmarks: []string{"Mcf"}, Seed: seedPtr(201), Sample: sample}
			a, b := postSweep(t, ts.URL, same), postSweep(t, ts.URL, same)
			waitDone(t, ts.URL, a)
			waitDone(t, ts.URL, b)
			shared("two identical jobs", len(fig6Geoms))
			if r := statszResident(t, ts.URL); r != (residentView{}) {
				t.Fatalf("resident after both jobs = %+v, want all zero", r)
			}

			// The lpstudy job builds its entries, then blocks in its
			// M3D-Het-LP cell; the fig6 job replays the held entries and
			// finishes first.
			trace.ResetCache()
			warm.ResetCache()
			lp := postSweep(t, ts.URL, sweepRequest{Experiment: "lpstudy", Benchmarks: []string{"Mcf"}, Seed: seedPtr(202), Workers: 1, Sample: sample})
			deadline := time.Now().Add(30 * time.Second)
			for warm.TapeBuilds() == 0 {
				if time.Now().After(deadline) {
					close(gate)
					t.Fatal("the lpstudy job never built its shared entries")
				}
				time.Sleep(5 * time.Millisecond)
			}
			waitDone(t, ts.URL, postSweep(t, ts.URL, sweepRequest{Experiment: "fig6", Benchmarks: []string{"Mcf"}, Seed: seedPtr(202), Sample: sample}))
			r := statszResident(t, ts.URL)
			close(gate)
			shared("overlapping jobs", len(both))
			if r.ProbeTapes != len(lpGeoms) || r.TraceRecordings != 0 {
				t.Errorf("after the first job ended: %d resident tape(s) and %d recording(s), want %d and none (held by the running job)",
					r.ProbeTapes, r.TraceRecordings, len(lpGeoms))
			}
			waitDone(t, ts.URL, lp)
			if r := statszResident(t, ts.URL); r != (residentView{}) {
				t.Errorf("resident after both jobs = %+v, want all zero", r)
			}
		})
	}
}
