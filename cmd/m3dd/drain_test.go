package main

import (
	"context"
	"net"
	"net/http"
	"sync"
	"syscall"
	"testing"
	"time"

	"vertical3d/internal/jobstore"
	"vertical3d/internal/shutdown"
	"vertical3d/internal/sweep"
	"vertical3d/internal/trace"
)

// TestDrainRejectsConcurrentPosts hammers POST /sweeps from many goroutines
// while the daemon starts draining: every response is either a clean 202 or
// a clean 503 — never a hang, never a partial accept — and once the drain
// flag is up every later POST is 503.
func TestDrainRejectsConcurrentPosts(t *testing.T) {
	s, ts := newTestServer(t, serverConfig{MaxSweeps: 1, QueueDepth: 128})

	const posters = 16
	var wg sync.WaitGroup
	codes := make(chan int, posters*4)
	start := make(chan struct{})
	for i := 0; i < posters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for k := 0; k < 4; k++ {
				resp := postSweepRaw(t, ts.URL, longSweep(), nil)
				codes <- resp.StatusCode
				resp.Body.Close()
			}
		}()
	}
	close(start)
	time.Sleep(5 * time.Millisecond)
	s.drain()
	wg.Wait()
	close(codes)

	for code := range codes {
		if code != http.StatusAccepted && code != http.StatusServiceUnavailable && code != http.StatusTooManyRequests {
			t.Errorf("POST during drain returned %d, want 202, 429 or 503", code)
		}
	}

	// The drain flag is up: every subsequent POST is refused.
	for i := 0; i < 3; i++ {
		resp := postSweepRaw(t, ts.URL, longSweep(), nil)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("POST after drain returned %d, want 503", resp.StatusCode)
		}
	}
	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusServiceUnavailable {
		t.Errorf("healthz during drain: status %d, want 503", code)
	}
}

// TestShutdownRecordsQueuedJobsInterrupted cancels the daemon with one job
// running and one queued: the queued job must be failed in memory with a
// mid-drain explanation AND recorded interrupted in the manifest, so the
// next boot resumes it rather than losing it.
func TestShutdownRecordsQueuedJobsInterrupted(t *testing.T) {
	trace.ResetCache()
	defer trace.ResetCache()
	jobsDir := t.TempDir()

	ctx, cancel := context.WithCancel(context.Background())
	cfg := serverConfig{Env: sweep.Env{Workers: 2}, JobDir: jobsDir, MaxSweeps: 1, QueueDepth: 4, Quick: true, Logf: t.Logf}
	s := newServer(ctx, cfg)
	defer func() {
		if s.store != nil {
			_ = s.store.Close()
		}
	}()
	ts := newHTTPServer(t, s)

	busy := postSweep(t, ts, longSweep())
	waitRunning(t, s, busy)
	queued := postSweep(t, ts, longSweep())

	cancel()
	s.wait()

	// In memory: the queued job reports the drain, terminally.
	s.mu.Lock()
	qj := s.jobs[queued]
	s.mu.Unlock()
	qj.mu.Lock()
	qState, qErr := qj.state, qj.err
	qj.mu.Unlock()
	if qState != jobstore.StateFailed {
		t.Errorf("queued job state after drain = %q, want failed", qState)
	}
	if qErr == "" {
		t.Error("queued job carries no mid-drain explanation")
	}

	// On disk: interrupted (resumable), not failed.
	_ = s.store.Close()
	st, err := jobstore.Open(jobsDir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	states := map[string]string{}
	for _, pj := range st.Jobs() {
		states[pj.ID] = pj.State
	}
	if states[queued] != jobstore.StateInterrupted {
		t.Errorf("manifest records queued job %q, want interrupted", states[queued])
	}
	if states[busy] != jobstore.StateInterrupted {
		t.Errorf("manifest records running job %q, want interrupted", states[busy])
	}
}

// newHTTPServer wires a server's routes to a test listener without the
// newTestServer cleanup (tests that manage their own lifecycle).
func newHTTPServer(t *testing.T, s *server) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: s.routes()}
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() { _ = srv.Close() })
	return "http://" + ln.Addr().String()
}

// TestSecondSignalForceQuits proves the second-SIGTERM path: the first
// signal starts the drain, the second bypasses it through the recorded
// force-exit seam with the interrupted exit status.
func TestSecondSignalForceQuits(t *testing.T) {
	exited := make(chan int, 1)
	shut := shutdown.Install(context.Background(),
		shutdown.WithLog(t.Logf),
		shutdown.WithForceExit(func(code int) { exited <- code }))
	defer shut.Stop()

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-shut.Context().Done():
	case <-time.After(10 * time.Second):
		t.Fatal("first SIGTERM did not cancel the drain context")
	}

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-exited:
		if code != shutdown.ExitInterrupted {
			t.Errorf("force-quit exit code %d, want %d", code, shutdown.ExitInterrupted)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("second SIGTERM did not force-quit")
	}
	if code := shut.ExitCode(0); code != shutdown.ExitInterrupted {
		t.Errorf("ExitCode(0) after signal = %d, want %d", code, shutdown.ExitInterrupted)
	}
}

// TestDrainTimeoutReportsMidDrainJobs pins the drain-expiry contract at the
// server layer: when the daemon context dies mid-sweep, the running job is
// failed in memory (so a last status poll sees a terminal state with a
// cause) and recorded interrupted on disk.
func TestDrainTimeoutReportsMidDrainJobs(t *testing.T) {
	trace.ResetCache()
	defer trace.ResetCache()
	jobsDir := t.TempDir()

	ctx, cancel := context.WithCancel(context.Background())
	s := newServer(ctx, serverConfig{Env: sweep.Env{Workers: 1}, JobDir: jobsDir, Quick: true, Logf: t.Logf})
	defer func() {
		if s.store != nil {
			_ = s.store.Close()
		}
	}()
	ts := newHTTPServer(t, s)

	id := postSweep(t, ts, longSweep())
	waitRunning(t, s, id)
	cancel()
	s.wait()

	v := waitTerminal(t, ts, id)
	if v.State != "failed" {
		t.Errorf("mid-drain job state = %q, want failed", v.State)
	}
	if v.Error == "" {
		t.Error("mid-drain job reports no cause")
	}
}
