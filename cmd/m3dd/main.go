// Command m3dd is the design-space-exploration daemon: the sweep library
// behind an HTTP/JSON API, with a process-wide content-addressed result
// cache in front of it so repeated and concurrent sweeps are served instead
// of re-simulated, and a write-ahead job manifest under it so accepted
// sweeps survive crashes and redeploys.
//
//	m3dd -addr 127.0.0.1:8321 -journal-dir /var/lib/m3dd/journal -job-dir /var/lib/m3dd/jobs
//
//	POST /sweeps              {"experiment":"fig6","benchmarks":["Mcf"]}  → 202 {id,url}
//	                          429 + Retry-After over a full queue;
//	                          X-M3D-Deadline / ?deadline= bounds the sweep
//	GET  /sweeps              job ledger
//	GET  /sweeps/{id}         job state + full result when done
//	GET  /sweeps/{id}/cells   flattened per-cell results
//	GET  /sweeps/{id}/events  live progress (server-sent events; the last
//	                          -event-buffer events replay, older ones are
//	                          summarised by a "lost" marker)
//	GET  /healthz             200 ok|degraded / 503 draining
//	GET  /statsz              cache, queue, admission and manifest counters
//
// Identical cells across sweeps coalesce onto one simulation (single
// flight); finished cells are served from the in-memory cache; with
// -journal-dir, cells journaled by earlier runs — including m3dcli runs
// over the same directory — are served from disk without re-simulation.
// Results are bit-identical to direct m3dcli output in every case.
//
// With -job-dir, every accepted sweep spec and state transition is
// write-ahead recorded in a job manifest: after a crash (even kill -9) a
// restarted daemon replays the manifest, re-enqueues every unfinished job
// and re-runs it with completed cells served from the journal — zero cell
// re-execution. An unusable manifest downgrades to memory-only jobs and a
// /healthz warning; it never refuses traffic.
//
// SIGINT/SIGTERM drains gracefully: the listener stops accepting, queued
// sweeps are recorded as interrupted (resumed by the next boot), running
// sweeps finish their in-flight cells, journals flush, then the process
// exits 130. A second signal force-quits immediately.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"time"

	"vertical3d/internal/shutdown"
	"vertical3d/internal/sweepflag"
)

// sharedFlags are the sweep flags the daemon shares with the batch
// commands; every other shared setting keeps its default, which turns the
// trace cache on.
const sharedFlags = sweepflag.Workers | sweepflag.Journal | sweepflag.Retries

func main() {
	addr := flag.String("addr", "127.0.0.1:8321", "listen address")
	quick := flag.Bool("quick", false, "default sweeps to small simulation sizes (requests can still size explicitly)")
	jobDir := flag.String("job-dir", "", "persist the job ledger here as a write-ahead manifest; a restarted daemon resumes unfinished jobs (created if missing)")
	sf := sweepflag.Register(flag.CommandLine, "m3dd", sharedFlags)
	cacheBytes := flag.Int64("cache-bytes", 256<<20, "in-memory result-cache budget in bytes, also bounding retained job results (<= 0 = unbounded)")
	maxSweeps := flag.Int("max-sweeps", 2, "sweeps simulating concurrently; further accepted sweeps queue")
	queueDepth := flag.Int("queue-depth", 64, "accepted sweeps waiting for a slot before POSTs are shed with 429")
	keepJobs := flag.Int("keep-jobs", 64, "finished sweeps retained for GET before the oldest are evicted")
	eventBuffer := flag.Int("event-buffer", 256, "progress events retained per job for SSE replay; older events collapse into a lost marker")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for open HTTP connections")
	flag.Parse()

	logger := log.New(os.Stderr, "", log.LstdFlags)
	env, err := sf.Env()
	if err != nil {
		logger.Fatalf("m3dd: %v", err)
	}

	shut := shutdown.Install(context.Background(), shutdown.WithLog(logger.Printf))
	defer shut.Stop()

	srv := newServer(shut.Context(), serverConfig{
		Env:         env,
		JobDir:      *jobDir,
		CacheBudget: *cacheBytes,
		MaxSweeps:   *maxSweeps,
		QueueDepth:  *queueDepth,
		KeepJobs:    *keepJobs,
		EventCap:    *eventBuffer,
		Quick:       *quick,
		Logf:        logger.Printf,
	})

	// Listen explicitly so the bound address — which differs from -addr
	// when the port is 0 — is logged before serving; the chaos harness
	// scrapes it to find a restarted daemon.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "m3dd: %v\n", err)
		os.Exit(1)
	}
	httpSrv := &http.Server{
		Handler:           srv.routes(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	go func() {
		<-shut.Context().Done()
		srv.drain()
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		_ = httpSrv.Shutdown(ctx)
	}()

	logger.Printf("m3dd: listening on %s (cache %d MiB, %d concurrent sweeps, queue %d)",
		ln.Addr(), *cacheBytes>>20, *maxSweeps, *queueDepth)
	err = httpSrv.Serve(ln)
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "m3dd: %v\n", err)
		os.Exit(1)
	}
	// The listener is down; let accepted sweeps drain before exiting so
	// their journals and the job manifest are complete.
	srv.wait()
	if srv.store != nil {
		if err := srv.store.Close(); err != nil {
			logger.Printf("m3dd: %v", err)
		}
	}
	logger.Printf("m3dd: drained, exiting")
	os.Exit(shut.ExitCode(0))
}
