// Package shutdown is the graceful-termination layer shared by the
// command-line binaries. Install hooks SIGINT and SIGTERM: the first
// signal cancels the returned context so worker pools stop dispatching
// new sweep cells, drain in-flight work, and flush journals; a second
// signal force-exits immediately for operators who do not want to wait
// for the drain.
//
// The conventional exit status for an interrupted-but-cleanly-drained
// run is ExitInterrupted (130 = 128+SIGINT), which Handler.ExitCode
// applies on top of whatever status the drained pipeline produced.
package shutdown

import (
	"context"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
)

// ExitInterrupted is the process exit status for a run that was
// interrupted by SIGINT/SIGTERM and drained cleanly: 128 + SIGINT(2),
// the shell convention for "killed by signal 2".
const ExitInterrupted = 130

// Handler owns the signal subscription and the cancellation it drives.
type Handler struct {
	ctx       context.Context
	cancel    context.CancelFunc
	ch        chan os.Signal
	quit      chan struct{}
	stopOnce  atomic.Bool
	done      chan struct{}
	triggered atomic.Bool

	// seams for tests
	logf      func(format string, args ...any)
	forceExit func(code int)
}

// Option customises an installed handler.
type Option func(*Handler)

// WithLog routes the handler's progress lines ("interrupt received,
// draining...") to fn instead of discarding them.
func WithLog(fn func(format string, args ...any)) Option {
	return func(h *Handler) { h.logf = fn }
}

// WithForceExit replaces os.Exit for the second-signal path. This is a
// documented test seam: the serving-layer drain tests install a recording
// function and deliver two real signals to the test process to prove the
// second one bypasses the drain. Production callers must not use it.
func WithForceExit(fn func(code int)) Option {
	return func(h *Handler) { h.forceExit = fn }
}

// Install subscribes to SIGINT/SIGTERM and returns a handler whose
// Context is cancelled on the first signal. The caller should run its
// sweeps with h.Context() and exit with h.ExitCode(status).
func Install(parent context.Context, opts ...Option) *Handler {
	ctx, cancel := context.WithCancel(parent)
	h := &Handler{
		ctx:       ctx,
		cancel:    cancel,
		ch:        make(chan os.Signal, 2),
		quit:      make(chan struct{}),
		done:      make(chan struct{}),
		logf:      func(string, ...any) {},
		forceExit: os.Exit,
	}
	for _, o := range opts {
		o(h)
	}
	signal.Notify(h.ch, syscall.SIGINT, syscall.SIGTERM)
	go h.loop()
	return h
}

func (h *Handler) loop() {
	defer close(h.done)
	select {
	case sig := <-h.ch:
		h.triggered.Store(true)
		h.logf("shutdown: %v received: cancelling dispatch, draining in-flight cells (signal again to force-quit)", sig)
		h.cancel()
	case <-h.quit:
		return // Stop called; no signal arrived
	case <-h.ctx.Done():
		return // parent context cancelled underneath us
	}
	// After the first signal, a second one force-exits without draining.
	select {
	case sig := <-h.ch:
		h.logf("shutdown: second %v: exiting immediately without draining", sig)
		h.forceExit(ExitInterrupted)
	case <-h.quit:
		// Stop tearing the handler down after the drain.
	}
}

// Context is the run context: cancelled on the first SIGINT/SIGTERM.
func (h *Handler) Context() context.Context { return h.ctx }

// Triggered reports whether a shutdown signal arrived.
func (h *Handler) Triggered() bool { return h.triggered.Load() }

// ExitCode maps the pipeline's own exit status onto the process exit
// status: an interrupted run exits ExitInterrupted regardless of how
// much of the sweep completed, so scripts can distinguish "operator
// stopped it" from "it failed" (and resume from the journal).
func (h *Handler) ExitCode(code int) int {
	if h.Triggered() {
		return ExitInterrupted
	}
	return code
}

// Stop unsubscribes from signals and releases the handler's goroutine.
// Safe to call multiple times; typically deferred right after Install.
func (h *Handler) Stop() {
	signal.Stop(h.ch)
	if h.stopOnce.CompareAndSwap(false, true) {
		close(h.quit)
	}
	h.cancel()
	<-h.done
}
