// Package parallel provides the bounded worker pool every experiment sweep
// in this repository fans out through. Each (benchmark × design) cell of a
// figure or table is an independent cycle-level simulation, so sweeps
// parallelise embarrassingly well — but the results must stay bit-identical
// at any worker count. The pool therefore guarantees:
//
//   - deterministic result collection: Map writes the result of task i into
//     slot i of a pre-sized slice, so output order never depends on
//     goroutine scheduling;
//   - caller-chosen dispatch order: Order permutes the order in which cells
//     start (nil means index order) without moving any result or error out
//     of its index slot;
//   - deterministic error selection: when several tasks fail, the error of
//     the lowest-indexed failing task is returned;
//   - index-keyed fail-fast: after cell k fails, undispatched cells below k
//     still run, cells above k are never dispatched, and in-flight cells
//     above k have their context cancelled — so on every dispatch order the
//     reported error is that of the lowest failing index. An external
//     cancel stops the dispatch of every task that has not started yet;
//   - panic safety: a panicking task is recovered into a *PanicError
//     carrying the task index and stack, and reported like any other task
//     error instead of crashing the whole sweep;
//   - deadlines: TaskTimeout bounds each task's context and SweepTimeout
//     bounds the whole ForEach/Map call;
//   - bounded retries: Retry re-runs transiently failing cells (panics,
//     task timeouts) with deterministic jittered exponential backoff —
//     sound because cells are pure functions of their index;
//   - a watchdog: WatchdogGrace logs cells still running past their
//     TaskTimeout plus grace, catching tasks that ignore their context;
//   - a bounded worker count: at most Workers goroutines run tasks, with
//     Workers <= 0 meaning DefaultWorkers().
//
// Map fails fast; MapPartial keeps going, running every cell and recording
// per-cell errors so a sweep with one poisoned cell still yields every
// healthy cell (the -keep-going mode of the command-line binaries).
//
// Tasks themselves must be pure functions of their index (plus immutable
// captured state); the pool adds no synchronisation beyond the join, which
// is exactly what makes "results depend only on (profile, design, seed),
// never on scheduling order" enforceable. That is also why Order is a pure
// throughput knob: a caller whose neighbouring cells contend on a shared,
// single-flighted resource (one profile's probe tapes in a Fig6 sweep)
// spreads them apart, and every output stays identical.
package parallel

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"log"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"vertical3d/internal/guard"
)

// defaultWorkers overrides the pool-wide default when positive. It is set
// by the -j flag of the command-line binaries.
var defaultWorkers atomic.Int64

// SetDefaultWorkers sets the process-wide default worker count used by
// pools whose Workers field is zero. n <= 0 restores the GOMAXPROCS
// default. It returns the previous override (0 if none was set).
func SetDefaultWorkers(n int) int {
	if n < 0 {
		n = 0
	}
	return int(defaultWorkers.Swap(int64(n)))
}

// DefaultWorkers returns the default worker count: the value installed with
// SetDefaultWorkers if positive, else runtime.GOMAXPROCS(0).
func DefaultWorkers() int {
	if n := defaultWorkers.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// PanicError is a task panic recovered by the pool. It preserves the task
// index, the panic value and the goroutine stack at the panic site, so a
// crash inside one (benchmark × design) cell is attributable instead of
// killing the entire sweep.
type PanicError struct {
	// Index is the task index that panicked.
	Index int
	// Value is the value passed to panic().
	Value any
	// Stack is the formatted goroutine stack captured at recovery.
	Stack []byte
}

// Error implements error.
func (p *PanicError) Error() string {
	return fmt.Sprintf("parallel: task %d panicked: %v", p.Index, p.Value)
}

// String includes the stack trace.
func (p *PanicError) String() string {
	return p.Error() + "\n" + string(p.Stack)
}

// PanicValue returns the recovered panic value. It is the structural
// marker guard.Classify uses to recognise recovered panics without
// importing this package.
func (p *PanicError) PanicValue() any { return p.Value }

// CellAbortError marks a cell that never ran: the sweep's context was
// cancelled — externally, or by an expired SweepTimeout — before the cell
// was dispatched. It carries the cell index and the sweep deadline so a
// resumed run can report exactly which cells were preempted instead of a
// generic context error.
type CellAbortError struct {
	// Index is the undispatched cell.
	Index int
	// Deadline is the sweep deadline that preempted dispatch; zero when
	// the sweep was cancelled without a deadline (external cancel).
	Deadline time.Time
	// Err is the underlying context error (context.Canceled or
	// context.DeadlineExceeded); errors.Is sees through it.
	Err error
}

// Error implements error.
func (e *CellAbortError) Error() string {
	if !e.Deadline.IsZero() {
		return fmt.Sprintf("parallel: cell %d not dispatched: sweep deadline %s exceeded: %v",
			e.Index, e.Deadline.Format(time.RFC3339Nano), e.Err)
	}
	return fmt.Sprintf("parallel: cell %d not dispatched: %v", e.Index, e.Err)
}

// Unwrap exposes the context error to errors.Is/As.
func (e *CellAbortError) Unwrap() error { return e.Err }

// Retry bounds per-cell re-execution of transiently failing tasks with
// jittered exponential backoff. The zero value disables retries, keeping
// every cell single-shot.
//
// Retrying is sound in this pipeline because cells are pure functions of
// their index: a successful re-execution is bit-identical to a first-try
// success, so retries change only availability, never results.
type Retry struct {
	// Attempts is the maximum number of times a cell runs, including the
	// first. Values <= 1 disable retries.
	Attempts int

	// BaseDelay is the backoff before the first retry; it doubles on
	// every further retry. 0 means 10ms.
	BaseDelay time.Duration

	// MaxDelay caps the exponential backoff. 0 means 1s.
	MaxDelay time.Duration

	// Jitter widens each delay by a deterministic per-(cell, attempt)
	// factor in [1-Jitter, 1+Jitter], decorrelating retry bursts without
	// sacrificing run-to-run reproducibility (the factor is a hash, not a
	// random draw). 0 means 0.5; negative disables jitter.
	Jitter float64

	// Retryable classifies errors; nil means DefaultRetryable. It is
	// consulted after every failed attempt except the last.
	Retryable func(error) bool
}

// attempts clamps the configured attempt budget.
func (r Retry) attempts() int { return max(r.Attempts, 1) }

// retryable applies the configured or default classification.
func (r Retry) retryable(err error) bool {
	if r.Retryable != nil {
		return r.Retryable(err)
	}
	return DefaultRetryable(err)
}

// DefaultRetryable is the default retry classification, built on
// guard.Classify: recovered panics and expired task deadlines are
// transient (an OOM-adjacent allocation failure or an overloaded machine
// may not recur); cancellation is deliberate and deterministic model
// errors would only fail again, so neither is retried.
func DefaultRetryable(err error) bool {
	switch guard.Classify(err) {
	case guard.KindPanic, guard.KindTimeout:
		return true
	default:
		return false
	}
}

// backoff returns the delay before retry number attempt (1-based count of
// failures so far) of the given cell. Deterministic: the same (cell,
// attempt) always backs off for the same duration.
func (r Retry) backoff(cell, attempt int) time.Duration {
	base := r.BaseDelay
	if base <= 0 {
		base = 10 * time.Millisecond
	}
	maxD := r.MaxDelay
	if maxD <= 0 {
		maxD = time.Second
	}
	d := maxD
	if attempt-1 < 30 { // past 2^30 the cap always wins; avoid overflow
		if shifted := base << (attempt - 1); shifted > 0 && shifted < maxD {
			d = shifted
		}
	}
	j := r.Jitter
	if j == 0 {
		j = 0.5
	}
	if j > 0 {
		h := fnv.New64a()
		fmt.Fprintf(h, "%d|%d", cell, attempt)
		u := float64(h.Sum64()) / float64(math.MaxUint64) // [0, 1)
		d = time.Duration(float64(d) * (1 + j*(2*u-1)))
	}
	return max(d, 0)
}

// sleepCtx sleeps for d unless ctx is done first; it reports whether the
// full backoff elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// Pool is a bounded worker pool. The zero value is ready to use and runs
// DefaultWorkers() tasks concurrently.
type Pool struct {
	// Workers is the maximum number of concurrently running tasks.
	// Values <= 0 mean DefaultWorkers().
	Workers int

	// TaskTimeout, when positive, bounds the context passed to each task.
	// Tasks observe the deadline through their context; a cooperative task
	// returns its ctx.Err(), which the pool reports like any other task
	// error. The pool cannot forcibly stop a task that ignores its context.
	TaskTimeout time.Duration

	// SweepTimeout, when positive, bounds the whole ForEach/Map call: on
	// expiry the context passed to every task is cancelled and no new task
	// is dispatched.
	SweepTimeout time.Duration

	// Retry re-runs transiently failing cells (recovered panics, expired
	// task deadlines) with jittered exponential backoff. The zero value
	// disables retries.
	Retry Retry

	// WatchdogGrace, when positive together with TaskTimeout, arms a
	// watchdog that logs every cell still running WatchdogGrace past its
	// TaskTimeout — the signature of a task ignoring its context. The
	// watchdog only observes and logs; it cannot stop a runaway goroutine.
	WatchdogGrace time.Duration

	// WatchdogLog receives the watchdog's stuck-cell reports. Nil means
	// the standard library logger (stderr).
	WatchdogLog func(format string, args ...any)

	// Order, when non-nil, is the dispatch order: the k-th cell started is
	// Order[k]. It must be a permutation of [0, n) for a call over n cells,
	// or the call fails with ErrOrder before running anything. Results and
	// errors stay in their index slots and fail-fast stays keyed by index
	// (see the package comment), so the order changes only which cells run
	// side by side. Nil means index order.
	Order []int

	// Settled, when non-nil, is called once per cell when the cell's
	// outcome is final: after its last attempt returned (success, error
	// or recovered panic), or when fail-fast or cancellation kept it from
	// running. Calls come from the worker goroutines, each before the
	// worker takes its next cell, and all of them before the call
	// returns. Sweeps use it to drop per-cell resources early.
	Settled func(i int)
}

// ErrOrder reports a Pool.Order that is not a permutation of the call's
// cell indices.
var ErrOrder = errors.New("parallel: dispatch order is not a permutation of the cell indices")

// checkOrder validates Order for a call over n cells.
func (p Pool) checkOrder(n int) error {
	if p.Order == nil {
		return nil
	}
	if len(p.Order) != n {
		return fmt.Errorf("%w: %d entries for %d cells", ErrOrder, len(p.Order), n)
	}
	seen := make([]bool, n)
	for _, i := range p.Order {
		if i < 0 || i >= n || seen[i] {
			return fmt.Errorf("%w: cell %d out of range or repeated", ErrOrder, i)
		}
		seen[i] = true
	}
	return nil
}

// failState is the index-keyed fail-fast state of one call: the lowest
// failing cell so far and the cancel functions of the cells in flight.
// Its methods are nil-receiver safe, so keep-going calls pass nil.
type failState struct {
	mu      sync.Mutex
	lowest  int                  // lowest failed cell index; n while none has
	cancels []context.CancelFunc // per cell; non-nil while the cell runs
}

func newFailState(n int) *failState {
	return &failState{lowest: n, cancels: make([]context.CancelFunc, n)}
}

// start reports whether cell i may still be dispatched — no lower cell has
// failed — and returns the context it runs under.
func (f *failState) start(ctx context.Context, i int) (context.Context, bool) {
	if f == nil {
		return ctx, true
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if i > f.lowest {
		return nil, false
	}
	ctx, f.cancels[i] = context.WithCancel(ctx)
	return ctx, true
}

// finish releases cell i's context; when the cell failed below every
// earlier failure, it cancels the in-flight cells above it.
func (f *failState) finish(i int, failed bool) {
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.cancels[i]()
	f.cancels[i] = nil
	if !failed || i > f.lowest {
		return
	}
	f.lowest = i
	for _, cancel := range f.cancels[i+1:] {
		if cancel != nil {
			cancel()
		}
	}
}

// Default returns a pool using the process-wide default worker count.
func Default() Pool { return Pool{} }

// size clamps the worker count to [1, n].
func (p Pool) size(n int) int {
	w := p.Workers
	if w <= 0 {
		w = DefaultWorkers()
	}
	return min(max(w, 1), max(n, 1))
}

// watchdog tracks per-cell start times and logs cells overrunning the
// task deadline past the grace period. All methods are nil-receiver safe
// so the dispatch loop needs no branches when the watchdog is disarmed.
type watchdog struct {
	limit  time.Duration // TaskTimeout + grace
	logf   func(format string, args ...any)
	starts []atomic.Int64 // start unix-nanos per cell; 0 = not running
	warned []atomic.Bool
	stop   chan struct{}
	done   sync.WaitGroup
}

// newWatchdog arms a watchdog for n cells, or returns nil when the pool
// has no task deadline or no grace configured.
func (p Pool) newWatchdog(n int) *watchdog {
	if p.TaskTimeout <= 0 || p.WatchdogGrace <= 0 {
		return nil
	}
	logf := p.WatchdogLog
	if logf == nil {
		logf = log.Printf
	}
	w := &watchdog{
		limit:  p.TaskTimeout + p.WatchdogGrace,
		logf:   logf,
		starts: make([]atomic.Int64, n),
		warned: make([]atomic.Bool, n),
		stop:   make(chan struct{}),
	}
	interval := max(p.WatchdogGrace/4, time.Millisecond)
	w.done.Add(1)
	go w.loop(interval, p.TaskTimeout, p.WatchdogGrace)
	return w
}

// loop scans the running cells on every tick and logs each overrun once
// per attempt.
func (w *watchdog) loop(interval, timeout, grace time.Duration) {
	defer w.done.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-t.C:
			now := time.Now().UnixNano()
			for i := range w.starts {
				s := w.starts[i].Load()
				if s == 0 || time.Duration(now-s) < w.limit {
					continue
				}
				if w.warned[i].CompareAndSwap(false, true) {
					w.logf("parallel: watchdog: cell %d stuck: running %v, more than %v past its %v task timeout",
						i, time.Duration(now-s).Round(time.Millisecond), grace, timeout)
				}
			}
		}
	}
}

// begin marks cell i as running (one attempt).
func (w *watchdog) begin(i int) {
	if w != nil {
		w.warned[i].Store(false)
		w.starts[i].Store(time.Now().UnixNano())
	}
}

// end marks cell i as no longer running.
func (w *watchdog) end(i int) {
	if w != nil {
		w.starts[i].Store(0)
	}
}

// close stops the scan goroutine and waits for it.
func (w *watchdog) close() {
	if w != nil {
		close(w.stop)
		w.done.Wait()
	}
}

// call runs one cell to completion: up to Retry.attempts() executions of
// fn with panic recovery, per-attempt task deadlines and deterministic
// jittered backoff between attempts. Retrying stops early when the sweep
// context is cancelled or the error classifies as non-retryable; the
// cell's own (last) error is returned, never the backoff interruption.
func (p Pool) call(ctx context.Context, i int, wd *watchdog, fn func(ctx context.Context, i int) error) error {
	attempts := p.Retry.attempts()
	for a := 1; ; a++ {
		err := p.callOnce(ctx, i, wd, fn)
		if err == nil || a >= attempts || ctx.Err() != nil || !p.Retry.retryable(err) {
			return err
		}
		if !sleepCtx(ctx, p.Retry.backoff(i, a)) {
			return err // sweep cancelled mid-backoff
		}
	}
}

// callOnce runs fn(ctx, i) once with panic recovery, the per-task
// deadline, and watchdog bookkeeping.
func (p Pool) callOnce(ctx context.Context, i int, wd *watchdog, fn func(ctx context.Context, i int) error) (err error) {
	if p.TaskTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, p.TaskTimeout)
		defer cancel()
	}
	wd.begin(i)
	defer wd.end(i)
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Index: i, Value: r, Stack: debug.Stack()}
		}
	}()
	return fn(ctx, i)
}

// run is the shared dispatch loop: it executes fn over [0, n) in Order,
// writing task errors into errs by index. When failFast is set, a failing
// cell k stops the dispatch of every cell above k and cancels those in
// flight, while cells below k still run; otherwise every task runs unless
// the (external or sweep-deadline) context is cancelled first, in which
// case undispatched tasks are marked with the context error. The returned
// error is ErrOrder (also written into every slot) for an invalid Order,
// else the context error (external cancel or expired SweepTimeout) if it
// stopped any dispatch, nil otherwise.
func (p Pool) run(ctx context.Context, n int, failFast bool, errs []error, fn func(ctx context.Context, i int) error) error {
	settle := func(int) {}
	if p.Settled != nil {
		settle = p.Settled
	}
	if err := p.checkOrder(n); err != nil {
		for i := range errs {
			errs[i] = err
			settle(i)
		}
		return err
	}
	if p.SweepTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, p.SweepTimeout)
		defer cancel()
	}
	var ff *failState
	if failFast {
		ff = newFailState(n)
	}

	workers := p.size(n)
	wd := p.newWatchdog(n)
	defer wd.close()
	var next atomic.Int64
	var skipped atomic.Bool
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if p.Order != nil {
					i = p.Order[i]
				}
				if err := ctx.Err(); err != nil {
					skipped.Store(true)
					if failFast {
						settle(i)
						continue
					}
					// Keep-going mode: attribute the cancellation to every
					// undispatched cell — tagged with the cell index and the
					// sweep deadline, so a resumed run can report exactly
					// which cells were preempted — letting MapPartial
					// callers tell "not run" from "ran and succeeded".
					deadline, _ := ctx.Deadline()
					errs[i] = &CellAbortError{Index: i, Deadline: deadline, Err: err}
					settle(i)
					continue
				}
				cctx, ok := ff.start(ctx, i)
				if !ok {
					settle(i) // a lower cell failed: i is never dispatched
					continue
				}
				err := p.call(cctx, i, wd, fn)
				errs[i] = err
				ff.finish(i, err != nil)
				settle(i)
			}
		}()
	}
	wg.Wait()
	if skipped.Load() {
		return ctx.Err()
	}
	return nil
}

// ForEach runs fn(ctx, i) for every i in [0, n), at most p.Workers at a
// time, and blocks until all started tasks have finished. It fails fast by
// index: a failing task k (including a recovered panic) cancels the
// context of every running task above k and stops dispatching them, while
// tasks below k still run. The error of the lowest failing index is
// returned, so the reported error depends neither on goroutine scheduling
// nor on the dispatch Order.
func (p Pool) ForEach(ctx context.Context, n int, fn func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	errs := make([]error, n) // slot per task: no locking, no ordering races
	runErr := p.run(ctx, n, true, errs, fn)
	if err := FirstError(errs); err != nil {
		return err
	}
	if runErr != nil {
		return runErr
	}
	return ctx.Err()
}

// Map runs fn over [0, n) on pool p and collects the results by index, so
// out[i] is always the result of task i regardless of completion order.
// On error the partial results are discarded and the lowest-indexed task
// error is returned.
func Map[T any](ctx context.Context, p Pool, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, ctx.Err()
	}
	out := make([]T, n)
	err := p.ForEach(ctx, n, func(ctx context.Context, i int) error {
		v, err := fn(ctx, i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// MapPartial runs fn over [0, n) without failing fast: a failing (or
// panicking) cell does not cancel the sweep, so every healthy cell still
// completes and is collected by index. It returns the results and a
// parallel errs slice with errs[i] non-nil exactly when cell i failed
// (out[i] is then the zero value). External cancellation — or an expired
// SweepTimeout — still stops dispatch; cells skipped that way carry a
// *CellAbortError tagging the cell index and the sweep deadline (and
// unwrapping to the context error). Healthy cells are bit-identical to a
// fault-free run at
// any worker count, because each cell remains a pure function of its index.
func MapPartial[T any](ctx context.Context, p Pool, n int, fn func(ctx context.Context, i int) (T, error)) (out []T, errs []error) {
	if n <= 0 {
		return nil, nil
	}
	out = make([]T, n)
	errs = make([]error, n)
	p.run(ctx, n, false, errs, func(ctx context.Context, i int) error {
		v, err := fn(ctx, i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	// A cell that panicked after writing a partial value must not leak it.
	var zero T
	for i, err := range errs {
		if err != nil {
			out[i] = zero
		}
	}
	return out, errs
}

// FirstError returns the lowest-index non-nil error of a per-cell error
// slice (as produced by MapPartial), or nil when every cell succeeded.
func FirstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// CountErrors returns the number of failed cells.
func CountErrors(errs []error) int {
	c := 0
	for _, err := range errs {
		if err != nil {
			c++
		}
	}
	return c
}
