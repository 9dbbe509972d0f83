package parallel

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapCollectsByIndex(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 64} {
		got, err := Map(context.Background(), Pool{Workers: workers}, 100,
			func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		want := make([]int, 100)
		for i := range want {
			want[i] = i * i
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: results out of order", workers)
		}
	}
}

func TestMapDeterministicAcrossWorkerCounts(t *testing.T) {
	run := func(workers int) []float64 {
		out, err := Map(context.Background(), Pool{Workers: workers}, 64,
			func(i int) (float64, error) {
				return float64(i) * 1.7, nil
			})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	if !reflect.DeepEqual(run(1), run(8)) {
		t.Fatal("results differ between 1 and 8 workers")
	}
}

// reversed returns the dispatch order n-1, ..., 0.
func reversed(n int) []int {
	order := make([]int, n)
	for k := range order {
		order[k] = n - 1 - k
	}
	return order
}

func TestFirstErrorByLowestIndex(t *testing.T) {
	errLow := errors.New("low")
	// Index order, and a reversed order that dispatches the higher failing
	// cell first: the lower one must be reported either way.
	for _, order := range [][]int{nil, reversed(32)} {
		for _, workers := range []int{1, 4, 16} {
			_, err := Map(context.Background(), Pool{Workers: workers, Order: order}, 32,
				func(i int) (int, error) {
					switch i {
					case 3:
						return 0, errLow
					case 20:
						return 0, fmt.Errorf("high")
					}
					return i, nil
				})
			if !errors.Is(err, errLow) {
				t.Fatalf("order=%v workers=%d: want lowest-index error, got %v", order, workers, err)
			}
		}
	}
}

// TestOrderedDispatch checks that Order sets the start sequence while every
// result stays in its index slot.
func TestOrderedDispatch(t *testing.T) {
	order := []int{4, 0, 3, 1, 2}
	var started []int
	got, err := Map(context.Background(), Pool{Workers: 1, Order: order}, 5,
		func(i int) (int, error) {
			started = append(started, i)
			return i * 10, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(started, order) {
		t.Fatalf("dispatched %v, want %v", started, order)
	}
	if want := []int{0, 10, 20, 30, 40}; !reflect.DeepEqual(got, want) {
		t.Fatalf("results %v, want %v by index", got, want)
	}
}

// TestFailFastKeyedByIndex dispatches a failing cell first: every cell
// below it still runs (and the lowest failure wins), no cell above the
// lowest failure starts.
func TestFailFastKeyedByIndex(t *testing.T) {
	order := []int{6, 0, 1, 2, 3, 4, 5, 7}
	var started []int
	err := Pool{Workers: 1, Order: order}.ForEach(context.Background(), 8,
		func(i int) error {
			started = append(started, i)
			if i == 6 || i == 2 {
				return fmt.Errorf("cell %d", i)
			}
			return nil
		})
	if err == nil || err.Error() != "cell 2" {
		t.Fatalf("want the error of cell 2, got %v", err)
	}
	if want := []int{6, 0, 1, 2}; !reflect.DeepEqual(started, want) {
		t.Fatalf("started %v, want %v", started, want)
	}
}

// TestDispatchedCellsRunToCompletion checks the pool's one cancellation
// model: cancelling the sweep or failing a cell stops dispatch only, and
// every cell already running finishes with its own outcome.
func TestDispatchedCellsRunToCompletion(t *testing.T) {
	// Keep-going: cell 1 cancels the sweep while cell 0 is still running
	// (blocked until after the cancel). Both keep their values; every
	// later cell is dispatched after the cancel and never runs.
	const n = 6
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	release := make(chan struct{})
	out, errs := MapPartial(ctx, Pool{Workers: 2}, n, func(i int) (int, error) {
		switch i {
		case 0:
			<-release
		case 1:
			cancel()
			close(release)
		default:
			t.Errorf("cell %d ran after the cancel", i)
		}
		return i + 10, nil
	})
	for i := range 2 {
		if errs[i] != nil || out[i] != i+10 {
			t.Errorf("in-flight cell %d = %d, %v; want %d, nil", i, out[i], errs[i], i+10)
		}
	}
	for i := 2; i < n; i++ {
		var ce *CellAbortError
		if !errors.As(errs[i], &ce) || ce.Index != i || !errors.Is(errs[i], context.Canceled) {
			t.Errorf("cell %d error %v, want a *CellAbortError for cell %d", i, errs[i], i)
		}
	}

	// Fail-fast: cells 1 and 2 are in flight when cell 0 fails, and end
	// only once cell 0 has settled. Cell 1 still completes; cell 2 panics
	// and is not retried, since its result can no longer be reported; the
	// cell above them is never dispatched, and Map returns cell 0's error.
	boom := errors.New("boom")
	started1, started2, settled0 := make(chan struct{}), make(chan struct{}), make(chan struct{})
	var finished, tries2, late atomic.Int64
	p := Pool{Workers: 3, Retry: Retry{Attempts: 3}, Settled: func(i int) {
		if i == 0 {
			close(settled0)
		}
	}}
	_, err := Map(context.Background(), p, 4, func(i int) (int, error) {
		switch i {
		case 0:
			<-started1
			<-started2
			return 0, boom
		case 1:
			close(started1)
			<-settled0
			finished.Add(1)
			return 1, nil
		case 2:
			if tries2.Add(1) == 1 {
				close(started2)
			}
			<-settled0
			panic("transient")
		}
		late.Add(1)
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Map error %v, want cell 0's", err)
	}
	if finished.Load() != 1 {
		t.Fatal("the in-flight cell above the failure did not finish")
	}
	if n := tries2.Load(); n != 1 {
		t.Fatalf("panicking cell above the failure ran %d times, want 1", n)
	}
	if late.Load() != 0 {
		t.Fatalf("%d cell(s) above the failure were dispatched after it", late.Load())
	}
}

// TestOrderMustBePermutation rejects orders that miss, repeat or exceed a
// cell index, before running any cell.
func TestOrderMustBePermutation(t *testing.T) {
	for _, order := range [][]int{{}, {0, 1}, {0, 1, 1}, {0, 1, 3}, {-1, 0, 1}, {0, 1, 2, 3}} {
		var ran atomic.Int64
		fn := func(i int) (int, error) {
			ran.Add(1)
			return i, nil
		}
		p := Pool{Workers: 2, Order: order}
		if _, err := Map(context.Background(), p, 3, fn); !errors.Is(err, ErrOrder) {
			t.Errorf("order %v: Map error %v, want ErrOrder", order, err)
		}
		_, errs := MapPartial(context.Background(), p, 3, fn)
		for i, err := range errs {
			if !errors.Is(err, ErrOrder) {
				t.Errorf("order %v: MapPartial cell %d error %v, want ErrOrder", order, i, err)
			}
		}
		if n := ran.Load(); n != 0 {
			t.Errorf("order %v: %d cells ran", order, n)
		}
	}
}

func TestErrorCancelsRemainingTasks(t *testing.T) {
	var started atomic.Int64
	boom := errors.New("boom")
	err := Pool{Workers: 2}.ForEach(context.Background(), 1000,
		func(i int) error {
			started.Add(1)
			if i == 0 {
				return boom
			}
			time.Sleep(time.Millisecond)
			return nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("want boom, got %v", err)
	}
	if n := started.Load(); n >= 1000 {
		t.Fatalf("cancellation did not stop dispatch: %d tasks started", n)
	}
}

func TestExternalCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := Pool{Workers: 4}.ForEach(ctx, 100, func(i int) error {
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestEmptyInput(t *testing.T) {
	out, err := Map(context.Background(), Pool{}, 0,
		func(i int) (int, error) { return 0, nil })
	if err != nil || out != nil {
		t.Fatalf("empty input: out=%v err=%v", out, err)
	}
}

func TestDefaultWorkers(t *testing.T) {
	if got := DefaultWorkers(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("DefaultWorkers()=%d, want GOMAXPROCS=%d", got, runtime.GOMAXPROCS(0))
	}
	prev := SetDefaultWorkers(3)
	defer SetDefaultWorkers(prev)
	if got := DefaultWorkers(); got != 3 {
		t.Fatalf("after SetDefaultWorkers(3): %d", got)
	}
	if got := (Pool{}).Size(100); got != 3 {
		t.Fatalf("zero pool size should follow default, got %d", got)
	}
	if got := (Pool{Workers: 8}).Size(2); got != 2 {
		t.Fatalf("size must clamp to task count, got %d", got)
	}
}

func TestPanicRecoveredIntoPanicError(t *testing.T) {
	for _, workers := range []int{1, 4, 16} {
		_, err := Map(context.Background(), Pool{Workers: workers}, 32,
			func(i int) (int, error) {
				if i == 7 {
					panic("boom cell")
				}
				return i, nil
			})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: want *PanicError, got %v", workers, err)
		}
		if pe.Index != 7 || pe.Value != "boom cell" {
			t.Fatalf("workers=%d: wrong panic attribution: %+v", workers, pe)
		}
		if len(pe.Stack) == 0 {
			t.Fatalf("workers=%d: missing stack", workers)
		}
	}
}

func TestPanicLowestIndexSelection(t *testing.T) {
	// Panics at 5 and 25: fail-fast is keyed by index, so index 5 always
	// runs and must be the reported error at any worker count.
	for _, workers := range []int{1, 2, 8} {
		err := Pool{Workers: workers}.ForEach(context.Background(), 64,
			func(i int) error {
				if i == 5 || i == 25 {
					panic(i)
				}
				return nil
			})
		var pe *PanicError
		if !errors.As(err, &pe) || pe.Index != 5 {
			t.Fatalf("workers=%d: want panic at index 5, got %v", workers, err)
		}
	}
}

func TestMapPartialKeepsHealthyCells(t *testing.T) {
	boom := errors.New("boom")
	var want []int
	for i := 0; i < 50; i++ {
		want = append(want, i*i)
	}
	for _, workers := range []int{1, 3, 16} {
		out, errs := MapPartial(context.Background(), Pool{Workers: workers}, 50,
			func(i int) (int, error) {
				switch i {
				case 4:
					return 0, boom
				case 31:
					panic("mid-sweep panic")
				}
				return i * i, nil
			})
		if n := CountErrors(errs); n != 2 {
			t.Fatalf("workers=%d: want 2 failed cells, got %d", workers, n)
		}
		if !errors.Is(errs[4], boom) {
			t.Fatalf("workers=%d: cell 4 error = %v", workers, errs[4])
		}
		var pe *PanicError
		if !errors.As(errs[31], &pe) || pe.Index != 31 {
			t.Fatalf("workers=%d: cell 31 error = %v", workers, errs[31])
		}
		if !errors.Is(FirstError(errs), boom) {
			t.Fatalf("workers=%d: FirstError should be lowest index", workers)
		}
		for i, v := range out {
			if i == 4 || i == 31 {
				if v != 0 {
					t.Fatalf("workers=%d: failed cell %d has non-zero value", workers, i)
				}
				continue
			}
			if v != want[i] {
				t.Fatalf("workers=%d: healthy cell %d = %d, want %d", workers, i, v, want[i])
			}
		}
	}
}

func TestMapPartialExternalCancelMarksSkippedCells(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, errs := MapPartial(ctx, Pool{Workers: 2}, 10,
		func(i int) (int, error) { return i + 1, nil })
	if len(out) != 10 || len(errs) != 10 {
		t.Fatalf("want full-length slices, got %d/%d", len(out), len(errs))
	}
	if n := CountErrors(errs); n != 10 {
		t.Fatalf("pre-cancelled context: want all cells marked, got %d", n)
	}
	if !errors.Is(errs[0], context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", errs[0])
	}
}

func TestSweepTimeout(t *testing.T) {
	p := Pool{Workers: 1, SweepTimeout: 10 * time.Millisecond}
	var ran atomic.Int64
	err := p.ForEach(context.Background(), 1000, func(i int) error {
		ran.Add(1)
		time.Sleep(time.Millisecond)
		return nil
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	if n := ran.Load(); n >= 1000 {
		t.Fatalf("sweep deadline did not stop dispatch: %d tasks ran", n)
	}
}

func TestFirstAndCountErrorHelpers(t *testing.T) {
	if FirstError(nil) != nil || CountErrors(nil) != 0 {
		t.Fatal("nil slice should be clean")
	}
	e1, e2 := errors.New("a"), errors.New("b")
	errs := []error{nil, e1, nil, e2}
	if !errors.Is(FirstError(errs), e1) || CountErrors(errs) != 2 {
		t.Fatal("helpers misbehave")
	}
}

func TestConcurrencyBound(t *testing.T) {
	var cur, peak atomic.Int64
	err := Pool{Workers: 3}.ForEach(context.Background(), 64,
		func(i int) error {
			n := cur.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			time.Sleep(200 * time.Microsecond)
			cur.Add(-1)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > 3 {
		t.Fatalf("observed %d concurrent tasks, pool bound is 3", p)
	}
}

// TestExternalDeadlinePropagates drives MapPartial with a caller-supplied
// deadline context — the shape m3dd hands a sweep when a request carries
// X-M3D-Deadline. Expiry must stop dispatch, and the skipped cells must be
// tagged with a *CellAbortError carrying that external deadline so the
// serving layer can report which deadline preempted them.
func TestExternalDeadlinePropagates(t *testing.T) {
	deadline := time.Now().Add(15 * time.Millisecond)
	ctx, cancel := context.WithDeadline(context.Background(), deadline)
	defer cancel()

	var ran atomic.Int64
	out, errs := MapPartial(ctx, Pool{Workers: 1}, 500, func(i int) (int, error) {
		ran.Add(1)
		time.Sleep(time.Millisecond)
		return i * 2, nil
	})
	if n := ran.Load(); n >= 500 {
		t.Fatalf("external deadline did not stop dispatch: %d cells ran", n)
	}
	if len(out) != 500 || len(errs) != 500 {
		t.Fatalf("partial map lost its shape: %d results, %d errs", len(out), len(errs))
	}

	aborted := 0
	for i, err := range errs {
		if err == nil {
			if out[i] != i*2 {
				t.Fatalf("healthy cell %d = %d, want %d", i, out[i], i*2)
			}
			continue
		}
		var abort *CellAbortError
		if !errors.As(err, &abort) {
			t.Fatalf("cell %d: %v, want *CellAbortError", i, err)
		}
		if !abort.Deadline.Equal(deadline) {
			t.Fatalf("cell %d abort carries deadline %v, want %v", i, abort.Deadline, deadline)
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("cell %d abort does not unwrap to DeadlineExceeded: %v", i, err)
		}
		aborted++
	}
	if aborted == 0 {
		t.Fatal("no cells were abort-tagged despite the expired deadline")
	}
}

// TestSettledOncePerFinalOutcome checks the Settled hook: every cell is
// settled exactly once — after its last attempt, not after each retry —
// whether it succeeded, failed, panicked, was skipped by fail-fast or was
// never dispatched because the sweep was cancelled.
func TestSettledOncePerFinalOutcome(t *testing.T) {
	const n = 24
	type probe struct {
		attempts, settled [n]atomic.Int32
		early             atomic.Int32 // settles seen before the final attempt
	}
	newPool := func(pr *probe, final func(i int) int32) Pool {
		return Pool{Workers: 3, Retry: Retry{Attempts: 3},
			Settled: func(i int) {
				if pr.attempts[i].Load() < final(i) {
					pr.early.Add(1)
				}
				pr.settled[i].Add(1)
			}}
	}
	check := func(name string, pr *probe) {
		t.Helper()
		if e := pr.early.Load(); e != 0 {
			t.Errorf("%s: %d cell(s) settled before their final attempt", name, e)
		}
		for i := range pr.settled {
			if c := pr.settled[i].Load(); c != 1 {
				t.Errorf("%s: cell %d settled %d times, want 1", name, i, c)
			}
		}
	}

	// Keep-going: cells 0 mod 3 panic on their first attempt and succeed on
	// the retry; cells 1 mod 3 fail with a non-retryable error.
	var pr probe
	final := func(i int) int32 {
		if i%3 == 0 {
			return 2
		}
		return 1
	}
	_, errs := MapPartial(context.Background(), newPool(&pr, final), n, func(i int) (int, error) {
		a := pr.attempts[i].Add(1)
		switch {
		case i%3 == 0 && a == 1:
			panic("transient")
		case i%3 == 1:
			return 0, errors.New("model error")
		}
		return i, nil
	})
	if got := CountErrors(errs); got != n/3 {
		t.Fatalf("keep-going: %d failed cells, want %d", got, n/3)
	}
	check("keep-going", &pr)

	// Fail-fast: cell 0 fails, so every cell above it is skipped or
	// cancelled.
	var ff probe
	zero := func(int) int32 { return 0 }
	pool := newPool(&ff, zero)
	pool.Workers = 1
	if err := pool.ForEach(context.Background(), n, func(i int) error {
		ff.attempts[i].Add(1)
		if i == 0 {
			return errors.New("model error")
		}
		return nil
	}); err == nil {
		t.Fatal("fail-fast: the failing cell's error was not returned")
	}
	check("fail-fast", &ff)

	// Cancelled before dispatch, in both modes.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var cf, ck probe
	_ = newPool(&cf, zero).ForEach(ctx, n, func(int) error { return nil })
	check("cancelled fail-fast", &cf)
	MapPartial(ctx, newPool(&ck, zero), n, func(int) (int, error) { return 0, nil })
	check("cancelled keep-going", &ck)
}

// TestOrderSettledTogether runs Order and Settled in one call: with a
// non-identity dispatch order, every cell settles exactly once, on its
// final outcome — success, a panic retried to success, a model error, a
// fail-fast skip or a cancellation — and all of them before Map or
// MapPartial returns. At one worker, cells settle in dispatch order.
func TestOrderSettledTogether(t *testing.T) {
	const n = 24
	order := make([]int, n)
	for k := range order {
		order[k] = k * 7 % n // a permutation: 7 and 24 are coprime
	}
	type probe struct {
		mu       sync.Mutex
		attempts [n]int
		settled  [n]int
		seq      []int // cells in settle order
		early    int   // settles seen before the cell's final attempt
	}
	pool := func(pr *probe, workers int, final func(i int) int) Pool {
		return Pool{Workers: workers, Order: order, Retry: Retry{Attempts: 2},
			Settled: func(i int) {
				pr.mu.Lock()
				defer pr.mu.Unlock()
				if pr.attempts[i] < final(i) {
					pr.early++
				}
				pr.settled[i]++
				pr.seq = append(pr.seq, i)
			}}
	}
	attempt := func(pr *probe, i int) int {
		pr.mu.Lock()
		defer pr.mu.Unlock()
		pr.attempts[i]++
		return pr.attempts[i]
	}
	// check runs right after the call returned: a cell settling late
	// would show as a count below one.
	check := func(name string, pr *probe) {
		t.Helper()
		pr.mu.Lock()
		defer pr.mu.Unlock()
		if pr.early != 0 {
			t.Errorf("%s: %d cell(s) settled before their final attempt", name, pr.early)
		}
		for i, c := range pr.settled {
			if c != 1 {
				t.Errorf("%s: cell %d settled %d times before the call returned, want 1", name, i, c)
			}
		}
	}

	// Keep-going on two workers: cells 0 mod 3 panic once and succeed on
	// the retry, cells 1 mod 3 fail with a non-retryable error.
	for _, workers := range []int{1, 2} {
		var pr probe
		final := func(i int) int {
			if i%3 == 0 {
				return 2
			}
			return 1
		}
		out, errs := MapPartial(context.Background(), pool(&pr, workers, final), n, func(i int) (int, error) {
			a := attempt(&pr, i)
			switch {
			case i%3 == 0 && a == 1:
				panic("transient")
			case i%3 == 1:
				return 0, errors.New("model error")
			}
			return i, nil
		})
		name := fmt.Sprintf("keep-going/workers=%d", workers)
		check(name, &pr)
		for i := range errs {
			if (errs[i] != nil) != (i%3 == 1) || (errs[i] == nil && out[i] != i) {
				t.Errorf("%s: cell %d = %d, %v", name, i, out[i], errs[i])
			}
		}
		if workers == 1 && !reflect.DeepEqual(pr.seq, order) {
			t.Errorf("%s: settled in %v, want dispatch order %v", name, pr.seq, order)
		}
	}

	// Fail-fast: the failing cell 5 is dispatched at slot 11, after
	// cells above it have run; every cell above 5 dispatched later is
	// skipped, and still settles.
	var ff probe
	once := func(int) int { return 0 }
	if _, err := Map(context.Background(), pool(&ff, 1, once), n, func(i int) (int, error) {
		attempt(&ff, i)
		if i == 5 {
			return 0, errors.New("model error")
		}
		return i, nil
	}); err == nil || err.Error() != "model error" {
		t.Fatalf("fail-fast: error %v, want cell 5's", err)
	}
	check("fail-fast", &ff)
	for i, a := range ff.attempts {
		if i > 5 && a != 0 && slot(order, i) > slot(order, 5) {
			t.Errorf("fail-fast: cell %d above the failure ran after it", i)
		}
	}

	// Cancellation mid-sweep: the fourth cell dispatched cancels the
	// sweep, so the rest are never dispatched, in both modes.
	for _, keepGoing := range []bool{false, true} {
		var cp probe
		ctx, cancel := context.WithCancel(context.Background())
		fn := func(i int) (int, error) {
			attempt(&cp, i)
			if i == order[3] {
				cancel()
			}
			return i, nil
		}
		if keepGoing {
			_, errs := MapPartial(ctx, pool(&cp, 1, once), n, fn)
			if !errors.Is(errs[order[4]], context.Canceled) {
				t.Errorf("cancelled keep-going: cell %d error %v, want context.Canceled", order[4], errs[order[4]])
			}
		} else if _, err := Map(ctx, pool(&cp, 1, once), n, fn); !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled fail-fast: error %v, want context.Canceled", err)
		}
		cancel()
		check(fmt.Sprintf("cancelled/keep-going=%v", keepGoing), &cp)
	}
}

// slot returns the dispatch slot of cell i under order.
func slot(order []int, i int) int {
	for k, c := range order {
		if c == i {
			return k
		}
	}
	return -1
}
