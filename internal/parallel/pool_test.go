package parallel

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapCollectsByIndex(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 64} {
		got, err := Map(context.Background(), Pool{Workers: workers}, 100,
			func(_ context.Context, i int) (int, error) { return i * i, nil })
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
			func(_ context.Context, i int) (float64, error) {
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
				func(_ context.Context, i int) (int, error) {
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
		func(_ context.Context, i int) (int, error) {
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
		func(_ context.Context, i int) error {
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

// TestFailFastCancelsOnlyAbove runs cells 0, 1 and 2 together and fails
// cell 1: cell 2's context is cancelled, cell 0's is not.
func TestFailFastCancelsOnlyAbove(t *testing.T) {
	boom := errors.New("boom")
	inFlight := make(chan struct{}, 2) // one send each from cells 0 and 2
	cancelled := make(chan struct{})
	err := Pool{Workers: 3}.ForEach(context.Background(), 3,
		func(ctx context.Context, i int) error {
			switch i {
			case 1:
				<-inFlight
				<-inFlight
				return boom
			case 2:
				inFlight <- struct{}{}
				select {
				case <-ctx.Done():
					close(cancelled)
					return ctx.Err()
				case <-time.After(10 * time.Second):
					t.Error("cell 2 above the failure was not cancelled")
					return nil
				}
			default:
				inFlight <- struct{}{}
				select {
				case <-cancelled:
				case <-time.After(10 * time.Second):
					t.Error("cell 2 was never cancelled")
				}
				if ctx.Err() != nil {
					t.Errorf("cell 0 below the failure was cancelled: %v", ctx.Err())
				}
				return nil
			}
		})
	if !errors.Is(err, boom) {
		t.Fatalf("want boom from cell 1, got %v", err)
	}
}

// TestOrderMustBePermutation rejects orders that miss, repeat or exceed a
// cell index, before running any cell.
func TestOrderMustBePermutation(t *testing.T) {
	for _, order := range [][]int{{}, {0, 1}, {0, 1, 1}, {0, 1, 3}, {-1, 0, 1}, {0, 1, 2, 3}} {
		var ran atomic.Int64
		fn := func(_ context.Context, i int) (int, error) {
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
		func(_ context.Context, i int) error {
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
	err := Pool{Workers: 4}.ForEach(ctx, 100, func(ctx context.Context, i int) error {
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestEmptyInput(t *testing.T) {
	out, err := Map(context.Background(), Default(), 0,
		func(_ context.Context, i int) (int, error) { return 0, nil })
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
	if got := (Pool{}).size(100); got != 3 {
		t.Fatalf("zero pool size should follow default, got %d", got)
	}
	if got := (Pool{Workers: 8}).size(2); got != 2 {
		t.Fatalf("size must clamp to task count, got %d", got)
	}
}

func TestPanicRecoveredIntoPanicError(t *testing.T) {
	for _, workers := range []int{1, 4, 16} {
		_, err := Map(context.Background(), Pool{Workers: workers}, 32,
			func(_ context.Context, i int) (int, error) {
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
			func(_ context.Context, i int) error {
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
			func(_ context.Context, i int) (int, error) {
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
		func(_ context.Context, i int) (int, error) { return i + 1, nil })
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

func TestTaskTimeout(t *testing.T) {
	p := Pool{Workers: 2, TaskTimeout: 5 * time.Millisecond}
	err := p.ForEach(context.Background(), 4, func(ctx context.Context, i int) error {
		if i == 2 { // cooperative slow task observes its deadline
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(5 * time.Second):
				return nil
			}
		}
		return nil
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
}

func TestSweepTimeout(t *testing.T) {
	p := Pool{Workers: 1, SweepTimeout: 10 * time.Millisecond}
	var ran atomic.Int64
	err := p.ForEach(context.Background(), 1000, func(ctx context.Context, i int) error {
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
		func(_ context.Context, i int) error {
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
	out, errs := MapPartial(ctx, Pool{Workers: 1}, 500, func(ctx context.Context, i int) (int, error) {
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
