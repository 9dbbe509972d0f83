package parallel

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

func TestRetryRecoversTransientPanics(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var tries [8]atomic.Int64
		p := Pool{Workers: workers, Retry: Retry{Attempts: 3}}
		out, err := Map(context.Background(), p, 8, func(i int) (int, error) {
			// Cells 2 and 5 panic on their first two attempts, then heal.
			if n := tries[i].Add(1); (i == 2 || i == 5) && n < 3 {
				panic(fmt.Sprintf("transient fault at cell %d attempt %d", i, n))
			}
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: sweep failed despite retries: %v", workers, err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d", workers, i, v)
			}
		}
		for i := range tries {
			want := int64(1)
			if i == 2 || i == 5 {
				want = 3
			}
			if got := tries[i].Load(); got != want {
				t.Fatalf("workers=%d: cell %d ran %d times, want %d", workers, i, got, want)
			}
		}
	}
}

func TestRetryExhaustionReportsCellError(t *testing.T) {
	var tries atomic.Int64
	p := Pool{Workers: 2, Retry: Retry{Attempts: 3}}
	err := p.ForEach(context.Background(), 4, func(i int) error {
		if i == 1 {
			tries.Add(1)
			panic("permanent fault")
		}
		return nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Index != 1 {
		t.Fatalf("want PanicError at cell 1, got %v", err)
	}
	if got := tries.Load(); got != 3 {
		t.Fatalf("cell ran %d times, want the full 3-attempt budget", got)
	}
}

func TestRetryDoesNotRetryDeterministicErrors(t *testing.T) {
	boom := errors.New("model violation")
	var tries atomic.Int64
	p := Pool{Workers: 1, Retry: Retry{Attempts: 5}}
	err := p.ForEach(context.Background(), 1, func(int) error {
		tries.Add(1)
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if tries.Load() != 1 {
		t.Fatalf("deterministic error retried %d times", tries.Load())
	}
}

func TestRetryDoesNotRetryCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var tries atomic.Int64
	p := Pool{Workers: 1, Retry: Retry{Attempts: 5}}
	err := p.ForEach(ctx, 1, func(int) error {
		tries.Add(1)
		cancel()
		return ctx.Err()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if tries.Load() != 1 {
		t.Fatalf("cancelled cell retried %d times", tries.Load())
	}
}

func TestRetryDoesNotRetryIOFailures(t *testing.T) {
	// A full or dying disk is not healed by re-running the cell — the
	// degradation ladder downgrades instead. DefaultRetryable must treat
	// every KindIO chain as permanent.
	ioErrs := []error{
		&fs.PathError{Op: "write", Path: "seg.m3dj", Err: syscall.ENOSPC},
		fmt.Errorf("journal: sync %q: %w", "cell",
			&fs.PathError{Op: "sync", Path: "seg.m3dj", Err: syscall.EIO}),
		&os.LinkError{Op: "rename", Old: "a", New: "b", Err: syscall.EXDEV},
		fs.ErrPermission,
	}
	for _, ioErr := range ioErrs {
		if DefaultRetryable(ioErr) {
			t.Fatalf("DefaultRetryable(%v) = true, want false", ioErr)
		}
		var tries atomic.Int64
		p := Pool{Workers: 1, Retry: Retry{Attempts: 5}}
		err := p.ForEach(context.Background(), 1, func(int) error {
			tries.Add(1)
			return ioErr
		})
		if !errors.Is(err, ioErr) {
			t.Fatalf("err = %v", err)
		}
		if tries.Load() != 1 {
			t.Fatalf("I/O failure %v retried %d times", ioErr, tries.Load())
		}
	}
}

func TestBackoffIsDeterministicBoundedAndJittered(t *testing.T) {
	if a, b := backoff(3, 2), backoff(3, 2); a != b {
		t.Fatalf("backoff not deterministic: %v vs %v", a, b)
	}
	// Exponential growth from 10ms up to the 1s cap, with jitter within
	// ±50%.
	for attempt := 1; attempt <= 10; attempt++ {
		d := backoff(0, attempt)
		base := min(10*time.Millisecond<<(attempt-1), time.Second)
		if d < base/2 || d > base*3/2 {
			t.Fatalf("attempt %d: backoff %v outside jitter band of %v", attempt, d, base)
		}
	}
	// Very large attempt numbers must not overflow below zero.
	if d := backoff(0, 500); d < time.Second/2 || d > time.Second*3/2 {
		t.Fatalf("attempt 500 backoff = %v", d)
	}
	// Different cells decorrelate.
	same := true
	for cell := 1; cell < 8; cell++ {
		if backoff(cell, 1) != backoff(0, 1) {
			same = false
		}
	}
	if same {
		t.Fatal("jitter identical across all cells")
	}
}

func TestCellAbortErrorTagsSkippedCells(t *testing.T) {
	// SweepTimeout path: a slow first cell sleeps past the sweep budget,
	// so the remaining cells are never dispatched and must carry the index
	// and the sweep deadline.
	p := Pool{Workers: 1, SweepTimeout: 20 * time.Millisecond}
	_, errs := MapPartial(context.Background(), p, 3, func(i int) (int, error) {
		if i == 0 {
			time.Sleep(40 * time.Millisecond)
		}
		return i, nil
	})
	var found bool
	for i, err := range errs {
		var ce *CellAbortError
		if !errors.As(err, &ce) {
			continue
		}
		found = true
		if ce.Index != i {
			t.Fatalf("abort error at slot %d carries index %d", i, ce.Index)
		}
		if ce.Deadline.IsZero() {
			t.Fatalf("sweep-deadline abort without deadline: %v", err)
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("abort error does not unwrap to DeadlineExceeded: %v", err)
		}
		if !strings.Contains(err.Error(), fmt.Sprintf("cell %d not dispatched", i)) ||
			!strings.Contains(err.Error(), "sweep deadline") {
			t.Fatalf("abort message: %v", err)
		}
	}
	if !found {
		t.Fatal("no cell was tagged as aborted")
	}

	// External-cancel path: no deadline, still indexed, unwraps Canceled.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, errs = MapPartial(ctx, Pool{Workers: 1}, 2, func(i int) (int, error) {
		return i, nil
	})
	var ce *CellAbortError
	if !errors.As(errs[0], &ce) || ce.Index != 0 || !ce.Deadline.IsZero() {
		t.Fatalf("external-cancel abort = %v", errs[0])
	}
	if !errors.Is(errs[0], context.Canceled) {
		t.Fatalf("abort does not unwrap to Canceled: %v", errs[0])
	}
}
