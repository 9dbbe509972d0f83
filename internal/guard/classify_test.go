package guard_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"syscall"
	"testing"
	"time"

	"vertical3d/internal/guard"
	"vertical3d/internal/parallel"
)

type fakeTimeout struct{ hit bool }

func (f fakeTimeout) Error() string { return "fake i/o timeout" }
func (f fakeTimeout) Timeout() bool { return f.hit }

func TestClassify(t *testing.T) {
	panicErr := func() error {
		p := parallel.Pool{Workers: 1}
		err := p.ForEach(context.Background(), 1, func(int) error {
			panic("boom")
		})
		var pe *parallel.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("pool did not surface a PanicError: %v", err)
		}
		return err
	}()

	ctxTimeout, cancelT := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancelT()
	<-ctxTimeout.Done()

	cases := []struct {
		name string
		err  error
		want guard.Kind
	}{
		{"nil", nil, guard.KindError},
		{"plain", errors.New("model blew up"), guard.KindError},
		{"wrapped-plain", fmt.Errorf("fig6 a/b: %w", errors.New("x")), guard.KindError},
		{"panic", panicErr, guard.KindPanic},
		{"wrapped-panic", fmt.Errorf("fig6 a/b: %w", panicErr), guard.KindPanic},
		{"canceled", context.Canceled, guard.KindCanceled},
		{"wrapped-canceled", fmt.Errorf("cell 3 not dispatched: %w", context.Canceled), guard.KindCanceled},
		{"deadline", context.DeadlineExceeded, guard.KindTimeout},
		{"ctx-deadline-err", ctxTimeout.Err(), guard.KindTimeout},
		{"wrapped-deadline", fmt.Errorf("cell: %w", context.DeadlineExceeded), guard.KindTimeout},
		{"net-style-timeout", fakeTimeout{hit: true}, guard.KindTimeout},
		{"net-style-not-timeout", fakeTimeout{hit: false}, guard.KindError},
		{"path-enospc", &fs.PathError{Op: "write", Path: "seg.m3dj", Err: syscall.ENOSPC}, guard.KindIO},
		{"wrapped-path-enospc", fmt.Errorf("journal: append %q: %w", "k",
			&fs.PathError{Op: "write", Path: "seg.m3dj", Err: syscall.ENOSPC}), guard.KindIO},
		{"deep-wrapped-eio", fmt.Errorf("sweep: %w", fmt.Errorf("cell: %w",
			&fs.PathError{Op: "sync", Path: "x", Err: syscall.EIO})), guard.KindIO},
		{"link-error", &os.LinkError{Op: "rename", Old: "a", New: "b", Err: syscall.EXDEV}, guard.KindIO},
		{"bare-errno", syscall.ENOSPC, guard.KindIO},
		{"fs-permission", fs.ErrPermission, guard.KindIO},
		{"wrapped-permission", fmt.Errorf("journal: %w",
			&fs.PathError{Op: "open", Path: "dir", Err: fs.ErrPermission}), guard.KindIO},
		{"short-write", fmt.Errorf("trace: save: %w", io.ErrShortWrite), guard.KindIO},
		// ETIMEDOUT self-reports as a timeout through syscall.Errno's
		// Timeout() method, so it stays KindTimeout, not KindIO.
		{"errno-timeout", &fs.PathError{Op: "write", Path: "nfs", Err: syscall.ETIMEDOUT}, guard.KindTimeout},
		// Cancellation anywhere in an I/O chain is still cancellation.
		{"canceled-io-chain", &fs.PathError{Op: "read", Path: "x", Err: context.Canceled}, guard.KindCanceled},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := guard.Classify(c.err); got != c.want {
				t.Fatalf("Classify(%v) = %v, want %v", c.err, got, c.want)
			}
		})
	}
}

func TestClassifyPanicWinsOverDeadline(t *testing.T) {
	// A cell that panicked with a deadline error is still a panic: the
	// panic is the root cause worth surfacing and retry-classifying.
	p := parallel.Pool{Workers: 1}
	err := p.ForEach(context.Background(), 1, func(int) error {
		panic(context.DeadlineExceeded)
	})
	if got := guard.Classify(err); got != guard.KindPanic {
		t.Fatalf("Classify = %v, want panic", got)
	}
}

func TestKindStrings(t *testing.T) {
	want := map[guard.Kind]string{
		guard.KindError:    "error",
		guard.KindPanic:    "panic",
		guard.KindTimeout:  "timeout",
		guard.KindCanceled: "canceled",
		guard.KindIO:       "io",
	}
	for k, s := range want {
		if k.String() != s {
			t.Fatalf("%d.String() = %q, want %q", k, k.String(), s)
		}
	}
}
