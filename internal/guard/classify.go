package guard

import (
	"context"
	"errors"
	"io"
	"io/fs"
	"os"
	"syscall"
)

// Kind is the failure class of a failed sweep cell, used by the rendered
// ERR output and the exit-code selection of the command-line binaries,
// and by the worker pool's default retry classification.
type Kind int

const (
	// KindError is a deterministic model or pipeline error — re-running
	// the cell reproduces it.
	KindError Kind = iota
	// KindPanic is a recovered cell panic (parallel.PanicError).
	KindPanic
	// KindTimeout is an expired sweep or request deadline.
	KindTimeout
	// KindCanceled is an externally cancelled cell — typically the
	// SIGINT/SIGTERM shutdown layer stopping dispatch mid-sweep.
	KindCanceled
	// KindIO is a storage-layer failure — ENOSPC, EIO, a permission
	// denial, a short write — anywhere in the error chain. The disk's
	// state, not the cell's inputs, decides whether a re-run reproduces
	// it, so the default retry policy treats it as non-retryable and the
	// degradation ladder handles it by downgrading instead.
	KindIO
)

// String returns the label rendered next to ERR cells.
func (k Kind) String() string {
	switch k {
	case KindPanic:
		return "panic"
	case KindTimeout:
		return "timeout"
	case KindCanceled:
		return "canceled"
	case KindIO:
		return "io"
	default:
		return "error"
	}
}

// panicker is the shape of a recovered-panic error. guard depends only on
// the standard library, so the pool's *parallel.PanicError is recognised
// structurally through its PanicValue method rather than by type.
type panicker interface{ PanicValue() any }

// timeouter matches net.Error-style errors that self-report as timeouts.
type timeouter interface{ Timeout() bool }

// Classify maps an error chain onto its failure kind: recovered panics
// first (a panic inside a timed-out cell is still a panic), then
// cancellation, then deadlines, then storage faults. Unrecognised errors
// — including nil — are KindError, the deterministic-failure default.
//
// The timeout check deliberately precedes the I/O check: syscall.Errno
// implements Timeout(), so ETIMEDOUT classifies as a timeout while every
// other errno in a filesystem error chain classifies as I/O.
func Classify(err error) Kind {
	var p panicker
	if errors.As(err, &p) {
		return KindPanic
	}
	if errors.Is(err, context.Canceled) {
		return KindCanceled
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return KindTimeout
	}
	var t timeouter
	if errors.As(err, &t) && t.Timeout() {
		return KindTimeout
	}
	if isIO(err) {
		return KindIO
	}
	return KindError
}

// isIO recognises storage-layer failures structurally, the way the os
// package shapes them: path/link errors, raw errnos, the fs sentinel
// errors, and short writes.
func isIO(err error) bool {
	var (
		pathErr *fs.PathError
		linkErr *os.LinkError
		errno   syscall.Errno
	)
	switch {
	case errors.As(err, &pathErr),
		errors.As(err, &linkErr),
		errors.As(err, &errno),
		errors.Is(err, fs.ErrPermission),
		errors.Is(err, io.ErrShortWrite):
		return true
	}
	return false
}
