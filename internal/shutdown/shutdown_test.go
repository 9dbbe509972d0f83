package shutdown

import (
	"context"
	"fmt"
	"os"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

func waitDone(t *testing.T, ctx context.Context) {
	t.Helper()
	select {
	case <-ctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("context not cancelled after signal")
	}
}

func TestFirstSignalCancelsContext(t *testing.T) {
	var mu sync.Mutex
	var lines []string
	h := Install(context.Background(), WithLog(func(format string, args ...any) {
		mu.Lock()
		lines = append(lines, fmt.Sprintf(format, args...))
		mu.Unlock()
	}))
	defer h.Stop()

	if h.Triggered() {
		t.Fatal("triggered before any signal")
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	waitDone(t, h.Context())
	if !h.Triggered() {
		t.Fatal("signal arrived but Triggered() is false")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(lines) != 1 || !strings.Contains(lines[0], "draining") {
		t.Fatalf("first-signal log = %q", lines)
	}
}

func TestExitCodeMapsInterruptTo130(t *testing.T) {
	h := Install(context.Background())
	defer h.Stop()

	// Before any signal the pipeline's own status passes through.
	for _, code := range []int{0, 1, 2} {
		if got := h.ExitCode(code); got != code {
			t.Fatalf("ExitCode(%d) = %d before signal", code, got)
		}
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	waitDone(t, h.Context())
	// After an interrupt every status collapses to 130.
	for _, code := range []int{0, 1, 2} {
		if got := h.ExitCode(code); got != ExitInterrupted {
			t.Fatalf("ExitCode(%d) = %d after signal, want %d", code, got, ExitInterrupted)
		}
	}
}

func TestSecondSignalForceExits(t *testing.T) {
	exited := make(chan int, 1)
	h := Install(context.Background(), WithForceExit(func(code int) {
		exited <- code
	}))
	defer h.Stop()

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	waitDone(t, h.Context())
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-exited:
		if code != ExitInterrupted {
			t.Fatalf("force-exit code = %d, want %d", code, ExitInterrupted)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("second signal did not force-exit")
	}
}

func TestStopWithoutSignalIsClean(t *testing.T) {
	h := Install(context.Background())
	h.Stop()
	h.Stop() // idempotent
	if h.Triggered() {
		t.Fatal("Stop marked the handler as triggered")
	}
	if got := h.ExitCode(3); got != 3 {
		t.Fatalf("ExitCode(3) = %d after clean stop", got)
	}
	select {
	case <-h.Context().Done():
	default:
		t.Fatal("Stop did not cancel the context")
	}
}

func TestParentCancellationReleasesHandler(t *testing.T) {
	parent, cancel := context.WithCancel(context.Background())
	h := Install(parent)
	cancel()
	waitDone(t, h.Context())
	h.Stop() // must not hang even though no signal ever arrived
	if h.Triggered() {
		t.Fatal("parent cancellation misreported as a signal")
	}
}
