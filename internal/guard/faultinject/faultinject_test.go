// Chaos tests: drive the parallel pool and the Fig6/Fig9 sweeps through
// injected panics, slow cells and mid-sweep cancellation, and assert the
// pipeline's robustness contract — healthy cells bit-identical to a
// fault-free run at any worker count, panics recovered as structured
// *parallel.PanicError values, and deterministic lowest-index error
// selection.
package faultinject_test

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"vertical3d/internal/config"
	"vertical3d/internal/experiments"
	"vertical3d/internal/guard/faultinject"
	"vertical3d/internal/multicore"
	"vertical3d/internal/parallel"
	"vertical3d/internal/tech"
	"vertical3d/internal/trace"
	"vertical3d/internal/workload"
)

var workerCounts = []int{1, 4, 16}

func TestPickDeterministic(t *testing.T) {
	keys := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	v1 := faultinject.Pick(7, keys, 3)
	v2 := faultinject.Pick(7, keys, 3)
	if !reflect.DeepEqual(v1, v2) {
		t.Errorf("same seed must pick the same victims: %v vs %v", v1, v2)
	}
	if len(v1) != 3 {
		t.Fatalf("want 3 victims, got %v", v1)
	}
	seen := map[string]bool{}
	for _, k := range keys {
		seen[k] = true
	}
	for _, v := range v1 {
		if !seen[v] {
			t.Errorf("victim %q not in key set", v)
		}
	}
	if got := faultinject.Pick(7, keys, 100); len(got) != len(keys) {
		t.Errorf("k is clamped to len(keys): got %d victims", len(got))
	}
	if got := faultinject.Pick(7, keys, 0); got != nil {
		t.Errorf("k=0 must pick nothing, got %v", got)
	}
}

// TestPoolPanicsRecovered injects panics into pool tasks and checks that,
// at every worker count, healthy cells are untouched and poisoned cells
// carry a *parallel.PanicError with the right index, value and stack.
func TestPoolPanicsRecovered(t *testing.T) {
	const n = 32
	poisoned := []int{5, 17}
	for _, w := range workerCounts {
		in := faultinject.New()
		for _, i := range poisoned {
			in.PanicAt(faultinject.TaskKey(i))
		}
		pool := parallel.Pool{Workers: w}
		out, errs := parallel.MapPartial(context.Background(), pool, n, func(_ context.Context, i int) (int, error) {
			in.Visit(faultinject.TaskKey(i))
			return i * i, nil
		})
		if got := parallel.CountErrors(errs); got != len(poisoned) {
			t.Fatalf("workers=%d: %d failed cells, want %d", w, got, len(poisoned))
		}
		for _, i := range poisoned {
			var pe *parallel.PanicError
			if !errors.As(errs[i], &pe) {
				t.Fatalf("workers=%d: errs[%d] = %v, want *parallel.PanicError", w, i, errs[i])
			}
			if pe.Index != i {
				t.Errorf("workers=%d: PanicError.Index = %d, want %d", w, pe.Index, i)
			}
			ip, ok := pe.Value.(faultinject.InjectedPanic)
			if !ok || ip.Key != faultinject.TaskKey(i) {
				t.Errorf("workers=%d: PanicError.Value = %#v, want InjectedPanic{%q}", w, pe.Value, faultinject.TaskKey(i))
			}
			if !strings.Contains(string(pe.Stack), "faultinject") {
				t.Errorf("workers=%d: stack does not reach the injection site:\n%s", w, pe.Stack)
			}
			if out[i] != 0 {
				t.Errorf("workers=%d: poisoned cell %d leaked a value %d", w, i, out[i])
			}
		}
		for i := 0; i < n; i++ {
			if errs[i] != nil {
				continue
			}
			if out[i] != i*i {
				t.Errorf("workers=%d: healthy cell %d = %d, want %d", w, i, out[i], i*i)
			}
		}
		if in.Fired(faultinject.TaskKey(5)) != 1 {
			t.Errorf("workers=%d: poisoned cell fired %d times", w, in.Fired(faultinject.TaskKey(5)))
		}
	}
}

// TestPoolFailFastLowestIndex checks that with several poisoned cells, the
// fail-fast Map reports the lowest-indexed panic on every schedule: index
// order, and a reversed dispatch order that starts the higher poisoned cell
// first.
func TestPoolFailFastLowestIndex(t *testing.T) {
	const n = 32
	reversed := make([]int, n)
	for k := range reversed {
		reversed[k] = n - 1 - k
	}
	for _, order := range [][]int{nil, reversed} {
		for _, w := range workerCounts {
			in := faultinject.New()
			in.PanicAt(faultinject.TaskKey(5), faultinject.TaskKey(17))
			pool := parallel.Pool{Workers: w, Order: order}
			_, err := parallel.Map(context.Background(), pool, n, func(_ context.Context, i int) (int, error) {
				in.Visit(faultinject.TaskKey(i))
				return i, nil
			})
			var pe *parallel.PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("order=%v workers=%d: err = %v, want *parallel.PanicError", order, w, err)
			}
			if pe.Index != 5 {
				t.Errorf("order=%v workers=%d: reported index %d, want lowest index 5", order, w, pe.Index)
			}
		}
	}
}

// TestPoolSlowTaskDeadline checks that a cooperative slow cell trips its
// TaskTimeout without disturbing healthy cells.
func TestPoolSlowTaskDeadline(t *testing.T) {
	const n = 8
	const slow = 3
	pool := parallel.Pool{Workers: 4, TaskTimeout: 10 * time.Millisecond}
	out, errs := parallel.MapPartial(context.Background(), pool, n, func(ctx context.Context, i int) (int, error) {
		if i == slow {
			select {
			case <-ctx.Done():
				return 0, ctx.Err()
			case <-time.After(10 * time.Second):
				t.Error("slow task outlived its deadline")
			}
		}
		return i * i, nil
	})
	if !errors.Is(errs[slow], context.DeadlineExceeded) {
		t.Fatalf("errs[%d] = %v, want deadline exceeded", slow, errs[slow])
	}
	if parallel.CountErrors(errs) != 1 {
		t.Errorf("only the slow cell may fail, got %d errors", parallel.CountErrors(errs))
	}
	for i := 0; i < n; i++ {
		if i != slow && out[i] != i*i {
			t.Errorf("healthy cell %d = %d, want %d", i, out[i], i*i)
		}
	}
}

// TestPoolMidSweepCancellation cancels the sweep from inside a cell. With a
// single worker the dispatch order is sequential, so exactly the cells after
// the cancelling one must be marked with the context error.
func TestPoolMidSweepCancellation(t *testing.T) {
	const n = 10
	const cancelAt = 2
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pool := parallel.Pool{Workers: 1}
	out, errs := parallel.MapPartial(ctx, pool, n, func(_ context.Context, i int) (int, error) {
		if i == cancelAt {
			cancel()
		}
		return i * i, nil
	})
	for i := 0; i <= cancelAt; i++ {
		if errs[i] != nil || out[i] != i*i {
			t.Errorf("cell %d before the cancel: out=%d errs=%v", i, out[i], errs[i])
		}
	}
	for i := cancelAt + 1; i < n; i++ {
		if !errors.Is(errs[i], context.Canceled) {
			t.Errorf("cell %d after the cancel: errs=%v, want context.Canceled", i, errs[i])
		}
	}
}

// --- sweep-level chaos -----------------------------------------------------

func fig6Fixture(t *testing.T) (*config.Suite, []trace.Profile, experiments.RunOptions) {
	t.Helper()
	suite, err := config.Derive(tech.N22())
	if err != nil {
		t.Fatal(err)
	}
	var profiles []trace.Profile
	for _, name := range []string{"Gamess", "Mcf"} {
		p, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		profiles = append(profiles, p)
	}
	opt := experiments.RunOptions{Warmup: 2_000, Measure: 8_000, Seed: 42}
	return suite, profiles, opt
}

// victimDesign returns a non-Base single-core design to poison.
func victimDesign(t *testing.T) config.Design {
	t.Helper()
	for _, d := range config.SingleCoreDesigns() {
		if d != config.Base {
			return d
		}
	}
	t.Fatal("no non-Base design")
	return config.Base
}

// TestFig6ChaosHealthyCellsBitIdentical poisons one sweep cell and checks
// that, at every worker count, the keep-going sweep completes with every
// healthy cell bit-identical to a fault-free reference run and the poisoned
// cell reported as a structured PanicError with a stack.
func TestFig6ChaosHealthyCellsBitIdentical(t *testing.T) {
	suite, profiles, opt := fig6Fixture(t)
	ref, err := experiments.Fig6With(suite, profiles, opt)
	if err != nil {
		t.Fatal(err)
	}
	victimBench, victim := profiles[1].Name, victimDesign(t)

	for _, w := range workerCounts {
		in := faultinject.New()
		in.PanicAt(faultinject.Key(victimBench, victim.String()))
		copt := opt
		copt.Workers = w
		copt.KeepGoing = true
		copt.CellHook = in.Hook()
		f, err := experiments.Fig6With(suite, profiles, copt)
		if err != nil {
			t.Fatalf("workers=%d: keep-going sweep must complete: %v", w, err)
		}
		if f.FailedCells() != 1 {
			t.Fatalf("workers=%d: %d failed cells, want 1", w, f.FailedCells())
		}
		var pe *parallel.PanicError
		if !errors.As(f.Errors[victimBench][victim], &pe) {
			t.Fatalf("workers=%d: poisoned cell error = %v, want *parallel.PanicError", w, f.Errors[victimBench][victim])
		}
		if len(pe.Stack) == 0 {
			t.Errorf("workers=%d: PanicError carries no stack", w)
		}
		if !errors.As(f.Err(), &pe) {
			t.Errorf("workers=%d: Err() = %v, want the poisoned cell's PanicError", w, f.Err())
		}
		for _, b := range ref.Benchmarks {
			for _, d := range config.SingleCoreDesigns() {
				if b == victimBench && d == victim {
					if _, ok := f.Runs[b][d]; ok {
						t.Errorf("workers=%d: poisoned cell %s/%s must not carry a result", w, b, d)
					}
					continue
				}
				if !reflect.DeepEqual(f.Runs[b][d], ref.Runs[b][d]) {
					t.Errorf("workers=%d: healthy cell %s/%s differs from the fault-free run", w, b, d)
				}
				if f.Speedup[b][d] != ref.Speedup[b][d] {
					t.Errorf("workers=%d: speedup %s/%s = %v, want %v", w, b, d, f.Speedup[b][d], ref.Speedup[b][d])
				}
			}
		}
		// The poisoned cell must have no derived ratios.
		if _, ok := f.Speedup[victimBench][victim]; ok {
			t.Errorf("workers=%d: poisoned cell leaked a speedup entry", w)
		}
	}
}

// TestFig6ChaosPoisonedBase poisons a benchmark's Base cell: the sweep still
// completes, that benchmark loses its derived ratios (no reference), and the
// other benchmark is untouched.
func TestFig6ChaosPoisonedBase(t *testing.T) {
	suite, profiles, opt := fig6Fixture(t)
	ref, err := experiments.Fig6With(suite, profiles, opt)
	if err != nil {
		t.Fatal(err)
	}
	victimBench, healthyBench := profiles[0].Name, profiles[1].Name

	in := faultinject.New()
	in.PanicAt(faultinject.Key(victimBench, config.Base.String()))
	copt := opt
	copt.Workers = 4
	copt.KeepGoing = true
	copt.CellHook = in.Hook()
	f, err := experiments.Fig6With(suite, profiles, copt)
	if err != nil {
		t.Fatal(err)
	}
	if f.FailedCells() != 1 {
		t.Fatalf("%d failed cells, want 1", f.FailedCells())
	}
	if len(f.Speedup[victimBench]) != 0 {
		t.Errorf("benchmark with a failed Base cell must have no speedups, got %v", f.Speedup[victimBench])
	}
	for _, d := range config.SingleCoreDesigns() {
		if d != config.Base && !reflect.DeepEqual(f.Runs[victimBench][d], ref.Runs[victimBench][d]) {
			t.Errorf("non-Base cell %s/%s must still run and match", victimBench, d)
		}
		if f.Speedup[healthyBench][d] != ref.Speedup[healthyBench][d] {
			t.Errorf("healthy benchmark's speedup for %s changed", d)
		}
	}
}

// TestFig6FailFastLowestCell checks that without KeepGoing, a sweep with two
// poisoned cells deterministically reports the lower-indexed cell in
// (benchmark-major, design-minor) order at every worker count.
func TestFig6FailFastLowestCell(t *testing.T) {
	suite, profiles, opt := fig6Fixture(t)
	designs := config.SingleCoreDesigns()
	nd := len(designs)
	// Poison (bench 0, design nd-1) and (bench 1, design 1): the first has
	// the lower linear index.
	lo := faultinject.Key(profiles[0].Name, designs[nd-1].String())
	hi := faultinject.Key(profiles[1].Name, designs[1].String())
	for _, w := range workerCounts {
		in := faultinject.New()
		in.PanicAt(lo, hi)
		copt := opt
		copt.Workers = w
		copt.CellHook = in.Hook()
		_, err := experiments.Fig6With(suite, profiles, copt)
		var pe *parallel.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %v, want *parallel.PanicError", w, err)
		}
		if want := 0*nd + (nd - 1); pe.Index != want {
			t.Errorf("workers=%d: failed cell index %d, want lowest %d", w, pe.Index, want)
		}
	}
}

// TestFig9ChaosHealthyCellsBitIdentical is the multicore counterpart: one
// poisoned (benchmark × multicore-design) cell, keep-going, healthy cells
// bit-identical to the fault-free reference at every worker count.
func TestFig9ChaosHealthyCellsBitIdentical(t *testing.T) {
	suite, err := config.Derive(tech.N22())
	if err != nil {
		t.Fatal(err)
	}
	profiles := workload.Parallel()[:1]
	opt := multicore.Options{TotalInstrs: 30_000, WarmupPerCore: 2_000, Phases: 2, Seed: 42}
	ref, err := experiments.Fig9With(suite, profiles, opt)
	if err != nil {
		t.Fatal(err)
	}
	var victim config.MulticoreDesign
	for _, d := range config.MulticoreDesigns() {
		if d != config.MCBase {
			victim = d
			break
		}
	}
	bench := profiles[0].Name

	for _, w := range []int{1, 4} {
		in := faultinject.New()
		in.PanicAt(faultinject.Key(bench, victim.String()))
		copt := opt
		copt.Workers = w
		copt.KeepGoing = true
		copt.CellHook = in.Hook()
		f, err := experiments.Fig9With(suite, profiles, copt)
		if err != nil {
			t.Fatalf("workers=%d: keep-going sweep must complete: %v", w, err)
		}
		var pe *parallel.PanicError
		if !errors.As(f.Errors[bench][victim], &pe) {
			t.Fatalf("workers=%d: poisoned cell error = %v, want *parallel.PanicError", w, f.Errors[bench][victim])
		}
		for _, d := range config.MulticoreDesigns() {
			if d == victim {
				continue
			}
			if !reflect.DeepEqual(f.Runs[bench][d], ref.Runs[bench][d]) {
				t.Errorf("workers=%d: healthy cell %s differs from the fault-free run", w, d)
			}
			if f.Speedup[bench][d] != ref.Speedup[bench][d] {
				t.Errorf("workers=%d: speedup %s = %v, want %v", w, d, f.Speedup[bench][d], ref.Speedup[bench][d])
			}
		}
	}
}

// TestFig6ChaosSeededPlan drives a seeded fault plan end to end: Pick
// chooses the victims, and the sweep must report exactly those cells.
func TestFig6ChaosSeededPlan(t *testing.T) {
	suite, profiles, opt := fig6Fixture(t)
	var keys []string
	for _, p := range profiles {
		for _, d := range config.SingleCoreDesigns() {
			if d == config.Base {
				continue // keep the normalisation reference healthy
			}
			keys = append(keys, faultinject.Key(p.Name, d.String()))
		}
	}
	victims := faultinject.Pick(99, keys, 3)
	in := faultinject.New()
	in.PanicAt(victims...)
	copt := opt
	copt.Workers = 4
	copt.KeepGoing = true
	copt.CellHook = in.Hook()
	f, err := experiments.Fig6With(suite, profiles, copt)
	if err != nil {
		t.Fatal(err)
	}
	if f.FailedCells() != len(victims) {
		t.Fatalf("%d failed cells, want %d", f.FailedCells(), len(victims))
	}
	got := map[string]bool{}
	for b, m := range f.Errors {
		for d, err := range m {
			var pe *parallel.PanicError
			if !errors.As(err, &pe) {
				t.Errorf("cell %s/%s: %v, want *parallel.PanicError", b, d, err)
			}
			got[faultinject.Key(b, d.String())] = true
		}
	}
	for _, v := range victims {
		if !got[v] {
			t.Errorf("planned victim %s not reported", v)
		}
	}
}
