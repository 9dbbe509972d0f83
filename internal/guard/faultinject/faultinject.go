// Package faultinject is a deterministic, seeded fault-injection harness
// for chaos-testing the experiment pipeline. It plugs into the pipeline's
// two seams:
//
//   - the CellHook of experiments.RunOptions / multicore.Options, invoked at
//     the start of every (benchmark × design) sweep cell, and
//   - arbitrary task bodies submitted to the parallel pool (keyed by index
//     via TaskKey).
//
// A fault plan is an explicit map from cell key to Fault, built either by
// hand (PanicAt, SlowAt) or by the seeded selector Pick, so every chaos run
// is reproducible: the same seed poisons the same cells on every schedule
// and at every worker count. The chaos tests in this package assert the
// pipeline's robustness contract — healthy cells bit-identical to a
// fault-free run, panics recovered into *parallel.PanicError with the
// lowest-index error selected — under injected panics, slow cells and
// mid-sweep cancellation.
package faultinject

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Kind is the kind of fault injected at a cell.
type Kind int

const (
	// None leaves the cell healthy.
	None Kind = iota
	// Panic panics with an InjectedPanic when the cell starts.
	Panic
	// Slow sleeps for Fault.Delay before letting the cell run.
	Slow
)

// Fault describes the fault injected at one cell.
type Fault struct {
	Kind  Kind
	Delay time.Duration // Slow only
}

// InjectedPanic is the value passed to panic() by a Panic fault, so tests
// can distinguish injected panics from genuine bugs when they surface as
// parallel.PanicError.Value.
type InjectedPanic struct {
	// Key is the poisoned cell's key.
	Key string
}

// String implements fmt.Stringer for readable PanicError messages.
func (p InjectedPanic) String() string {
	return fmt.Sprintf("faultinject: injected panic at cell %s", p.Key)
}

// Key is the cell key used by sweep hooks: "benchmark/design".
func Key(bench, design string) string { return bench + "/" + design }

// TaskKey is the cell key used for index-addressed pool tasks.
func TaskKey(i int) string { return strconv.Itoa(i) }

// Injector holds a fault plan and counts how often each cell fired.
// The plan is fixed at setup time; Visit is safe for concurrent use.
type Injector struct {
	mu     sync.Mutex
	faults map[string]Fault
	fired  map[string]int
}

// New returns an empty injector (all cells healthy).
func New() *Injector {
	return &Injector{faults: map[string]Fault{}, fired: map[string]int{}}
}

// Set installs a fault at a cell key.
func (in *Injector) Set(key string, f Fault) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.faults[key] = f
}

// PanicAt marks the given cells to panic.
func (in *Injector) PanicAt(keys ...string) {
	for _, k := range keys {
		in.Set(k, Fault{Kind: Panic})
	}
}

// SlowAt marks the given cells to sleep for d before running.
func (in *Injector) SlowAt(d time.Duration, keys ...string) {
	for _, k := range keys {
		in.Set(k, Fault{Kind: Slow, Delay: d})
	}
}

// Visit records that the cell fired and applies its fault, if any. A Panic
// fault panics with InjectedPanic{key}; a Slow fault sleeps.
func (in *Injector) Visit(key string) {
	in.mu.Lock()
	in.fired[key]++
	f := in.faults[key]
	in.mu.Unlock()
	switch f.Kind {
	case Panic:
		panic(InjectedPanic{Key: key})
	case Slow:
		time.Sleep(f.Delay)
	}
}

// Hook adapts the injector to the CellHook seam of experiments.RunOptions
// and multicore.Options.
func (in *Injector) Hook() func(bench, design string) {
	return func(bench, design string) { in.Visit(Key(bench, design)) }
}

// Fired returns how many times the cell fired.
func (in *Injector) Fired(key string) int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.fired[key]
}

// Pick deterministically selects k distinct victims from keys using the
// seed: the same (seed, keys, k) always yields the same victims, in stable
// (sorted) order, regardless of the caller's schedule. k is clamped to
// len(keys).
func Pick(seed int64, keys []string, k int) []string {
	if k > len(keys) {
		k = len(keys)
	}
	if k <= 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(len(keys))
	out := make([]string, 0, k)
	for _, i := range perm[:k] {
		out = append(out, keys[i])
	}
	sort.Strings(out)
	return out
}
