// Package registry is the single-flight memo table behind the process-wide
// trace-recording cache (internal/trace) and probe-tape cache
// (internal/warm). Each key maps to a slot whose value is computed once,
// by the first caller, while concurrent callers for the same key wait for
// it.
//
// A slot lives as long as someone needs it. Hold marks a key as in use by
// one scope — an experiment sweep's cell — and the slot leaves the registry when
// the last hold on it is released. A slot first created by Do, with no
// hold on its key, is pinned: it stays until Reset, the process-lifetime
// behaviour of a direct caller. Removing a slot only forgets it: a value
// already handed out stays valid for whoever still references it, and the
// next Do for the key computes a fresh one.
package registry

import (
	"sync"
	"sync/atomic"
)

// Registry maps keys to single-flighted values. The zero value is empty
// and ready to use; a Registry must not be copied after first use.
type Registry[K comparable, V any] struct {
	mu    sync.Mutex
	slots map[K]*slot[V]
}

// slot single-flights one key's value. holds and pinned are guarded by
// the registry's mutex; val is published by once and flagged by done, so
// Values can read it without waiting on an in-progress computation.
type slot[V any] struct {
	once   sync.Once
	done   atomic.Bool
	val    V
	holds  int
	pinned bool
}

// lookupLocked returns k's slot, creating it if absent. A slot created
// here is pinned when pin is set (a direct caller with no hold on k).
// Callers hold r.mu.
func (r *Registry[K, V]) lookupLocked(k K, pin bool) *slot[V] {
	if s, ok := r.slots[k]; ok {
		return s
	}
	if r.slots == nil {
		r.slots = map[K]*slot[V]{}
	}
	s := &slot[V]{pinned: pin}
	r.slots[k] = s
	return s
}

// Do returns k's value, computing it with fn if no caller has yet; first
// reports whether this call ran fn. Concurrent callers for k wait for the
// one computation. A key nobody holds gets a pinned slot.
func (r *Registry[K, V]) Do(k K, fn func() V) (v V, first bool) {
	r.mu.Lock()
	s := r.lookupLocked(k, true)
	r.mu.Unlock()
	s.once.Do(func() {
		s.val = fn()
		s.done.Store(true)
		first = true
	})
	return s.val, first
}

// Hold keeps k's slot in the registry until the returned release is
// called (once; later calls do nothing). Holding creates an empty slot if
// k has none, so the scope's first Do computes the value into it. When
// the last hold on an unpinned slot is released, the slot leaves the
// registry. A spent release no longer references the slot, so a scope
// that keeps its releases around does not keep a released value alive.
func (r *Registry[K, V]) Hold(k K) (release func()) {
	r.mu.Lock()
	s := r.lookupLocked(k, false)
	s.holds++
	r.mu.Unlock()
	return func() {
		r.mu.Lock()
		defer r.mu.Unlock()
		if s == nil {
			return
		}
		s.holds--
		// After a Reset the key may map to a newer slot, or none.
		if s.holds == 0 && !s.pinned && r.slots[k] == s {
			delete(r.slots, k)
		}
		s = nil
	}
}

// Values returns the computed values of every slot in the registry, in
// no particular order. A slot still computing is skipped.
func (r *Registry[K, V]) Values() []V {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]V, 0, len(r.slots))
	for _, s := range r.slots {
		if s.done.Load() {
			out = append(out, s.val)
		}
	}
	return out
}

// Reset forgets every slot, pinned and held alike. Releasing a hold taken
// before the Reset is harmless.
func (r *Registry[K, V]) Reset() {
	r.mu.Lock()
	r.slots = nil
	r.mu.Unlock()
}

// Releases collects the releases of one scope's holds, so the scope can
// drop them together when it ends.
type Releases []func()

// Release calls every collected release.
func (rs Releases) Release() {
	for _, r := range rs {
		r()
	}
}
