package registry

import "testing"

// TestRegistryLifetime walks one key through every lifetime rule: Do on
// an unheld key pins it, held slots leave with their last release, a
// release is idempotent, and a release after Reset cannot evict the newer
// slot that replaced its own.
func TestRegistryLifetime(t *testing.T) {
	var r Registry[string, int]
	calls := 0
	compute := func() int { calls++; return calls }

	rel1, rel2 := r.Hold("held"), r.Hold("held")
	if v, first := r.Do("held", compute); v != 1 || !first {
		t.Fatalf("first Do = %d, %v; want 1, true", v, first)
	}
	if v, first := r.Do("held", compute); v != 1 || first {
		t.Fatalf("second Do = %d, %v; want the shared 1, false", v, first)
	}
	rel1()
	rel1()
	if n := len(r.Values()); n != 1 {
		t.Fatalf("%d value(s) with one hold left, want 1", n)
	}
	rel2()
	if n := len(r.Values()); n != 0 {
		t.Fatalf("%d value(s) after the last release, want 0", n)
	}

	r.Do("pinned", compute)
	r.Hold("pinned")()
	if n := len(r.Values()); n != 1 {
		t.Fatalf("an unheld Do's slot left with a release (%d values)", n)
	}

	stale := r.Hold("k")
	r.Reset()
	r.Hold("k")
	r.Do("k", compute)
	stale()
	if n := len(r.Values()); n != 1 {
		t.Fatalf("a release from before Reset evicted the newer slot (%d values)", n)
	}
}
