package main

import "testing"

func TestJudge(t *testing.T) {
	bound := 0.1
	lower := metricSpec{Name: "sweep_s", Better: "lower", Bound: &bound}
	higher := metricSpec{Name: "cells_per_s", Better: "higher", Bound: &bound}
	layer := metricSpec{Name: "uarch.detailed_ms", Better: "lower"}
	steady := []float64{10, 10.1, 9.9, 10, 10.2, 9.8, 10, 10.1, 9.9, 10}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, c := range []struct {
		name           string
		spec           metricSpec
		parent, change []float64
		want           string
	}{
		{"same", lower, steady, steady, "unchanged"},
		{"faster", lower, steady, scale(steady, 0.8), "improved"},
		{"slower beyond bound", lower, steady, scale(steady, 1.2), "regressed"},
		{"slower within bound", lower, steady, scale(steady, 1.05), "unchanged"},
		{"throughput up", higher, steady, scale(steady, 1.3), "improved"},
		{"throughput down", higher, steady, scale(steady, 0.8), "regressed"},
		{"noisy", lower, []float64{5, 10, 15, 7, 12, 9, 14, 6, 11, 13}, []float64{6, 11, 14, 8, 10, 9, 13, 7, 12, 15}, "unresolved"},
		{"layer faster", layer, steady, scale(steady, 0.5), "improved"},
		{"layer slower", layer, steady, scale(steady, 2), "regressed"},
	} {
		if got := judge(c.spec, c.parent, c.change).verdict; got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}
