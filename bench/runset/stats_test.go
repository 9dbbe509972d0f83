package runset

import "testing"

// The quartiles must match Python's statistics.quantiles(xs, n=4), which
// the benchmark's spread checks are specified in.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 9.25},
		{[]float64{4, 8}, 3, 9},
	} {
		q1, q3 := Quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("Quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if m := Median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("Median = %v", m)
	}
	if p := Percentile([]float64{5, 1, 4, 2, 3}, 90); p != 5 {
		t.Errorf("Percentile = %v", p)
	}
}
