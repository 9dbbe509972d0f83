package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// The smoke test builds the benchmark and m3dd once, then drives every
// workload at its tiny size through the real command line.
var benchBin, m3ddBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "bench-smoke-")
	if err != nil {
		panic(err)
	}
	benchBin, m3ddBin = filepath.Join(dir, "bench"), filepath.Join(dir, "m3dd")
	for _, b := range [][]string{{benchBin, "."}, {m3ddBin, "vertical3d/cmd/m3dd"}} {
		cmd := exec.Command("go", "build", "-o", b[0], b[1])
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			os.RemoveAll(dir)
			panic(err)
		}
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// benchmarkMetric is one metric of BENCHMARK.json.
type benchmarkMetric struct {
	Name, Unit, Better string
	Bound              *float64
}

func loadBenchmark(t *testing.T) (e2e, layer []benchmarkMetric, workloads []string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Workloads []struct{ Name string }
		EndToEnd  []benchmarkMetric `json:"end_to_end"`
		PerLayer  []benchmarkMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	for _, w := range bf.Workloads {
		workloads = append(workloads, w.Name)
	}
	return bf.EndToEnd, bf.PerLayer, workloads
}

// finalLine is the command's last line of output.
type finalLine struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]struct {
		Value float64
		Unit  string
	}
}

// runBench runs the command in a scratch root and returns its result line
// and exit error.
func runBench(t *testing.T, args ...string) (finalLine, error) {
	t.Helper()
	root := t.TempDir()
	cmd := exec.Command(benchBin, append([]string{"-root", root, "-m3dd", m3ddBin, "-size", "tiny", "-seconds", "1"}, args...)...)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var fl finalLine
	if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &fl); jerr != nil {
		t.Fatalf("bench %v: no result line (%v): %s%s", args, jerr, out, stderr.String())
	}
	if err != nil {
		t.Logf("bench %v stderr:\n%s", args, stderr.String())
	}
	return fl, err
}

// TestEveryMetricEmitted runs each workload untraced and traced and checks
// that every metric BENCHMARK.json names comes out with its unit, that the
// outputs were judged correct, and that the traced run's spans are well
// formed.
func TestEveryMetricEmitted(t *testing.T) {
	e2e, layer, workloadNames := loadBenchmark(t)
	if strings.Join(workloadNames, ",") != strings.Join(workloads, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, command has %v", workloadNames, workloads)
	}
	for _, list := range []struct {
		want []benchmarkMetric
		have []metricDef
	}{{e2e, endToEnd}, {layer, perLayer}} {
		if len(list.want) != len(list.have) {
			t.Errorf("BENCHMARK.json has %d metrics where the command has %d", len(list.want), len(list.have))
		}
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			want, mode := e2e, "0"
			if traced {
				want, mode = layer, "1"
			}
			spans := filepath.Join(t.TempDir(), "spans.json")
			fl, err := runBench(t, "-workload", w, "-trace", mode, "-spans", spans)
			if err != nil || !fl.Correct || fl.Failed != 0 || fl.Attempted < 1 {
				t.Errorf("%s trace=%s: err %v, correct %v, failed %d of %d", w, mode, err, fl.Correct, fl.Failed, fl.Attempted)
			}
			if len(fl.Metrics) != len(want) {
				t.Errorf("%s trace=%s: %d metrics, want %d", w, mode, len(fl.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := fl.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%s: metric %s = %+v (present %v), want unit %q", w, mode, m.Name, got, ok, m.Unit)
				}
				if !traced && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, m.Name, got.Value)
				}
			}
			if traced {
				checkSpanFile(t, w, spans)
			}
		}
	}
}

func checkSpanFile(t *testing.T, workload, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct{ Spans []Span }
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Spans) == 0 {
		t.Errorf("%s: traced run recorded no spans", workload)
	}
	if err := checkSpans(doc.Spans); err != nil {
		t.Errorf("%s: %v", workload, err)
	}
}

// TestPerturbedGoldenFails records a golden entry, checks that it passes,
// then changes one value and requires the command to fail.
func TestPerturbedGoldenFails(t *testing.T) {
	golden := filepath.Join(t.TempDir(), "golden.json")
	args := []string{"-workload", "fig6-detailed", "-golden", golden}
	if _, err := runBench(t, append(args, "-update-golden")...); err != nil {
		t.Fatalf("recording golden values: %v", err)
	}
	if fl, err := runBench(t, args...); err != nil || !fl.Correct {
		t.Fatalf("run against its own golden values: err %v, correct %v", err, fl.Correct)
	}
	data, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	var gf goldenFile
	if err := json.Unmarshal(data, &gf); err != nil {
		t.Fatal(err)
	}
	for _, vals := range gf {
		vals["fig6.speedup.M3D-Het"] += "1"
	}
	data, _ = json.Marshal(gf)
	if err := os.WriteFile(golden, data, 0o644); err != nil {
		t.Fatal(err)
	}
	fl, err := runBench(t, args...)
	if err == nil || fl.Correct {
		t.Fatalf("perturbed golden value: err %v, correct %v; want a failing run", err, fl.Correct)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "cell", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Name: "a", StartNS: 10, EndNS: 40},
		{ID: 3, Parent: 1, Name: "b", StartNS: 30, EndNS: 60},
		{ID: 4, Parent: 1, Name: "c", StartNS: 90, EndNS: 120},
	}
	self := selfTimes(spans)
	// Children cover [10,60) and [90,100) of the parent: 60 of 100 ns.
	if self[1] != 40 || self[2] != 30 || self[4] != 30 {
		t.Errorf("self times %v", self)
	}
	if err := checkSpans(spans); err != nil {
		t.Error(err)
	}
	if err := checkSpans(append(spans, Span{ID: 5, Parent: 9})); err == nil {
		t.Error("span with a missing parent passed")
	}
}
