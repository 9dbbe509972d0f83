// Command bench is the repository's end-to-end benchmark. It runs one named
// workload for a fixed time, checks every output it produces, and prints
// the run's metrics — end to end by default, per layer with -trace 1:
//
//	bash bench/run.sh --workload fig6-detailed --seed 42 --seconds 30 --trace 0
//
// Workloads:
//
//	fig6-detailed   Fig6 sweep + Fig8 thermal solves, detailed kernel
//	fig6-sampled    the same Fig6 sweep under interval sampling + warm cache
//	fig9-multicore  Fig9 multicore sweep
//	serve           m3dd: cold sweeps, cache hits, restarts, disk hits
//
// The last line of standard output is the run's result:
//
//	{"correct":true,"attempted":294,"failed":0,"metrics":{"sweep_s":{"value":2.91,"unit":"s"},...}}
//
// The line before it is the full run record (host, commit, seed, raw
// samples, medians and MADs), which -out also appends to a run-set file
// for bench/compare. The command exits 1 when any output is wrong.
// README.md explains the workloads, the metrics and how to compare runs.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"vertical3d/bench/runset"
)

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	size     string
	root     string // repository checkout the run builds from and writes under
	work     string // scratch directory for this run
	m3dd     string // daemon binary (serve)
	self     string // this binary, re-executed for CLI repetitions

	golden       string // golden file; "" = the embedded one
	updateGolden bool
}

//go:embed golden.json
var embeddedGolden []byte

// result accumulates one run's outcome.
type result struct {
	attempted, failed int
	reps              int
	problems          []string
	samples           map[string][]float64
	spans             []Span
}

func (r *result) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// sample adds one raw sample of a metric reported as the median of its
// samples.
func (r *result) sample(name string, v float64) {
	r.samples[name] = append(r.samples[name], v)
}

// set reports a metric with a single value.
func (r *result) set(name string, v float64) { r.samples[name] = []float64{v} }

func (r *result) value(name string) float64 { return runset.Median(r.samples[name]) }

var workloads = []string{"fig6-detailed", "fig6-sampled", "fig9-multicore", "serve"}

func main() {
	var c runConfig
	var secs int
	var traceFlag int
	var child, mode string
	var out, spansPath string
	flag.StringVar(&c.workload, "workload", "", "workload to run: "+strings.Join(workloads, ", "))
	flag.Int64Var(&c.seed, "seed", 42, "seed every generated input derives from")
	flag.IntVar(&secs, "seconds", 30, "how long the run measures")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run: per-layer metrics and spans instead of end-to-end metrics")
	flag.StringVar(&c.size, "size", "standard", "standard, or tiny for a seconds-long smoke run")
	flag.StringVar(&c.root, "root", ".", "repository checkout; scratch files go under <root>/.bench_build")
	flag.StringVar(&c.m3dd, "m3dd", "", "m3dd binary the serve workload drives")
	flag.StringVar(&c.golden, "golden", "", "golden-value file (default: the embedded bench/golden.json)")
	flag.BoolVar(&c.updateGolden, "update-golden", false, "record this run's golden values into -golden instead of checking them")
	flag.StringVar(&out, "out", "", "append the run record to this run-set file")
	flag.StringVar(&spansPath, "spans", "", "traced runs: write the spans here (default <root>/.bench_build/spans-<workload>-<seed>.json)")
	flag.StringVar(&child, "child", "", "internal: run one repetition of this CLI workload in-process")
	flag.StringVar(&mode, "mode", modeSweep, "internal: with -child, what the child runs: sweep, compose or setup")
	flag.Parse()

	if child != "" {
		if err := childMain(child, c.size, c.seed, mode); err != nil {
			fmt.Fprintln(os.Stderr, "bench child:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(&c, secs, traceFlag, out, spansPath); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(c *runConfig, secs, traceFlag int, out, spansPath string) error {
	known := false
	for _, w := range workloads {
		known = known || w == c.workload
	}
	if !known {
		return fmt.Errorf("unknown -workload %q (want one of %s)", c.workload, strings.Join(workloads, ", "))
	}
	if secs < 1 || (traceFlag != 0 && traceFlag != 1) {
		return fmt.Errorf("-seconds must be >= 1 and -trace 0 or 1")
	}
	if c.updateGolden && c.golden == "" {
		return fmt.Errorf("-update-golden needs -golden")
	}
	c.seconds = time.Duration(secs) * time.Second
	c.trace = traceFlag == 1
	var err error
	if c.root, err = filepath.Abs(c.root); err != nil {
		return err
	}
	if c.self, err = os.Executable(); err != nil {
		return err
	}
	c.work, err = os.MkdirTemp(mkdir(filepath.Join(c.root, ".bench_build")), "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(c.work)

	res := &result{samples: map[string][]float64{}}
	rec := runset.Record{
		Workload: c.workload, Size: c.size, Seed: c.seed, Seconds: secs, Trace: c.trace,
		Start: time.Now().UTC(), Host: hostInfo(c.root),
	}
	switch {
	case c.workload == "serve" && c.trace:
		err = traceServe(c, res)
	case c.workload == "serve":
		err = runServe(c, res)
	case c.trace:
		err = traceCLI(c, res)
	default:
		err = runCLI(c, res)
	}
	if err != nil {
		return err
	}

	metrics := endToEnd
	if c.trace {
		metrics = perLayer
		if spansPath == "" {
			spansPath = filepath.Join(c.root, ".bench_build", fmt.Sprintf("spans-%s-%d.json", c.workload, c.seed))
		}
		if err := writeSpans(spansPath, c.workload, res.spans); err != nil {
			return err
		}
	}
	rec.Reps, rec.Attempted, rec.Failed = res.reps, res.attempted, res.failed
	rec.Metrics = map[string]runset.Metric{}
	type wire struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	final := map[string]wire{}
	for _, m := range metrics {
		xs := res.samples[m.name]
		v := 0.0
		if len(xs) > 0 {
			v = runset.Median(xs)
		} else if !c.trace {
			res.problem("metric %s was not measured", m.name)
		}
		mt := runset.Metric{Value: v, Unit: m.unit}
		if len(xs) > 1 {
			mt.MAD = runset.MAD(xs)
			mt.Samples = xs
		}
		rec.Metrics[m.name] = mt
		final[m.name] = wire{v, m.unit}
	}
	rec.Problems = res.problems
	rec.Correct = len(res.problems) == 0 && res.failed == 0

	report(rec)
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if out != "" {
		if err := runset.Append(out, rec); err != nil {
			return err
		}
	}
	last, err := json.Marshal(struct {
		Correct   bool            `json:"correct"`
		Attempted int             `json:"attempted"`
		Failed    int             `json:"failed"`
		Metrics   map[string]wire `json:"metrics"`
	}{rec.Correct, max(rec.Attempted, 1), rec.Failed, final})
	if err != nil {
		return err
	}
	fmt.Println(string(last))
	if !rec.Correct {
		return fmt.Errorf("%s: outputs are wrong: %s", c.workload, strings.Join(rec.Problems, "; "))
	}
	return nil
}

// report prints a human-readable summary to standard error.
func report(rec runset.Record) {
	fmt.Fprintf(os.Stderr, "bench %s seed=%d size=%s reps=%d attempted=%d failed=%d correct=%v (%s, %s, commit %s)\n",
		rec.Workload, rec.Seed, rec.Size, rec.Reps, rec.Attempted, rec.Failed, rec.Correct,
		rec.Host.CPU, rec.Host.GoVersion, rec.Host.Commit)
	names := make([]string, 0, len(rec.Metrics))
	for n := range rec.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rec.Metrics[n]
		fmt.Fprintf(os.Stderr, "  %-30s %14.6g %-9s mad %.3g n=%d\n", n, m.Value, m.Unit, m.MAD, max(len(m.Samples), 1))
	}
	for _, p := range rec.Problems {
		fmt.Fprintln(os.Stderr, "  PROBLEM:", p)
	}
}

// hostInfo stamps the machine, toolchain and commit a run was taken on.
func hostInfo(root string) runset.Host {
	h := runset.Host{NProc: runtime.NumCPU(), GOMAXPROCS: cliProcs, GoVersion: runtime.Version(), Commit: "unknown", CPU: "unknown"}
	h.Hostname, _ = os.Hostname()
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

// mkdir creates dir (and parents) and returns it; a failure surfaces at
// the first use of the directory.
func mkdir(dir string) string {
	_ = os.MkdirAll(dir, 0o755)
	return dir
}
