package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"syscall"
	"time"

	"vertical3d/bench/runset"
	"vertical3d/internal/config"
	"vertical3d/internal/experiments"
	"vertical3d/internal/multicore"
	"vertical3d/internal/tech"
	"vertical3d/internal/trace"
	"vertical3d/internal/uarch"
	"vertical3d/internal/workload"
)

// cliProcs is the GOMAXPROCS and worker count of every measured child:
// the host has two cores, and a real m3dcli run on it uses both.
const cliProcs = 2

// everyThird picks every third profile of a suite, starting at the second:
// 7 of the 21 SPEC profiles and 5 of the 15 parallel ones, each subset a
// mix of compute- and memory-bound profiles chosen by position, not by how
// any layer handles them. The subsets keep one repetition near 4 s on a
// 2-core host, so a 30 s run takes several fresh-process samples.
func everyThird(suite []trace.Profile) []trace.Profile {
	var out []trace.Profile
	for i := 1; i < len(suite); i += 3 {
		out = append(out, suite[i])
	}
	return out
}

// cliSpec is everything one CLI-workload repetition runs.
type cliSpec struct {
	profiles []trace.Profile
	fig9     bool // multicore sweep (Fig9With) instead of Fig6With
	fig8     bool // follow the Fig6 sweep with its Fig8 thermal solves
	opt      experiments.RunOptions
	mc       multicore.Options
}

// cliSpecFor sizes a CLI workload. "standard" is the measured sizing;
// "tiny" runs one profile at m3dcli -quick sizing for the smoke test.
func cliSpecFor(name, size string, seed int64) (cliSpec, error) {
	tiny := size == "tiny"
	if !tiny && size != "standard" {
		return cliSpec{}, fmt.Errorf("unknown size %q (want standard or tiny)", size)
	}
	s := cliSpec{opt: experiments.DefaultRunOptions(), mc: multicore.DefaultOptions()}
	s.opt.Seed, s.mc.Seed = seed, seed
	s.opt.Workers, s.mc.Workers = cliProcs, cliProcs
	// Failed cells are counted per cell instead of aborting the sweep;
	// a fault-free sweep is identical either way.
	s.opt.KeepGoing, s.mc.KeepGoing = true, true
	switch name {
	case "fig6-detailed":
		s.profiles, s.fig8 = everyThird(workload.SPEC2006()), true
		if tiny {
			s.profiles = s.profiles[:1]
			s.opt.Warmup, s.opt.Measure = experiments.QuickRunOptions().Warmup, experiments.QuickRunOptions().Measure
		}
	case "fig6-sampled":
		// The sampling geometry of BENCH_sample.json and BENCH_warm.json.
		s.profiles = everyThird(workload.SPEC2006())
		s.opt.Warmup, s.opt.Measure = 100_000, 1_100_000
		s.opt.Sample, s.opt.WarmCache = true, true
		s.opt.SampleParams = uarch.SampleParams{Interval: 400_000, Warmup: 1_000, Unit: 8_000}
		if tiny {
			s.profiles = s.profiles[:1]
			s.opt.Warmup, s.opt.Measure = 20_000, 200_000
			s.opt.SampleParams = uarch.SampleParams{Interval: 50_000, Warmup: 1_000, Unit: 4_000}
		}
	case "fig9-multicore":
		s.profiles, s.fig9 = everyThird(workload.Parallel()), true
		if tiny {
			s.profiles = s.profiles[:1]
			s.mc.TotalInstrs, s.mc.WarmupPerCore = 80_000, 5_000
		}
	default:
		return cliSpec{}, fmt.Errorf("unknown CLI workload %q", name)
	}
	return s, nil
}

// cellBits is one cell's headline outputs, compared bit for bit between
// the library sweep and the traced recomposition. A Fig8 entry carries the
// peak temperature in Seconds and the placed power in TotalJ.
type cellBits struct {
	Cell    string  `json:"cell"`
	IPC     float64 `json:"ipc,omitempty"`
	Seconds float64 `json:"seconds"`
	TotalJ  float64 `json:"total_j"`
	Cycles  uint64  `json:"cycles,omitempty"`
}

// childReport is what a child process prints on standard output.
type childReport struct {
	// ReadyUnixNano is when set-up ended and the first experiment call
	// began.
	ReadyUnixNano int64   `json:"ready_unix_nano"`
	SweepSeconds  float64 `json:"sweep_seconds"`
	Cells         int     `json:"cells"`
	FailedCells   int     `json:"failed_cells"`
	Fallbacks     int     `json:"fallbacks"`
	// Summary holds the golden-checked per-design values, formatted %.6g.
	Summary map[string]string `json:"summary"`
	// Fingerprint hashes every cell's complete result, so repetitions of
	// one seed must agree on it exactly.
	Fingerprint string     `json:"fingerprint"`
	CellBits    []cellBits `json:"cell_bits"`

	// Composition (traced) children only.
	Spans  []Span             `json:"spans,omitempty"`
	Layers map[string]float64 `json:"layers,omitempty"`
}

// Child modes: the library sweep; the traced recomposition of every cell
// from public calls; or set-up alone, an extra set-up sample.
const (
	modeSweep   = "sweep"
	modeCompose = "compose"
	modeSetup   = "setup"
)

// childMain runs one repetition of a CLI workload in this process and
// prints its report.
func childMain(name, size string, seed int64, mode string) error {
	spec, err := cliSpecFor(name, size, seed)
	if err != nil {
		return err
	}
	suite, err := config.Derive(tech.N22())
	if err != nil {
		return err
	}
	rep := childReport{ReadyUnixNano: time.Now().UnixNano()}
	switch mode {
	case modeSweep:
		err = librarySweep(&rep, spec, suite, spec.profiles)
	case modeCompose:
		err = composeSweep(&rep, name, spec, suite, spec.profiles)
	case modeSetup:
	default:
		err = fmt.Errorf("unknown child mode %q", mode)
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(rep)
}

// librarySweep runs the sweep exactly as m3dcli does and summarises it.
func librarySweep(rep *childReport, spec cliSpec, suite *config.Suite, profs []trace.Profile) error {
	start := time.Now()
	var f6 *experiments.Fig6Result
	var rows []experiments.Fig8Row
	var f9 *experiments.Fig9Result
	var err error
	if spec.fig9 {
		f9, err = experiments.Fig9With(suite, profs, spec.mc)
	} else {
		f6, err = experiments.Fig6With(suite, profs, spec.opt)
		if err == nil && spec.fig8 {
			rows, _, err = experiments.Fig8Health(f6)
		}
	}
	rep.SweepSeconds = time.Since(start).Seconds()
	if err != nil {
		return err
	}

	var full any
	if f9 != nil {
		rep.Cells = len(f9.Benchmarks) * len(f9.Designs)
		rep.FailedCells = f9.FailedCells()
		rep.Summary = fig9Summary(f9)
		for _, b := range f9.Benchmarks {
			for _, d := range f9.Designs {
				r := f9.Runs[b][d]
				rep.CellBits = append(rep.CellBits, cellBits{Cell: b + "/" + d.String(), Seconds: r.Seconds, TotalJ: r.Energy.TotalJ(), Cycles: r.Cycles})
			}
		}
		full = f9.Runs
	} else {
		rep.Cells = len(f6.Benchmarks) * len(f6.Designs)
		rep.FailedCells = f6.FailedCells()
		for _, ev := range f6.Health.Events {
			if ev.Layer == "sample" {
				rep.Fallbacks++
			}
		}
		rep.Summary = fig6Summary(f6, rows)
		for _, b := range f6.Benchmarks {
			for _, d := range f6.Designs {
				r := f6.Runs[b][d]
				rep.CellBits = append(rep.CellBits, cellBits{Cell: b + "/" + d.String(), IPC: r.IPC, Seconds: r.Seconds, TotalJ: r.Energy.TotalJ()})
			}
		}
		rep.CellBits = append(rep.CellBits, fig8Bits(rows)...)
		full = struct {
			Runs any
			Fig8 []experiments.Fig8Row
		}{f6.Runs, rows}
	}
	raw, err := json.Marshal(full)
	if err != nil {
		return err
	}
	sum := sha256.Sum256(raw)
	rep.Fingerprint = hex.EncodeToString(sum[:])
	return nil
}

// fig8Bits lists a Fig8 table's peak temperatures as shadow-checked cells.
func fig8Bits(rows []experiments.Fig8Row) []cellBits {
	var out []cellBits
	for _, r := range rows {
		for _, d := range fig8Designs {
			out = append(out, cellBits{Cell: "fig8 " + r.Benchmark + "/" + d.String(), Seconds: r.PeakC[d], TotalJ: r.PowerW[d]})
		}
	}
	return out
}

// fig8Designs are the designs Fig8Health solves, in its order.
var fig8Designs = []config.Design{config.Base, config.TSV3D, config.M3DHet}

// g formats a golden value.
func g(v float64) string { return fmt.Sprintf("%.6g", v) }

// fig6Summary is the per-design Fig6 speedups, Fig7 energies and Fig8
// peak temperatures.
func fig6Summary(f *experiments.Fig6Result, rows []experiments.Fig8Row) map[string]string {
	out := map[string]string{}
	for _, d := range f.Designs {
		out["fig6.speedup."+d.String()] = g(f.AverageSpeedup(d))
		out["fig7.energy."+d.String()] = g(f.AverageNormEnergy(d))
	}
	for _, d := range fig8Designs {
		if len(rows) == 0 {
			break
		}
		t := 0.0
		for _, r := range rows {
			t += r.PeakC[d]
		}
		out["fig8.peak_c."+d.String()] = g(t / float64(len(rows)))
	}
	return out
}

// fig9Summary is the per-design Fig9 speedups and Fig10 energies and
// power ratios.
func fig9Summary(f *experiments.Fig9Result) map[string]string {
	out := map[string]string{}
	for _, d := range f.Designs {
		out["fig9.speedup."+d.String()] = g(f.AverageSpeedup(d))
		out["fig10.energy."+d.String()] = g(f.AverageNormEnergy(d))
		out["fig10.power_ratio."+d.String()] = g(f.AveragePowerRatio(d))
	}
	return out
}

// childRun is one finished child process.
type childRun struct {
	report childReport
	setup  float64 // exec to ReadyUnixNano, seconds
	cpu    float64 // user+sys seconds
	peakMB float64 // VmHWM (rusage maxrss)
}

// runChild executes one repetition in a fresh process of this binary.
func runChild(self string, args []string) (childRun, error) {
	cmd := exec.Command(self, args...)
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", cliProcs))
	cmd.SysProcAttr = orphanGuard()
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	start := time.Now()
	if err := cmd.Run(); err != nil {
		return childRun{}, fmt.Errorf("child %v: %w", args, err)
	}
	var r childRun
	if err := json.Unmarshal(out.Bytes(), &r.report); err != nil {
		return childRun{}, fmt.Errorf("child %v: bad report: %w", args, err)
	}
	ru := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	r.cpu = tv(ru.Utime) + tv(ru.Stime)
	r.peakMB = float64(ru.Maxrss) * 1024 / 1e6
	r.setup = float64(r.report.ReadyUnixNano-start.UnixNano()) / 1e9
	return r, nil
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

// orphanGuard kills a child the benchmark started if the benchmark itself
// is killed, so no simulation or daemon outlives the run.
func orphanGuard() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// childArgs builds a child's command line.
func childArgs(c *runConfig, mode string) []string {
	return []string{"-child", c.workload, "-mode", mode, "-size", c.size, "-seed", fmt.Sprint(c.seed)}
}

// setupSamples is how many set-up-only children a CLI run adds to the
// set-up samples of its repetitions: set-up takes milliseconds, so a
// handful of repetitions alone gives a noisy median.
const setupSamples = 30

// runCLI measures a CLI workload: fresh child processes, one after
// another, while another repetition of the median length still fits in
// the run's seconds (at least two, so the repetitions can be checked
// against each other).
func runCLI(c *runConfig, res *result) error {
	var runs []childRun
	var walls []float64
	start := time.Now()
	for len(runs) < 2 || time.Since(start).Seconds()+runset.Median(walls) < c.seconds.Seconds() {
		t := time.Now()
		r, err := runChild(c.self, childArgs(c, modeSweep))
		walls = append(walls, time.Since(t).Seconds())
		if err != nil {
			// A crashed repetition counts as one failed operation.
			res.attempted++
			res.failed++
			if res.failed >= 3 {
				return err
			}
			res.problem("%v", err)
			continue
		}
		runs = append(runs, r)
	}
	first := runs[0].report
	for i, r := range runs {
		res.attempted += r.report.Cells
		res.failed += r.report.FailedCells
		if r.report.Fingerprint != first.Fingerprint {
			res.problem("repetition %d produced different results from repetition 0 (seed %d)", i, c.seed)
		}
		res.sample("setup_s", r.setup)
		res.sample("sweep_s", r.report.SweepSeconds)
		res.sample("cpu_s", r.cpu)
		res.sample("peak_rss_mb", r.peakMB)
		res.sample("cells_per_s", float64(r.report.Cells)/r.report.SweepSeconds)
	}
	for i := 0; i < setupSamples; i++ {
		r, err := runChild(c.self, childArgs(c, modeSetup))
		if err != nil {
			return err
		}
		res.sample("setup_s", r.setup)
	}
	res.reps = len(runs)
	if first.FailedCells > 0 {
		res.problem("%d cell(s) failed", first.FailedCells)
	}
	c.checkGolden(res, first.Summary)
	return nil
}

// traceCLI is the traced run of a CLI workload: one library sweep for the
// pool's utilisation, then a fresh process that recomposes every cell from
// public calls with a span around each, whose outputs must equal the
// library's bit for bit.
func traceCLI(c *runConfig, res *result) error {
	lib, err := runChild(c.self, childArgs(c, modeSweep))
	if err != nil {
		return err
	}
	comp, err := runChild(c.self, childArgs(c, modeCompose))
	if err != nil {
		return err
	}
	res.reps = 1
	res.attempted = lib.report.Cells
	res.failed = lib.report.FailedCells
	c.checkGolden(res, lib.report.Summary)
	shadowCheck(res, lib.report.CellBits, comp.report.CellBits)
	if err := checkSpans(comp.report.Spans); err != nil {
		res.problem("spans: %v", err)
	}
	for k, v := range comp.report.Layers {
		res.set(k, v)
	}
	res.set("experiments.pool_util", lib.cpu/(cliProcs*lib.report.SweepSeconds))
	res.set("experiments.sample_fallbacks", float64(lib.report.Fallbacks))
	res.set("bench.trace_overhead", comp.cpu/lib.cpu-1)
	res.spans = comp.report.Spans
	if u := res.value("bench.unattributed_frac"); u > 0.05 {
		res.problem("layer self times cover only %.1f%% of the composed cell time (want >= 95%%)", 100*(1-u))
	}
	return nil
}

// shadowCheck requires the composed cells to equal the library's bit for
// bit: otherwise the trace measured different work.
func shadowCheck(res *result, lib, comp []cellBits) {
	if len(lib) != len(comp) {
		res.problem("shadow: library has %d cells, composition %d", len(lib), len(comp))
		return
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for i := range lib {
		a, b := lib[i], comp[i]
		if a.Cell != b.Cell || !same(a.IPC, b.IPC) || !same(a.Seconds, b.Seconds) || !same(a.TotalJ, b.TotalJ) || a.Cycles != b.Cycles {
			res.problem("shadow: cell %s differs from the library's (%+v vs %+v)", a.Cell, a, b)
			return
		}
	}
}
