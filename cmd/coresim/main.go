// Command coresim runs one benchmark on one (or every) single-core design
// and prints IPC, runtime, power and the event statistics — the per-cell
// view behind Figures 6 and 7.
//
// Exit codes: 0 on success, 1 on runtime errors (including failed cells
// under -keep-going), 2 on flag/usage errors (including uncreatable
// -cpuprofile/-memprofile paths), 130 when
// interrupted by SIGINT/SIGTERM (the sweep drains, the -journal-dir
// checkpoint flushes, and a re-run resumes from it).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"vertical3d/internal/config"
	"vertical3d/internal/experiments"
	"vertical3d/internal/profutil"
	"vertical3d/internal/shutdown"
	"vertical3d/internal/sweepflag"
	"vertical3d/internal/tech"
	"vertical3d/internal/trace"
	"vertical3d/internal/workload"
)

func usageErr(msg string) int {
	fmt.Fprintln(os.Stderr, "coresim:", msg)
	flag.Usage()
	return 2
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "coresim:", err)
	return 1
}

// main delegates to run so deferred profile flushes execute on every exit
// path before os.Exit.
func main() {
	os.Exit(run())
}

func run() int {
	bench := flag.String("bench", "Gamess", "benchmark name (see workload.Names)")
	warmup := flag.Uint64("warmup", 80_000, "warmup instructions")
	measure := flag.Uint64("measure", 200_000, "measured instructions")
	seed := flag.Int64("seed", 42, "trace seed")
	stream := flag.Int("stream", 0, "trace stream id (multicore core i uses stream i; pick a distinct id to avoid replaying a multicore per-core stream)")
	sf := sweepflag.Register(flag.CommandLine, "coresim", sweepflag.Batch|sweepflag.SampleParams)
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a pprof allocation profile to this file on exit")
	list := flag.Bool("list", false, "list benchmarks and exit")
	flag.Parse()

	if *list {
		for _, n := range workload.Names() {
			fmt.Println(n)
		}
		return 0
	}

	if *measure == 0 {
		return usageErr("-measure must be > 0")
	}
	prof, err := workload.ByName(*bench)
	if err != nil {
		return usageErr(err.Error())
	}
	env, err := sf.Env()
	if err != nil {
		return usageErr(err.Error())
	}
	stopProf, err := profutil.Start(*cpuprofile, *memprofile)
	if err != nil {
		return usageErr(err.Error())
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "coresim:", err)
		}
	}()

	// First SIGINT/SIGTERM stops dispatching cells and drains in-flight
	// work (flushing the journal); a second one force-exits. An
	// interrupted run exits 130 so scripts can distinguish it and resume.
	shut := shutdown.Install(context.Background(), shutdown.WithLog(sf.Logf))
	defer shut.Stop()

	suite, err := config.Derive(tech.N22())
	if err != nil {
		return fail(err)
	}
	env.Context = shut.Context()
	opt := experiments.RunOptions{Warmup: *warmup, Measure: *measure, Seed: *seed, StreamID: *stream, Env: env}
	sf.Sampling(&opt)
	f, err := experiments.Fig6With(suite, []trace.Profile{prof}, opt)
	if err != nil {
		return shut.ExitCode(fail(err))
	}

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "design\tf(GHz)\tIPC\ttime(µs)\tspeedup\tpower(W)\tenergy vs Base\tmispred%\tL1 load miss%")
	for _, d := range config.SingleCoreDesigns() {
		if f.Errors[prof.Name][d] != nil {
			fmt.Fprintf(tw, "%s\t%.2f\tERR\tERR\tERR\tERR\tERR\tERR\tERR\n", d, suite.Configs[d].FreqGHz)
			continue
		}
		r := f.Runs[prof.Name][d]
		lm := float64(r.Stats.LoadL1Misses) / float64(r.Stats.LoadL1Hits+r.Stats.LoadL1Misses) * 100
		fmt.Fprintf(tw, "%s\t%.2f\t%.2f\t%.1f\t%.2f\t%.1f\t%.2f\t%.1f\t%.1f\n",
			d, suite.Configs[d].FreqGHz, r.IPC, r.Seconds*1e6,
			f.Speedup[prof.Name][d], r.Energy.AvgWatts(), f.NormEnergy[prof.Name][d],
			r.Stats.MispredictRate()*100, lm)
	}
	tw.Flush()
	sf.Report(os.Stderr, sweepflag.Sweep{Journal: f.Journal, Health: f.Health})
	if f.FailedCells() > 0 {
		fmt.Fprint(os.Stderr, "coresim: ")
		f.RenderErrors(os.Stderr)
		return shut.ExitCode(1)
	}
	return shut.ExitCode(0)
}
