// Command mcsim runs one parallel benchmark on one (or every) multicore
// design of Figures 9-10 and prints timing, energy and coherence traffic.
// The design sweep fans out on the worker pool (-j) with bit-identical
// results at any worker count.
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
	"vertical3d/internal/multicore"
	"vertical3d/internal/profutil"
	"vertical3d/internal/shutdown"
	"vertical3d/internal/sweepflag"
	"vertical3d/internal/tech"
	"vertical3d/internal/trace"
	"vertical3d/internal/workload"
)

func usageErr(msg string) int {
	fmt.Fprintln(os.Stderr, "mcsim:", msg)
	flag.Usage()
	return 2
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "mcsim:", err)
	return 1
}

// main delegates to run so deferred profile flushes execute on every exit
// path before os.Exit.
func main() {
	os.Exit(run())
}

func run() int {
	bench := flag.String("bench", "Fft", "parallel benchmark name")
	instrs := flag.Uint64("instrs", 600_000, "total parallel work in instructions")
	warmup := flag.Uint64("warmup", 30_000, "warmup instructions per core")
	phases := flag.Int("phases", 4, "barrier-delimited phases")
	seed := flag.Int64("seed", 42, "trace seed")
	streamBase := flag.Int("stream-base", 0, "trace stream id of core 0 (core i uses stream-base+i); pick a base so streams cannot collide with single-core runs at the same seed")
	sf := sweepflag.Register(flag.CommandLine, "mcsim", sweepflag.Batch)
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a pprof allocation profile to this file on exit")
	flag.Parse()

	if *instrs == 0 {
		return usageErr("-instrs must be > 0")
	}
	if *warmup == 0 {
		return usageErr("-warmup must be > 0")
	}
	if *phases <= 0 {
		return usageErr("-phases must be > 0")
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
			fmt.Fprintln(os.Stderr, "mcsim:", err)
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
	opt := multicore.Options{TotalInstrs: *instrs, WarmupPerCore: *warmup, Phases: *phases,
		Seed: *seed, StreamBase: *streamBase, Sample: sf.Sampled(), Env: env}
	f, err := experiments.Fig9With(suite, []trace.Profile{prof}, opt)
	if err != nil {
		return shut.ExitCode(fail(err))
	}

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "design\tcores\tf(GHz)\ttime(µs)\tspeedup\tpower(W)\tenergy vs Base\thops\tinvs\tforwards")
	for _, d := range config.MulticoreDesigns() {
		mc := f.Configs[d]
		if f.Errors[prof.Name][d] != nil {
			fmt.Fprintf(tw, "%s\t%d\t%.2f\tERR\tERR\tERR\tERR\tERR\tERR\tERR\n", mc.Name, mc.Cores, mc.PerCore.FreqGHz)
			continue
		}
		r := f.Runs[prof.Name][d]
		fmt.Fprintf(tw, "%s\t%d\t%.2f\t%.1f\t%.2f\t%.1f\t%.2f\t%d\t%d\t%d\n",
			mc.Name, mc.Cores, mc.PerCore.FreqGHz,
			r.Seconds*1e6, f.Speedup[prof.Name][d], r.Energy.AvgWatts(), f.NormEnergy[prof.Name][d],
			r.MemStats.NoCHops, r.MemStats.Invalidations, r.MemStats.Forwards)
	}
	tw.Flush()
	sf.Report(os.Stderr, sweepflag.Sweep{Journal: f.Journal, Health: f.Health})
	if f.FailedCells() > 0 {
		fmt.Fprint(os.Stderr, "mcsim: ")
		f.RenderErrors(os.Stderr)
		return shut.ExitCode(1)
	}
	return shut.ExitCode(0)
}
