// Command m3dcli regenerates any table or figure of the paper:
//
//	m3dcli table1 table2 fig2 table3 table4 table5 table6 table7 table8
//	m3dcli logic table10 table11
//	m3dcli fig6 fig7 fig8 fig9 fig10
//	m3dcli all        # everything
//
// Figures run at the benchmark-scale sizing used in EXPERIMENTS.md; use
// -quick for fast, small simulations.
//
// Exit codes: 0 on success, 1 on runtime errors (including failed sweep
// cells under -keep-going), 2 on flag/usage errors, 130 when interrupted
// by SIGINT/SIGTERM (sweeps drain, the -journal-dir checkpoint flushes,
// and a re-run resumes from it).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"vertical3d/internal/accel"
	"vertical3d/internal/clocktree"
	"vertical3d/internal/config"
	"vertical3d/internal/core"
	"vertical3d/internal/experiments"
	"vertical3d/internal/floorplan"
	"vertical3d/internal/multicore"
	"vertical3d/internal/pdn"
	"vertical3d/internal/shutdown"
	"vertical3d/internal/sram"
	"vertical3d/internal/sweepflag"
	"vertical3d/internal/tech"
	"vertical3d/internal/workload"
)

// shut is the process-wide signal layer: installed at the top of main,
// consulted by die and the final exit so an interrupted run reports 130.
var shut *shutdown.Handler

func main() {
	quick := flag.Bool("quick", false, "small simulation sizes (fast, noisier)")
	sf := sweepflag.Register(flag.CommandLine, "m3dcli", sweepflag.Batch|sweepflag.SampleParams)
	flag.Parse()

	// First SIGINT/SIGTERM stops dispatching sweep cells and drains
	// in-flight work (flushing the journal); a second one force-exits.
	shut = shutdown.Install(context.Background(), shutdown.WithLog(sf.Logf))
	env, err := sf.Env()
	if err != nil {
		fmt.Fprintln(os.Stderr, "m3dcli:", err)
		os.Exit(2)
	}
	env.Context = shut.Context()

	args := flag.Args()
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: m3dcli [-quick] <table1|table2|fig2|table3|table4|table5|table6|table7|table8|logic|lp|table10|table11|fig6|fig7|fig8|fig9|fig10|all>")
		os.Exit(2)
	}

	opt := experiments.DefaultRunOptions()
	mopt := multicore.DefaultOptions()
	if *quick {
		opt = experiments.QuickRunOptions()
		mopt = multicore.QuickOptions()
	}
	opt.Env, mopt.Env = env, env
	sf.Sampling(&opt)
	mopt.Sample = opt.Sample

	// ran collects the simulated sweeps for the end-of-run report.
	var ran []sweepflag.Sweep
	suite := func() *config.Suite {
		s, err := config.Derive(tech.N22())
		die(err)
		return s
	}
	var fig6 *experiments.Fig6Result // cached between fig6/7/8
	getFig6 := func() *experiments.Fig6Result {
		if fig6 == nil {
			f, err := experiments.Fig6With(suite(), workload.SPEC2006(), opt)
			die(err)
			fig6 = f
			ran = append(ran, sweepflag.Sweep{Journal: f.Journal, Health: f.Health})
		}
		return fig6
	}
	var fig9 *experiments.Fig9Result
	getFig9 := func() *experiments.Fig9Result {
		if fig9 == nil {
			f, err := experiments.Fig9With(suite(), workload.Parallel(), mopt)
			die(err)
			fig9 = f
			ran = append(ran, sweepflag.Sweep{Journal: f.Journal, Health: f.Health})
		}
		return fig9
	}
	strategy := func(st sram.Strategy) {
		rows, h, err := experiments.StrategyTable(env, st)
		die(err)
		experiments.RenderPartitionTable(os.Stdout, rows)
		experiments.RenderHealth(os.Stderr, h)
	}

	todo := args
	if len(args) == 1 && args[0] == "all" {
		todo = []string{"table1", "table2", "fig2", "table3", "table4", "table5",
			"table6", "table7", "table8", "logic", "lp", "infra", "accel", "table10", "table11",
			"fig6", "fig7", "fig8", "fig9", "fig10"}
	}

	for _, cmd := range todo {
		fmt.Printf("== %s ==\n", cmd)
		switch cmd {
		case "table1":
			experiments.RenderTable1(os.Stdout)
		case "table2":
			experiments.RenderTable2(os.Stdout)
		case "fig2":
			experiments.RenderFig2(os.Stdout)
		case "table3":
			strategy(sram.BitPart)
		case "table4":
			strategy(sram.WordPart)
		case "table5":
			strategy(sram.PortPart)
		case "table6":
			m3d, tsv, h, err := experiments.Table6(env)
			die(err)
			experiments.RenderHealth(os.Stderr, h)
			fmt.Println("M3D (iso-layer):")
			experiments.RenderChoices(os.Stdout, m3d, core.PaperTable6M3D)
			fmt.Println("TSV3D:")
			experiments.RenderChoices(os.Stdout, tsv, core.PaperTable6TSV)
		case "table7":
			for _, line := range experiments.Table7() {
				fmt.Println("  " + line)
			}
		case "table8":
			het, err := experiments.Table8()
			die(err)
			experiments.RenderChoices(os.Stdout, het, core.PaperTable8)
		case "infra":
			renderInfra()
		case "accel":
			renderAccel()
		case "lp":
			r, err := experiments.LPStudy([]string{"Gamess", "Mcf", "Povray", "Milc"}, opt)
			die(err)
			experiments.RenderLPStudy(os.Stdout, r)
			ran = append(ran, sweepflag.Sweep{Journal: r.Journal, Health: r.Health})
		case "logic":
			r, err := experiments.LogicStage()
			die(err)
			experiments.RenderLogic(os.Stdout, r)
		case "table10":
			experiments.RenderTable10(os.Stdout)
		case "table11":
			s, err := experiments.Table11()
			die(err)
			experiments.RenderTable11(os.Stdout, s)
		case "fig6":
			experiments.RenderFig6(os.Stdout, getFig6())
		case "fig7":
			experiments.RenderFig7(os.Stdout, getFig6())
		case "fig8":
			rows, h, err := experiments.Fig8Health(getFig6())
			die(err)
			experiments.RenderFig8(os.Stdout, rows)
			experiments.RenderHealth(os.Stderr, h)
		case "fig9":
			experiments.RenderFig9(os.Stdout, getFig9())
		case "fig10":
			experiments.RenderFig10(os.Stdout, getFig9())
		default:
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", cmd)
			os.Exit(2)
		}
		fmt.Println()
	}
	sf.Report(os.Stderr, ran...)
	failed := 0
	if fig6 != nil {
		failed += fig6.FailedCells()
	}
	if fig9 != nil {
		failed += fig9.FailedCells()
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "m3dcli: %d sweep cell(s) failed (rendered as ERR above)\n", failed)
		os.Exit(shut.ExitCode(1))
	}
	os.Exit(shut.ExitCode(0))
}

// renderAccel prints the Section 5 accelerator-integration comparison.
func renderAccel() {
	n := tech.N22()
	const freq = 3.5e9
	for _, in := range []accel.Integration{accel.SideBySide2D(), accel.VerticalM3D()} {
		be, err := in.BreakEvenCycles(n, 128, 4, freq)
		die(err)
		lat, err := in.TransferLatencyCycles(n, 256, freq)
		die(err)
		fmt.Printf("%-17s 256B transfer %4d cycles; offload break-even %5d core cycles (4x engine, 128B payload)\n",
			in.Name, lat, be)
	}
}

// renderInfra prints the clock-tree and PDN analyses of Section 3.3.
func renderInfra() {
	n := tech.N22()
	fp := floorplan.Core2D()
	const sinks = 100_000
	red, err := clocktree.FoldedReduction(n, fp.WidthM, fp.HeightM, sinks, 0.5)
	die(err)
	tree, err := clocktree.Build(n, fp.WidthM, fp.HeightM, sinks)
	die(err)
	fmt.Printf("clock tree: %.0fmm wire, %.0fpF/edge, %.2fW at 2.8GHz; folding to 50%% footprint saves %.0f%% (paper adopts a constant 25%% [42])\n",
		tree.WireLenM*1e3, tree.TotalCapF()*1e12, tree.PowerWatts(0.8, 2.8e9), red*100)

	half, err := floorplan.Folded(0.5)
	die(err)
	spec := pdn.Spec{WidthM: half.WidthM, HeightM: half.HeightM,
		PowerW: 6.4, Vdd: 0.8, BottomShare: 0.55, DroopBudget: 0.05}
	rec, err := pdn.Recommend(n, spec)
	die(err)
	fmt.Printf("PDN: recommended %v — %d metal layers, droop %.1f%% of Vdd, %d power MIVs occupying %.3f%% of the die (Section 3.3 / [10])\n",
		rec.Design, rec.MetalLayersUsed, rec.WorstDroopFrac*100, rec.PowerMIVs, rec.MIVAreaFrac*100)
}

func die(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "m3dcli:", err)
		code := 1
		if shut != nil {
			code = shut.ExitCode(1)
		}
		os.Exit(code)
	}
}
