// Command sramstudy explores SRAM/CAM partitioning across the core's storage
// structures, reproducing Tables 3-6 and 8 of the paper. With -compare it
// prints the paper's published number next to each modelled one.
//
// Exit codes: 0 on success, 1 on runtime errors (including rows that failed
// under -keep-going), 2 on flag/usage errors, 130 when interrupted by
// SIGINT/SIGTERM.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"vertical3d/internal/core"
	"vertical3d/internal/experiments"
	"vertical3d/internal/guard"
	"vertical3d/internal/shutdown"
	"vertical3d/internal/sram"
	"vertical3d/internal/sweep"
	"vertical3d/internal/sweepflag"
	"vertical3d/internal/tech"
)

// keepGoing degrades per-row model failures from a fatal exit to an ERR row;
// failures counts them so main can still exit non-zero. shut is the signal
// layer mapping interrupted runs onto exit 130.
var (
	keepGoing bool
	failures  int
	shut      *shutdown.Handler
)

func usageErr(msg string) {
	fmt.Fprintln(os.Stderr, "sramstudy:", msg)
	flag.Usage()
	os.Exit(2)
}

func exitCode(code int) int {
	if shut != nil {
		return shut.ExitCode(code)
	}
	return code
}

func die(err error) {
	fmt.Fprintf(os.Stderr, "sramstudy: [%s] %v\n", guard.Classify(err), err)
	os.Exit(exitCode(1))
}

// fail reports a row-level error: under -keep-going it records it and
// returns (so the caller renders an ERR row); otherwise it exits 1.
func fail(err error) {
	if !keepGoing {
		die(err)
	}
	failures++
	fmt.Fprintf(os.Stderr, "sramstudy: [%s] %v\n", guard.Classify(err), err)
}

func main() {
	table := flag.String("table", "all", "which table to print: 3, 4, 5, 6, 8 or all")
	compare := flag.Bool("compare", true, "print paper values next to modelled values")
	sf := sweepflag.Register(flag.CommandLine, "sramstudy", sweepflag.Workers|sweepflag.KeepGoing|sweepflag.Journal)
	flag.Parse()
	env, err := sf.Env()
	if err != nil {
		usageErr(err.Error())
	}
	keepGoing = env.KeepGoing

	// SIGINT/SIGTERM maps the final status onto exit 130; the tables here
	// are sub-second, so there is no dispatch to drain.
	shut = shutdown.Install(context.Background(), shutdown.WithLog(sf.Logf))
	env.Context = shut.Context()

	n := tech.N22()
	// With -journal-dir, tables 3-6 route through the journaled experiments
	// layer (the same code path m3dcli uses): completed cells checkpoint as
	// they finish, and an unusable journal degrades the run to unjournaled
	// execution — reported via the Health block — instead of aborting it.
	strat := func(st sram.Strategy, paper map[string]map[string]core.PaperRow) {
		if env.JournalDir != "" {
			strategyTableJournaled(env, st, *compare)
			return
		}
		strategyTable(n, st, paper, *compare)
	}
	t6 := func() {
		if env.JournalDir != "" {
			table6Journaled(env, *compare)
			return
		}
		table6(n, *compare)
	}
	switch *table {
	case "3":
		strat(sram.BitPart, core.PaperTable3)
	case "4":
		strat(sram.WordPart, core.PaperTable4)
	case "5":
		strat(sram.PortPart, core.PaperTable5)
	case "6":
		t6()
	case "8":
		table8(n, *compare)
	case "all":
		fmt.Println("== Table 3: bit partitioning ==")
		strat(sram.BitPart, core.PaperTable3)
		fmt.Println("\n== Table 4: word partitioning ==")
		strat(sram.WordPart, core.PaperTable4)
		fmt.Println("\n== Table 5: port partitioning ==")
		strat(sram.PortPart, core.PaperTable5)
		fmt.Println("\n== Table 6: best iso-layer partition per structure ==")
		t6()
		fmt.Println("\n== Table 8: hetero-layer partitioning ==")
		table8(n, *compare)
	default:
		usageErr(fmt.Sprintf("unknown table %q", *table))
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "sramstudy: %d row(s) failed (rendered as ERR above)\n", failures)
		os.Exit(exitCode(1))
	}
	os.Exit(exitCode(0))
}

func pct(v float64) string { return fmt.Sprintf("%.0f", v*100) }

func strategyTable(n *tech.Node, st sram.Strategy, paper map[string]map[string]core.PaperRow, compare bool) {
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Struct\tVia\tLatency%\tEnergy%\tFootprint%")
	for _, name := range []string{"RF", "BPT"} {
		stc, err := core.ByName(name)
		if err != nil {
			fail(err)
			fmt.Fprintf(w, "%s\t-\tERR\tERR\tERR\n", name)
			continue
		}
		if st == sram.PortPart && stc.Spec.Ports() < 2 {
			fmt.Fprintf(w, "%s\t-\tn/a (single-ported)\t\t\n", name)
			continue
		}
		for _, via := range []struct {
			label string
			v     tech.Via
		}{{"M3D", tech.MIV()}, {"TSV3D", tech.TSVAggressive()}} {
			c, err := core.Evaluate(n, stc, sram.Iso(st, via.v))
			if err != nil {
				fail(err)
				fmt.Fprintf(w, "%s\t%s\tERR\tERR\tERR\n", name, via.label)
				continue
			}
			row := fmt.Sprintf("%s\t%s\t%s\t%s\t%s", name, via.label,
				pct(c.Reduction.Latency), pct(c.Reduction.Energy), pct(c.Reduction.Footprint))
			if compare {
				if p, ok := paper[via.label][name]; ok {
					row += fmt.Sprintf("\t(paper: %.0f/%.0f/%.0f)", p.Latency, p.Energy, p.Footprint)
				}
			}
			fmt.Fprintln(w, row)
		}
	}
	w.Flush()
}

// strategyTableJournaled prints one strategy table through the journaled
// experiments layer (see -journal-dir): fail-fast rather than per-row ERR,
// with the degradation ladder reported below the table.
func strategyTableJournaled(env sweep.Env, st sram.Strategy, compare bool) {
	rows, h, err := experiments.StrategyTable(env, st)
	if err != nil {
		fail(err)
		return
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Struct\tVia\tLatency%\tEnergy%\tFootprint%")
	for _, r := range rows {
		line := fmt.Sprintf("%s\t%s\t%.0f\t%.0f\t%.0f", r.Structure, r.Via, r.Latency, r.Energy, r.Footprint)
		if compare && r.HasPaper {
			line += fmt.Sprintf("\t(paper: %.0f/%.0f/%.0f)", r.Paper.Latency, r.Paper.Energy, r.Paper.Footprint)
		}
		fmt.Fprintln(w, line)
	}
	w.Flush()
	experiments.RenderHealth(os.Stderr, h)
}

func table6(n *tech.Node, compare bool) {
	m3d, err := core.SelectAll(n, core.IsoLayer, tech.MIV())
	if err != nil {
		fail(err)
		return
	}
	tsv, err := core.SelectAll(n, core.IsoLayer, tech.TSVAggressive())
	if err != nil {
		fail(err)
		return
	}
	renderTable6(m3d, tsv, compare)
}

// table6Journaled is table6 through the journaled experiments layer.
func table6Journaled(env sweep.Env, compare bool) {
	m3d, tsv, h, err := experiments.Table6(env)
	if err != nil {
		fail(err)
		return
	}
	renderTable6(m3d, tsv, compare)
	experiments.RenderHealth(os.Stderr, h)
}

func renderTable6(m3d, tsv []core.Choice, compare bool) {
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Struct\tM3D best\tLat%\tEner%\tFoot%\tTSV best\tLat%\tEner%\tFoot%")
	for i := range m3d {
		name := m3d[i].Structure.Spec.Name
		row := fmt.Sprintf("%s\t%v\t%s\t%s\t%s\t%v\t%s\t%s\t%s", name,
			m3d[i].Strategy(), pct(m3d[i].Reduction.Latency), pct(m3d[i].Reduction.Energy), pct(m3d[i].Reduction.Footprint),
			tsv[i].Strategy(), pct(tsv[i].Reduction.Latency), pct(tsv[i].Reduction.Energy), pct(tsv[i].Reduction.Footprint))
		if compare {
			pm := core.PaperTable6M3D[name]
			pt := core.PaperTable6TSV[name]
			row += fmt.Sprintf("\t(paper M3D %s %.0f/%.0f/%.0f, TSV %s %.0f/%.0f/%.0f)",
				core.PaperTable6Strategy[name], pm.Latency, pm.Energy, pm.Footprint,
				core.PaperTable6StrategyTSV[name], pt.Latency, pt.Energy, pt.Footprint)
		}
		fmt.Fprintln(w, row)
	}
	w.Flush()
	fmt.Printf("min latency reduction (cycle-critical): %.1f%%\n",
		core.MinLatencyReduction(m3d, true)*100)
}

func table8(n *tech.Node, compare bool) {
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Struct\tStrategy\tLat%\tEner%\tFoot%")
	het, err := core.SelectAll(n, core.HeteroLayer, tech.MIV())
	if err != nil {
		fail(err)
		w.Flush()
		return
	}
	for _, c := range het {
		name := c.Structure.Spec.Name
		row := fmt.Sprintf("%s\t%v(bf=%.2f,up=%.1f)\t%s\t%s\t%s", name,
			c.Strategy(), c.Result.Partition.BottomFrac, c.Result.Partition.TopUpsize,
			pct(c.Reduction.Latency), pct(c.Reduction.Energy), pct(c.Reduction.Footprint))
		if compare {
			p := core.PaperTable8[name]
			row += fmt.Sprintf("\t(paper %.0f/%.0f/%.0f)", p.Latency, p.Energy, p.Footprint)
		}
		fmt.Fprintln(w, row)
	}
	w.Flush()
	fmt.Printf("min latency reduction (cycle-critical): %.1f%%\n",
		core.MinLatencyReduction(het, true)*100)
}
