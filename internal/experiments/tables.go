// Package experiments regenerates every table and figure of the paper's
// evaluation: the via comparisons (Tables 1-2, Figure 2), the partitioning
// studies (Tables 3-6, 8), the logic-stage anchors (Section 3.1), the
// thermal stack (Table 10), the derived configurations (Table 11), and the
// simulated figures (6-10). Each experiment returns structured rows and can
// render itself as text alongside the paper's published values.
package experiments

import (
	"context"
	"fmt"
	"io"
	"text/tabwriter"

	"vertical3d/internal/config"
	"vertical3d/internal/core"
	"vertical3d/internal/journal"
	"vertical3d/internal/logic3d"
	"vertical3d/internal/parallel"
	"vertical3d/internal/sram"
	"vertical3d/internal/sweep"
	"vertical3d/internal/tech"
	"vertical3d/internal/thermal"
)

// Table1Row is one via's area overhead.
type Table1Row struct {
	Via              string
	VsAdderPct       float64
	VsSRAMWordPct    float64
	PaperAdderPct    float64
	PaperSRAMWordPct float64
}

// Table1 computes the MIV/TSV area overheads at 15nm.
func Table1() []Table1Row {
	n := tech.N15()
	mk := func(v tech.Via, pa, ps float64) Table1Row {
		return Table1Row{
			Via:           v.Name,
			VsAdderPct:    v.OverheadVsAdder32(n) * 100,
			VsSRAMWordPct: v.OverheadVsSRAMWord(n) * 100,
			PaperAdderPct: pa, PaperSRAMWordPct: ps,
		}
	}
	return []Table1Row{
		mk(tech.MIV(), 0.01, 0.1),
		mk(tech.TSVAggressive(), 8.0, 271.7),
		mk(tech.TSVResearch(), 128.7, 4347.8),
	}
}

// RenderTable1 writes Table 1.
func RenderTable1(w io.Writer) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Via\tvs 32b adder\tvs 32b SRAM word\t(paper)")
	for _, r := range Table1() {
		fmt.Fprintf(tw, "%s\t%.3f%%\t%.1f%%\t(%.2f%% / %.1f%%)\n",
			r.Via, r.VsAdderPct, r.VsSRAMWordPct, r.PaperAdderPct, r.PaperSRAMWordPct)
	}
	tw.Flush()
}

// Table2Row is one via's physical/electrical parameters.
type Table2Row struct {
	Via         tech.Via
	RCDelaySec  float64
	DriveDelayS float64
}

// Table2 lists the via parameters and derived figures of merit.
func Table2() []Table2Row {
	n := tech.N22()
	out := make([]Table2Row, 0, 3)
	for _, v := range []tech.Via{tech.MIV(), tech.TSVAggressive(), tech.TSVResearch()} {
		out = append(out, Table2Row{
			Via:         v,
			RCDelaySec:  v.RCDelay(),
			DriveDelayS: v.DriveDelay(n.RInv, 4*n.CInv),
		})
	}
	return out
}

// RenderTable2 writes Table 2.
func RenderTable2(w io.Writer) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Via\tDiameter\tHeight\tCap\tRes\tRC\tdrive delay (min inv)")
	for _, r := range Table2() {
		fmt.Fprintf(tw, "%s\t%.2fµm\t%.2fµm\t%.2ffF\t%.3gΩ\t%.3gps\t%.1fps\n",
			r.Via.Name, r.Via.Diameter*1e6, r.Via.Height*1e6,
			r.Via.Capacitance*1e15, r.Via.Resistance, r.RCDelaySec*1e12, r.DriveDelayS*1e12)
	}
	tw.Flush()
}

// Fig2Result is the relative-area comparison.
type Fig2Result struct {
	Inverter, MIV, SRAMCell, TSV float64
}

// Fig2 computes the relative areas of Figure 2.
func Fig2() Fig2Result {
	inv, miv, sramCell, tsv := tech.RelativeAreaFigure2(tech.N15())
	return Fig2Result{Inverter: inv, MIV: miv, SRAMCell: sramCell, TSV: tsv}
}

// RenderFig2 writes Figure 2's data.
func RenderFig2(w io.Writer) {
	r := Fig2()
	fmt.Fprintf(w, "Relative area at 15nm (paper: 1x / 0.07x / 2x / 37x):\n")
	fmt.Fprintf(w, "  FO1 inverter %.2fx  MIV %.2fx  SRAM bitcell %.2fx  TSV(1.3µm) %.1fx\n",
		r.Inverter, r.MIV, r.SRAMCell, r.TSV)
}

// PartRow is one row of the partition-study tables.
type PartRow struct {
	Structure string
	Via       string
	Strategy  string
	Latency   float64 // percent reduction vs 2D
	Energy    float64
	Footprint float64
	Paper     core.PaperRow
	HasPaper  bool
}

// StrategyTable evaluates one fixed strategy on the RF and BPT for both via
// technologies — Tables 3 (BP), 4 (WP) and 5 (PP). The structure × via
// cells fan out on env's worker pool and come back in the fixed
// (structure, via) order regardless of scheduling. Every cell goes through
// env's result cache and checkpoint journal (see runCell): with a
// JournalDir, completed cells are journaled as they finish and merged
// bit-identically on re-run, and a journal that cannot open or append
// downgrades the run to unjournaled execution, reported in the returned
// Health block. The table always fails fast; KeepGoing does not apply.
func StrategyTable(env sweep.Env, st sram.Strategy) ([]PartRow, Health, error) {
	n := tech.N22()
	hr := &healthRecorder{}
	cr := openCells(env, StrategyTableIdentity(st), hr)
	defer cr.jn.Close()
	paper := map[sram.Strategy]map[string]map[string]core.PaperRow{
		sram.BitPart:  core.PaperTable3,
		sram.WordPart: core.PaperTable4,
		sram.PortPart: core.PaperTable5,
	}[st]

	// Enumerate the cells sequentially (cheap), then evaluate in parallel.
	type cell struct {
		stc   core.Structure
		name  string
		label string
		via   tech.Via
	}
	var cells []cell
	for _, name := range []string{"RF", "BPT"} {
		stc, err := core.ByName(name)
		if err != nil {
			return nil, Health{}, err
		}
		if st == sram.PortPart && stc.Spec.Ports() < 2 {
			continue
		}
		for _, v := range []struct {
			label string
			via   tech.Via
		}{{"M3D", tech.MIV()}, {"TSV3D", tech.TSVAggressive()}} {
			cells = append(cells, cell{stc: stc, name: name, label: v.label, via: v.via})
		}
	}
	rows, err := parallel.Map(env.Ctx(), env.Pool(), len(cells),
		func(_ context.Context, i int) (PartRow, error) {
			cl := cells[i]
			key := journal.CellKey(cl.name, cl.label, st.String(), cl.via, *n)
			return runCell(cr, cl.name, cl.label, key, func() (PartRow, error) {
				c, err := core.Evaluate(n, cl.stc, sram.Iso(st, cl.via))
				if err != nil {
					return PartRow{}, err
				}
				row := PartRow{
					Structure: cl.name, Via: cl.label, Strategy: st.String(),
					Latency:   c.Reduction.Latency * 100,
					Energy:    c.Reduction.Energy * 100,
					Footprint: c.Reduction.Footprint * 100,
				}
				if p, ok := paper[cl.label][cl.name]; ok {
					row.Paper, row.HasPaper = p, true
				}
				return row, nil
			})
		})
	journalHealth(hr, cr.jn)
	return rows, hr.health(), err
}

// Table6 selects the best iso-layer partition per structure for M3D and
// TSV3D. The two via technologies are selected concurrently on env's pool
// (and each SelectAll fans out over the catalog itself), through env's
// result cache and journal like StrategyTable.
func Table6(env sweep.Env) (m3d, tsv []core.Choice, h Health, err error) {
	n := tech.N22()
	hr := &healthRecorder{}
	cr := openCells(env, Table6Identity(), hr)
	defer cr.jn.Close()
	vias := []tech.Via{tech.MIV(), tech.TSVAggressive()}
	out, err := parallel.Map(env.Ctx(), env.Pool(), len(vias),
		func(_ context.Context, i int) ([]core.Choice, error) {
			key := journal.CellKey("table6", vias[i].Name, vias[i], *n)
			return runCell(cr, "table6", vias[i].Name, key, func() ([]core.Choice, error) {
				return core.SelectAll(n, core.IsoLayer, vias[i])
			})
		})
	journalHealth(hr, cr.jn)
	h = hr.health()
	if err != nil {
		return nil, nil, h, err
	}
	return out[0], out[1], h, nil
}

// StrategyTableIdentity is the journal identity StrategyTable runs
// the given partitioning strategy's table under.
func StrategyTableIdentity(st sram.Strategy) journal.Identity {
	return journal.Identity{
		Experiment: "strategy",
		Params:     journal.Params("strategy", st.String(), "node", tech.N22().Name),
	}
}

// Table6Identity is the journal identity Table6 runs under.
func Table6Identity() journal.Identity {
	return journal.Identity{
		Experiment: "table6",
		Params:     journal.Params("node", tech.N22().Name),
	}
}

// Table8 selects the best hetero-layer partition per structure.
func Table8() ([]core.Choice, error) {
	return core.SelectAll(tech.N22(), core.HeteroLayer, tech.MIV())
}

// RenderPartitionTable writes a partition study with paper references.
func RenderPartitionTable(w io.Writer, rows []PartRow) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Struct\tVia\tStrat\tLat%\tEner%\tFoot%\t(paper L/E/F)")
	for _, r := range rows {
		ref := "-"
		if r.HasPaper {
			ref = fmt.Sprintf("%.0f/%.0f/%.0f", r.Paper.Latency, r.Paper.Energy, r.Paper.Footprint)
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.0f\t%.0f\t%.0f\t%s\n",
			r.Structure, r.Via, r.Strategy, r.Latency, r.Energy, r.Footprint, ref)
	}
	tw.Flush()
}

// RenderChoices writes a Table-6/8 style listing.
func RenderChoices(w io.Writer, choices []core.Choice, paper map[string]core.PaperRow) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Struct\tBest\tLat%\tEner%\tFoot%\t(paper L/E/F)")
	for _, c := range choices {
		name := c.Structure.Spec.Name
		ref := "-"
		if p, ok := paper[name]; ok {
			ref = fmt.Sprintf("%.0f/%.0f/%.0f", p.Latency, p.Energy, p.Footprint)
		}
		fmt.Fprintf(tw, "%s\t%v\t%.0f\t%.0f\t%.0f\t%s\n", name, c.Strategy(),
			c.Reduction.Latency*100, c.Reduction.Energy*100, c.Reduction.Footprint*100, ref)
	}
	tw.Flush()
}

// Table7 describes the hetero-layer partitioning techniques (qualitative).
func Table7() []string {
	return []string{
		"Logic stage:        critical paths in bottom layer; non-critical paths in top",
		"Storage (PP):       asymmetric port split; larger access transistors in top layer",
		"Storage (BP/WP):    asymmetric array split; larger bit cells in top layer",
		"Mixed stage:        combination of the previous two techniques",
	}
}

// LogicResult bundles the Section 3.1 logic-stage anchors.
type LogicResult struct {
	OneALU  logic3d.StageResult
	FourALU logic3d.StageResult

	CriticalPathFrac float64
	MaxTopSlowdown   float64
}

// LogicStage reproduces the adder/bypass P&R anchors.
func LogicStage() (LogicResult, error) {
	n := tech.N22()
	one, err := logic3d.ALUBypass(n, 1)
	if err != nil {
		return LogicResult{}, err
	}
	four, err := logic3d.ALUBypass(n, 4)
	if err != nil {
		return LogicResult{}, err
	}
	return LogicResult{
		OneALU:           one,
		FourALU:          four,
		CriticalPathFrac: logic3d.NewCarrySkipAdder().CriticalPathFraction(),
		MaxTopSlowdown:   logic3d.MaxTopSlowdown(),
	}, nil
}

// RenderLogic writes the Section 3.1 results.
func RenderLogic(w io.Writer, r LogicResult) {
	fmt.Fprintf(w, "1 ALU + bypass:  M3D freq gain %.0f%% (paper 15%%), footprint -%.0f%% (paper 41%%)\n",
		r.OneALU.FreqGain*100, r.OneALU.FootprintSaving*100)
	fmt.Fprintf(w, "4 ALUs + bypass: M3D freq gain %.0f%% (paper 28%%), energy -%.0f%% (paper 10%%)\n",
		r.FourALU.FreqGain*100, r.FourALU.EnergySaving*100)
	fmt.Fprintf(w, "adder critical-path gates: %.1f%% (paper 1.5%%); max hideable top-layer slowdown: %.0f%%\n",
		r.CriticalPathFrac*100, r.MaxTopSlowdown*100)
}

// Table10 returns the three thermal stacks.
func Table10() map[string][]thermal.LayerSpec {
	return map[string][]thermal.LayerSpec{
		"2D":    thermal.Stack2D(),
		"M3D":   thermal.StackM3D(),
		"TSV3D": thermal.StackTSV3D(),
	}
}

// RenderTable10 writes the stack parameters.
func RenderTable10(w io.Writer) {
	for _, name := range []string{"2D", "M3D", "TSV3D"} {
		fmt.Fprintf(w, "%s stack (bottom-up):\n", name)
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		for _, l := range Table10()[name] {
			act := ""
			if l.Active {
				act = "  [active]"
			}
			fmt.Fprintf(tw, "  %s\t%.2fµm\t%.1f W/m-K%s\n", l.Name, l.Thickness*1e6, l.Conductivity, act)
		}
		tw.Flush()
	}
}

// Table11 derives the configuration suite.
func Table11() (*config.Suite, error) {
	return config.Derive(tech.N22())
}

// RenderTable11 writes the derived configurations against the paper's.
func RenderTable11(w io.Writer, s *config.Suite) {
	paper := map[config.Design]float64{
		config.Base: core.PaperBaseFreqGHz, config.TSV3D: core.PaperBaseFreqGHz,
		config.M3DIso: core.PaperIsoFreqGHz, config.M3DHetNaive: core.PaperHetNaiveFreqGHz,
		config.M3DHet: core.PaperHetFreqGHz, config.M3DHetAgg: core.PaperHetAggFreqGHz,
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Config\tf (GHz)\tf/fBase\tpaper f (GHz)\tpaper f/fBase")
	base := s.Configs[config.Base].FreqGHz
	for _, d := range config.SingleCoreDesigns() {
		c := s.Configs[d]
		fmt.Fprintf(tw, "%s\t%.2f\t%.3f\t%.2f\t%.3f\n", c.Name, c.FreqGHz, c.FreqGHz/base,
			paper[d], paper[d]/core.PaperBaseFreqGHz)
	}
	tw.Flush()
	fmt.Fprintf(w, "base cycle %.0fps; freq-limiting reductions: iso %.1f%%, hetero %.1f%%, aggressive %.1f%%\n",
		s.BaseCycleTime*1e12, s.MinIsoReduction*100, s.MinHeteroReduction*100, s.IQHeteroReduction*100)
}
