package experiments

// Resume-merge contract of the journaled sweeps: a run that checkpoints
// into a journal directory and a later run that resumes from it must be
// bit-identical to a single uninterrupted run — at any worker count, in
// any design order — and the resume must not re-execute a single
// journaled cell. These tests pin that contract with poisoned CellHooks:
// a hook that panics for a journaled cell turns any re-execution into a
// loud sweep failure, so the journal's Hits counter is corroborated by
// the absence of panics, not just trusted.

import (
	"context"
	"reflect"
	"testing"

	"vertical3d/internal/config"
	"vertical3d/internal/journal"
	"vertical3d/internal/multicore"
	"vertical3d/internal/sram"
	"vertical3d/internal/sweep"
	"vertical3d/internal/tech"
)

// fig6Cells is the quick two-benchmark fixture's cell count.
const fig6Designs = 6 // len(config.SingleCoreDesigns())

// forbidBench returns a CellHook that panics when the sweep executes any
// cell of the named benchmark — the witness that those cells came from
// the journal.
func forbidBench(t *testing.T, name string) func(bench, design string) {
	t.Helper()
	return func(bench, design string) {
		if bench == name {
			panic("journaled cell " + bench + "/" + design + " was re-executed")
		}
	}
}

// TestFig6ResumeMergesJournaledCellsBitIdentically is the end-to-end
// resume oracle for the single-core sweep:
//
//  1. a fresh, journal-free run is the reference;
//  2. a journaled run at Workers=8 with one benchmark's cells poisoned
//     checkpoints only the healthy benchmark (a partial journal — the
//     crash-interrupted sweep);
//  3. a resume at Workers=1 with a shuffled design list and a hook that
//     panics if any journaled cell re-executes must complete and
//     deep-equal the reference;
//  4. a second resume with every cell poisoned must be served entirely
//     from the journal (Appends == 0).
//
// Worker count and design order differ deliberately between the phases:
// both are merge-neutral under the journal identity.
func TestFig6ResumeMergesJournaledCellsBitIdentically(t *testing.T) {
	suite, err := config.Derive(tech.N22())
	if err != nil {
		t.Fatal(err)
	}
	list := workloadSubset(t, []string{"Hmmer", "Mcf"})
	opt := QuickRunOptions()
	ref, err := Fig6With(suite, list, opt)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()

	// Phase 1: Workers=8, every Mcf cell panics. The sweep keeps going, so
	// all Hmmer cells complete and are checkpointed; the Mcf cells fail and
	// stay un-journaled.
	p1 := opt
	p1.JournalDir = dir
	p1.Workers = 8
	p1.KeepGoing = true
	p1.CellHook = func(bench, design string) {
		if bench == "Mcf" {
			panic("injected: " + bench + "/" + design)
		}
	}
	f1, err := Fig6With(suite, list, p1)
	if err != nil {
		t.Fatalf("phase 1 keep-going sweep must complete: %v", err)
	}
	if got, want := f1.FailedCells(), fig6Designs; got != want {
		t.Fatalf("phase 1 failed cells = %d, want %d (all Mcf cells)", got, want)
	}
	if got, want := f1.Journal.Appends, fig6Designs; got != want {
		t.Fatalf("phase 1 journal appends = %d, want %d (all Hmmer cells)", got, want)
	}
	if f1.Journal.Hits != 0 {
		t.Fatalf("phase 1 journal hits = %d, want 0 (empty journal)", f1.Journal.Hits)
	}

	// Phase 2: resume at Workers=1 with the design order shuffled (Base
	// last) and the journaled benchmark's cells poisoned. The resume must
	// merge all Hmmer cells from the journal — any re-execution panics and
	// fails the sweep — execute only the Mcf cells, and deep-equal the
	// uninterrupted reference.
	shuffled := []config.Design{config.M3DHetAgg, config.M3DHet, config.M3DHetNaive, config.M3DIso, config.TSV3D, config.Base}
	p2 := opt
	p2.JournalDir = dir
	p2.Workers = 1
	p2.CellHook = forbidBench(t, "Hmmer")
	f2, err := Fig6WithDesigns(suite, list, shuffled, p2)
	if err != nil {
		t.Fatalf("phase 2 resume must complete without re-executing journaled cells: %v", err)
	}
	if got, want := f2.Journal.Hits, fig6Designs; got != want {
		t.Errorf("phase 2 journal hits = %d, want %d (all Hmmer cells merged)", got, want)
	}
	if got, want := f2.Journal.Appends, fig6Designs; got != want {
		t.Errorf("phase 2 journal appends = %d, want %d (all Mcf cells executed)", got, want)
	}
	if got, want := f2.Journal.Records, fig6Designs; got != want {
		t.Errorf("phase 2 loaded records = %d, want %d", got, want)
	}
	if !reflect.DeepEqual(f2.Runs, ref.Runs) {
		t.Error("resumed Runs differ from the uninterrupted reference")
	}
	if !reflect.DeepEqual(f2.Speedup, ref.Speedup) {
		t.Error("resumed Speedup differs from the uninterrupted reference")
	}
	if !reflect.DeepEqual(f2.NormEnergy, ref.NormEnergy) {
		t.Error("resumed NormEnergy differs from the uninterrupted reference")
	}
	if !reflect.DeepEqual(f2.Benchmarks, ref.Benchmarks) {
		t.Error("resumed benchmark order differs from the uninterrupted reference")
	}

	// Phase 3: the journal is now complete. A run with every cell poisoned
	// must be served entirely from it: zero executions, zero appends.
	p3 := opt
	p3.JournalDir = dir
	p3.Workers = 8
	p3.CellHook = func(bench, design string) {
		panic("fully journaled sweep executed " + bench + "/" + design)
	}
	f3, err := Fig6With(suite, list, p3)
	if err != nil {
		t.Fatalf("fully journaled run must execute nothing: %v", err)
	}
	total := 2 * fig6Designs
	if got := f3.Journal.Hits; got != total {
		t.Errorf("full-resume hits = %d, want %d", got, total)
	}
	if f3.Journal.Appends != 0 {
		t.Errorf("full-resume appends = %d, want 0", f3.Journal.Appends)
	}
	if got := f3.Journal.Records; got != total {
		t.Errorf("full-resume loaded records = %d, want %d (both segments merged)", got, total)
	}
	if f3.Journal.Segments != 2 {
		t.Errorf("full-resume segments = %d, want 2 (phase 1 + phase 2)", f3.Journal.Segments)
	}
	if !reflect.DeepEqual(f3.Runs, ref.Runs) {
		t.Error("fully journaled Runs differ from the uninterrupted reference")
	}
	if !reflect.DeepEqual(f3.Speedup, ref.Speedup) {
		t.Error("fully journaled Speedup differs from the uninterrupted reference")
	}
}

// TestFig6JournalIdentityInvalidation pins that the journal identity
// covers the sizing: a journal written at one seed must not leak into a
// run at another seed, whose results differ.
func TestFig6JournalIdentityInvalidation(t *testing.T) {
	suite, err := config.Derive(tech.N22())
	if err != nil {
		t.Fatal(err)
	}
	list := workloadSubset(t, []string{"Gobmk"})
	dir := t.TempDir()

	opt := QuickRunOptions()
	opt.JournalDir = dir
	if _, err := Fig6With(suite, list, opt); err != nil {
		t.Fatal(err)
	}

	// Same directory, different seed: the old segment must be skipped as
	// foreign, and every cell must execute afresh.
	executed := 0
	opt2 := QuickRunOptions()
	opt2.Seed = opt.Seed + 1
	opt2.JournalDir = dir
	opt2.CellHook = func(bench, design string) { executed++ }
	opt2.Workers = 1 // serial so the plain counter needs no lock
	f, err := Fig6With(suite, list, opt2)
	if err != nil {
		t.Fatal(err)
	}
	if f.Journal.Hits != 0 {
		t.Errorf("seed change must invalidate the journal: %d hits", f.Journal.Hits)
	}
	if f.Journal.SkippedSegments == 0 {
		t.Error("the other seed's segment should be skipped as foreign")
	}
	if executed != fig6Designs {
		t.Errorf("executed %d cells, want %d (no journal reuse)", executed, fig6Designs)
	}
}

// TestFig9ResumeMergesBitIdentically is the multicore counterpart:
// journal at Workers=8 with two designs poisoned, resume at Workers=1 in
// shuffled design order with the journaled designs poisoned, deep-equal
// against a fresh uninterrupted run.
func TestFig9ResumeMergesBitIdentically(t *testing.T) {
	suite, err := config.Derive(tech.N22())
	if err != nil {
		t.Fatal(err)
	}
	list := workloadSubset(t, []string{"Blackscholes"})
	opt := multicore.Options{TotalInstrs: 40_000, WarmupPerCore: 3_000, Phases: 2, Seed: 7}
	ref, err := Fig9With(suite, list, opt)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	poisoned := map[string]bool{config.MCHet.String(): true, config.MCBase.String(): true}

	p1 := opt
	p1.JournalDir = dir
	p1.Workers = 8
	p1.KeepGoing = true
	p1.CellHook = func(bench, design string) {
		if poisoned[design] {
			panic("injected: " + bench + "/" + design)
		}
	}
	f1, err := Fig9With(suite, list, p1)
	if err != nil {
		t.Fatalf("phase 1 keep-going sweep must complete: %v", err)
	}
	nd := len(config.MulticoreDesigns())
	if got, want := f1.FailedCells(), len(poisoned); got != want {
		t.Fatalf("phase 1 failed cells = %d, want %d", got, want)
	}
	if got, want := f1.Journal.Appends, nd-len(poisoned); got != want {
		t.Fatalf("phase 1 journal appends = %d, want %d", got, want)
	}

	shuffled := []config.MulticoreDesign{config.MCHet2X, config.MCHetW, config.MCHet, config.MCTSV3D, config.MCBase}
	p2 := opt
	p2.JournalDir = dir
	p2.Workers = 1
	p2.CellHook = func(bench, design string) {
		if !poisoned[design] {
			panic("journaled cell " + bench + "/" + design + " was re-executed")
		}
	}
	f2, err := Fig9WithDesigns(suite, list, shuffled, p2)
	if err != nil {
		t.Fatalf("phase 2 resume must complete without re-executing journaled cells: %v", err)
	}
	if got, want := f2.Journal.Hits, nd-len(poisoned); got != want {
		t.Errorf("phase 2 journal hits = %d, want %d", got, want)
	}
	if got, want := f2.Journal.Appends, len(poisoned); got != want {
		t.Errorf("phase 2 journal appends = %d, want %d", got, want)
	}
	if !reflect.DeepEqual(f2.Runs, ref.Runs) {
		t.Error("resumed Runs differ from the uninterrupted reference")
	}
	if !reflect.DeepEqual(f2.Speedup, ref.Speedup) {
		t.Error("resumed Speedup differs from the uninterrupted reference")
	}
	if !reflect.DeepEqual(f2.NormEnergy, ref.NormEnergy) {
		t.Error("resumed NormEnergy differs from the uninterrupted reference")
	}
}

// TestLPStudyResumeServedFromJournal journals a complete LP study, then
// re-runs it with every cell poisoned: the second run must be served
// entirely from the journal and match the first bit for bit.
func TestLPStudyResumeServedFromJournal(t *testing.T) {
	suite, err := config.Derive(tech.N22())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	opt := QuickRunOptions()
	opt.JournalDir = dir
	first, err := LPStudy(suite, []string{"Gamess", "Mcf"}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if first.Journal.Appends == 0 {
		t.Fatal("first run should checkpoint its cells")
	}

	opt2 := QuickRunOptions()
	opt2.JournalDir = dir
	opt2.CellHook = func(bench, design string) {
		panic("journaled LP cell " + bench + "/" + design + " was re-executed")
	}
	second, err := LPStudy(suite, []string{"Gamess", "Mcf"}, opt2)
	if err != nil {
		t.Fatalf("fully journaled LP study must execute nothing: %v", err)
	}
	if second.Journal.Appends != 0 {
		t.Errorf("second run appends = %d, want 0", second.Journal.Appends)
	}
	if got, want := second.Journal.Hits, first.Journal.Appends; got != want {
		t.Errorf("second run hits = %d, want %d", got, want)
	}
	if !reflect.DeepEqual(first.HetEnergy, second.HetEnergy) ||
		!reflect.DeepEqual(first.LPEnergy, second.LPEnergy) ||
		first.ExtraSavingPP != second.ExtraSavingPP {
		t.Error("journaled LP study differs from the original run")
	}
}

// TestTablesJournaledResume journals the analytic partition tables and
// re-runs them from the same directory: rows must be bit-identical, and
// reopening the journal under the same identity must show every cell on
// disk (the witness that the re-run had a full checkpoint to merge).
func TestTablesJournaledResume(t *testing.T) {
	t.Run("strategy", func(t *testing.T) {
		dir := t.TempDir()
		ctx := context.Background()
		first, _, err := StrategyTable(sweep.Env{Context: ctx, JournalDir: dir}, sram.BitPart)
		if err != nil {
			t.Fatal(err)
		}
		second, _, err := StrategyTable(sweep.Env{Context: ctx, JournalDir: dir}, sram.BitPart)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, second) {
			t.Error("journaled StrategyTable rows changed across a resume")
		}
		n := tech.N22()
		jn, err := journal.Open(dir, journal.Identity{
			Experiment: "strategy",
			Params:     journal.Params("strategy", sram.BitPart.String(), "node", n.Name),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer jn.Close()
		if jn.Stats().Records == 0 {
			t.Error("strategy journal holds no records")
		}
	})
	t.Run("table6", func(t *testing.T) {
		dir := t.TempDir()
		ctx := context.Background()
		m1, t1, _, err := Table6(sweep.Env{Context: ctx, JournalDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		m2, t2, _, err := Table6(sweep.Env{Context: ctx, JournalDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(m1, m2) || !reflect.DeepEqual(t1, t2) {
			t.Error("journaled Table6 choices changed across a resume")
		}
	})
}
