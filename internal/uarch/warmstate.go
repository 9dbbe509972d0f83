package uarch

import (
	"errors"
	"fmt"

	"vertical3d/internal/mem"
	"vertical3d/internal/trace"
)

// This file is the uarch half of the warm-state snapshot layer (the cache
// and on-disk format live in internal/warm). A snapshot captures everything
// the fast-forward phase of sampled simulation computes — cache lanes,
// predictor tables, the store-forwarding ring, the fetch-line register and
// the miss-run flag — at a known stream position, so a sweep warms each
// (profile, seed, stream, geometry) identity once and every other cell
// restores instead of re-simulating. All snapshot state is deep-copied on
// capture and on restore: concurrently running cells never alias a shared
// snapshot's slices.

// PredictorState is a deep copy of a Predictor's trainable state. The
// derived index masks and way counts are excluded — they are geometry, and
// restore validates them by table length instead.
type PredictorState struct {
	Selector []uint8
	Local    []uint8
	LocalHis []uint16
	Global   []uint8
	GHR      uint32

	BTBTags    []uint64
	BTBTargets []uint64

	Stats PredictorStats
}

// State returns a deep copy of the predictor's trainable state.
func (p *Predictor) State() PredictorState {
	return PredictorState{
		Selector:   append([]uint8(nil), p.selector...),
		Local:      append([]uint8(nil), p.local...),
		LocalHis:   append([]uint16(nil), p.localHis...),
		Global:     append([]uint8(nil), p.global...),
		GHR:        p.ghr,
		BTBTags:    append([]uint64(nil), p.btbTags...),
		BTBTargets: append([]uint64(nil), p.btbTargets...),
		Stats:      p.Stats,
	}
}

// compatibleState reports whether the snapshot was captured from a
// predictor of this geometry.
func (p *Predictor) compatibleState(s *PredictorState) error {
	if len(s.Selector) != len(p.selector) || len(s.Local) != len(p.local) ||
		len(s.LocalHis) != len(p.localHis) || len(s.Global) != len(p.global) ||
		len(s.BTBTags) != len(p.btbTags) || len(s.BTBTargets) != len(p.btbTargets) {
		return fmt.Errorf("uarch: predictor snapshot geometry (%d-entry tables, %d-entry BTB) does not match (%d, %d)",
			len(s.Selector), len(s.BTBTags), len(p.selector), len(p.btbTags))
	}
	return nil
}

// applyState copies the snapshot into the predictor's own tables. The
// caller has already verified compatibility.
func (p *Predictor) applyState(s *PredictorState) {
	copy(p.selector, s.Selector)
	copy(p.local, s.Local)
	copy(p.localHis, s.LocalHis)
	copy(p.global, s.Global)
	p.ghr = s.GHR
	copy(p.btbTags, s.BTBTags)
	copy(p.btbTargets, s.BTBTargets)
	p.Stats = s.Stats
}

// SetState restores a snapshot taken by State, copying into the predictor's
// existing tables. A geometry mismatch is rejected before any mutation.
func (p *Predictor) SetState(s *PredictorState) error {
	if err := p.compatibleState(s); err != nil {
		return err
	}
	p.applyState(s)
	return nil
}

// CoreWarmState is the functional, stream-position-dependent state of one
// core outside the memory hierarchy: predictor tables, the store-forwarding
// ring and its counting filter, the current fetch line and the data
// miss-run flag, plus the stream position it was captured at. It carries no
// timing state (clock, Stats, fetch gate) — those are cell-local and evolve
// identically whether a stretch was warmed or restored.
type CoreWarmState struct {
	Pos uint64

	Pred PredictorState

	StoreAddrs  []uint64
	StoreHead   int
	StoreCounts [256]uint8

	CurLine     uint64
	DataMissRun bool
}

// WarmState pairs a core's functional state with its single-core memory
// hierarchy — the full content of one fast-forward checkpoint.
type WarmState struct {
	Core CoreWarmState
	Mem  *mem.HierState
}

// FillsSupported reports whether this warmer classifies misses by fill
// level — a ladder builder without it could not serve design-independent
// fill counts and is rejected at construction (see internal/warm).
func (w *FunctionalWarmer) FillsSupported() bool { return w.fillsOK }

// Snapshot captures the warmer's full functional state at its current
// logical stream position. It requires a replayer-backed warmer over a
// single-core hierarchy — the standalone builder configuration the snapshot
// cache uses (see internal/warm).
func (w *FunctionalWarmer) Snapshot() (*WarmState, error) {
	rp, ok := w.src.(*trace.Replayer)
	if !ok {
		return nil, errors.New("uarch: warm snapshot requires a replayer-backed stream")
	}
	if w.hier == nil {
		return nil, errors.New("uarch: warm snapshot requires a single-core hierarchy")
	}
	// Instructions batched into buf past pos belong to the stream's future:
	// the logical position is the replayer position minus that lookahead.
	buffered := len(w.buf) - w.pos
	return &WarmState{
		Core: CoreWarmState{
			Pos:         uint64(rp.Pos() - buffered),
			Pred:        w.pred.State(),
			StoreAddrs:  append([]uint64(nil), w.stAddrs...),
			StoreHead:   w.stHead,
			StoreCounts: w.stCounts,
			CurLine:     w.curLine,
			DataMissRun: w.dataMissRun,
		},
		Mem: w.hier.State(),
	}, nil
}

// Restore replaces the warmer's functional state with a snapshot taken by
// Snapshot and repositions the replayer at the snapshot's stream position.
// Everything is copied in (copy-on-restore); a geometry mismatch on any
// component is rejected before any mutation.
func (w *FunctionalWarmer) Restore(s *WarmState) error {
	rp, ok := w.src.(*trace.Replayer)
	if !ok {
		return errors.New("uarch: warm restore requires a replayer-backed stream")
	}
	if w.hier == nil {
		return errors.New("uarch: warm restore requires a single-core hierarchy")
	}
	if len(s.Core.StoreAddrs) != len(w.stAddrs) {
		return fmt.Errorf("uarch: snapshot store ring size %d does not match %d",
			len(s.Core.StoreAddrs), len(w.stAddrs))
	}
	if err := w.pred.compatibleState(&s.Core.Pred); err != nil {
		return err
	}
	if err := w.hier.SetState(s.Mem); err != nil {
		return err
	}
	w.pred.applyState(&s.Core.Pred)
	copy(w.stAddrs, s.Core.StoreAddrs)
	w.stHead = s.Core.StoreHead
	w.stCounts = s.Core.StoreCounts
	w.curLine = s.Core.CurLine
	w.dataMissRun = s.Core.DataMissRun
	w.buf = w.buf[:0]
	w.pos = 0
	rp.Seek(int(s.Core.Pos))
	return nil
}

// replayer returns the core's stream when it is a replayer.
func (c *Core) replayer() (*trace.Replayer, bool) {
	if c.fwd == nil {
		return nil, false
	}
	rp, ok := c.fwd.src.(*trace.Replayer)
	return rp, ok
}

// hierarchy returns the core's memory backend when it is a single-core
// hierarchy.
func (c *Core) hierarchy() (*mem.Hierarchy, bool) {
	if c.fwd == nil || c.fwd.hier == nil {
		return nil, false
	}
	return c.fwd.hier, true
}

// StreamPos returns the core's logical stream position — the number of
// trace instructions consumed by fetch or fast-forward, exclusive of
// batched-ahead buffer entries — when the source is a replayer. Streams
// without random access (generators) report ok=false.
func (c *Core) StreamPos() (pos uint64, ok bool) {
	rp, ok := c.replayer()
	if !ok {
		return 0, false
	}
	return uint64(rp.Pos() - (len(c.fwd.buf) - c.fwd.pos)), true
}

// StreamCounters returns the cumulative functional observables of every
// trace instruction the DETAILED frontend has probed since construction, in
// WarmObs form. Because all hierarchy/predictor/forwarding probes happen in
// fetch exactly once per trace instruction, deltas of this value are the
// exact functional observables of any detailed stretch — how a snapshot
// binding accounts for the gaps between fast-forward calls. Wrong-path and
// squash-discarded instructions are included (Fetched counts them), which
// is precisely the probe population the warmer mirrors.
func (c *Core) StreamCounters() WarmObs {
	return WarmObs{
		Instrs:      c.Stats.Fetched,
		ExtraFetch:  c.Stats.MemExtraFetch,
		ExtraData:   c.Stats.MemExtraData,
		Mispredicts: c.Stats.PredSquashes,
		MissRuns:    c.Stats.MissRuns,
		LongOps:     c.Stats.KindCount[trace.Div] + c.Stats.KindCount[trace.FPDiv],
		FetchFills:  c.fetchFills,
		DataFills:   c.dataFills,
	}
}

// PeekWarmObs returns the warm observables accumulated since the last
// drain (RunSampled's takeWarmObs) without draining them.
func (c *Core) PeekWarmObs() WarmObs {
	if c.fwd == nil {
		return WarmObs{}
	}
	return c.fwd.obs
}

// AddWarmObs credits externally reconstructed fast-forward observables to
// the accumulator RunSampled drains — how a snapshot binding accounts for
// a stretch it restored past instead of warming.
func (c *Core) AddWarmObs(o WarmObs) {
	w := c.warmer()
	w.obs = w.obs.Add(o)
}

// SetFastForward installs a hook that intercepts FastForward; nil
// uninstalls it. The hook is responsible for advancing the stream by n
// instructions — typically by restoring a snapshot for a prefix and calling
// FastForwardLocal for the remainder (see internal/warm).
func (c *Core) SetFastForward(hook func(n uint64)) {
	c.ffHook = hook
}

// FillsSupported reports whether miss-level classification is active: the
// backend is a single-core hierarchy whose three fill latencies are
// positive and strictly increasing, so every miss's extra latency
// identifies its fill level unambiguously.
func (c *Core) FillsSupported() bool { return c.fillsOK }

// FillLatencies returns this design's three per-level fill prices (extra
// cycles for an L2 hit, an L3 hit, and a DRAM fill) when classification is
// supported. A snapshot binding prices the design-independent fill counts
// of a skipped stretch with these values to reconstruct the exact
// ExtraFetch/ExtraData sums this cell's own warming would have produced.
func (c *Core) FillLatencies() (l2, l3, dram int, ok bool) {
	h, hok := c.hierarchy()
	if !hok || !c.fillsOK {
		return 0, 0, 0, false
	}
	l2, l3, dram = h.FillLatencies()
	return l2, l3, dram, true
}

// snapshotCoreWarm captures the core-side functional state at the given
// stream position.
func (c *Core) snapshotCoreWarm(pos uint64) CoreWarmState {
	w := c.fwd
	return CoreWarmState{
		Pos:         pos,
		Pred:        w.pred.State(),
		StoreAddrs:  append([]uint64(nil), w.stAddrs...),
		StoreHead:   w.stHead,
		StoreCounts: w.stCounts,
		CurLine:     w.curLine,
		DataMissRun: c.dataMissRun,
	}
}

// SnapshotCoreWarm captures the core's functional state WITHOUT its memory
// backend — the multicore form, where the shared memory system is captured
// separately (mem.Multicore.State) and per-core state is paired with it.
func (c *Core) SnapshotCoreWarm() (*CoreWarmState, error) {
	pos, ok := c.StreamPos()
	if !ok {
		return nil, errors.New("uarch: warm snapshot requires a replayer-backed stream")
	}
	s := c.snapshotCoreWarm(pos)
	return &s, nil
}

// applyCoreWarm copies the validated core-side state in, discards in-flight
// pipeline state and repositions the stream. The caller has already
// validated ring size and predictor geometry.
func (c *Core) applyCoreWarm(s *CoreWarmState, rp *trace.Replayer) {
	c.resetPipeline()
	w := c.fwd
	w.pred.applyState(&s.Pred)
	copy(w.stAddrs, s.StoreAddrs)
	w.stHead = s.StoreHead
	w.stCounts = s.StoreCounts
	w.curLine = s.CurLine
	c.dataMissRun = s.DataMissRun
	w.buf = w.buf[:0]
	w.pos = 0
	rp.Seek(int(s.Pos))
}

// RestoreCoreWarm restores core-side functional state captured by
// SnapshotCoreWarm: pipeline reset, predictor and store ring copied in,
// prefill buffer dropped, replayer repositioned. The memory backend is the
// caller's responsibility (multicore restores it once for all cores).
// Timing state — clock, Stats, fetch gate — is preserved, exactly as a
// plain FastForward would preserve it.
func (c *Core) RestoreCoreWarm(s *CoreWarmState) error {
	rp, ok := c.replayer()
	if !ok {
		return errors.New("uarch: warm restore requires a replayer-backed stream")
	}
	if len(s.StoreAddrs) != len(c.fwd.stAddrs) {
		return fmt.Errorf("uarch: snapshot store ring size %d does not match %d",
			len(s.StoreAddrs), len(c.fwd.stAddrs))
	}
	if err := c.fwd.pred.compatibleState(&s.Pred); err != nil {
		return err
	}
	c.applyCoreWarm(s, rp)
	return nil
}

// SnapshotWarm captures the core's functional state AND its single-core
// hierarchy at the current stream position — the full equivalent of a
// builder checkpoint, taken from a live core.
func (c *Core) SnapshotWarm() (*WarmState, error) {
	h, ok := c.hierarchy()
	if !ok {
		return nil, errors.New("uarch: warm snapshot requires a single-core hierarchy")
	}
	pos, ok := c.StreamPos()
	if !ok {
		return nil, errors.New("uarch: warm snapshot requires a replayer-backed stream")
	}
	return &WarmState{Core: c.snapshotCoreWarm(pos), Mem: h.State()}, nil
}

// RestoreWarm restores a full checkpoint — hierarchy and core-side state —
// into this core, validating every component's geometry before mutating
// any. On success the core stands at the snapshot's stream position with an
// empty pipeline, exactly as if it had fast-forwarded there itself.
func (c *Core) RestoreWarm(s *WarmState) error {
	h, ok := c.hierarchy()
	if !ok {
		return errors.New("uarch: warm restore requires a single-core hierarchy")
	}
	rp, ok := c.replayer()
	if !ok {
		return errors.New("uarch: warm restore requires a replayer-backed stream")
	}
	if len(s.Core.StoreAddrs) != len(c.fwd.stAddrs) {
		return fmt.Errorf("uarch: snapshot store ring size %d does not match %d",
			len(s.Core.StoreAddrs), len(c.fwd.stAddrs))
	}
	if err := c.fwd.pred.compatibleState(&s.Core.Pred); err != nil {
		return err
	}
	if err := h.SetState(s.Mem); err != nil {
		return err
	}
	c.applyCoreWarm(&s.Core, rp)
	return nil
}
