package uarch

import (
	"errors"
	"fmt"
	"math"

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

// streamPos returns the warmer's logical stream position — the number of
// trace instructions consumed, exclusive of batched-ahead buffer entries,
// which belong to the stream's future — when the source is a replayer.
// Streams without random access (generators) report ok=false.
func (w *FunctionalWarmer) streamPos() (pos uint64, ok bool) {
	rp, ok := w.src.(*trace.Replayer)
	if !ok {
		return 0, false
	}
	return uint64(rp.Pos() - (len(w.buf) - w.pos)), true
}

// Snapshot captures the warmer's functional state at its current logical
// stream position: predictor, store ring, fetch line and miss-run flag,
// plus the memory hierarchy when the warmer probes a single-core one (a
// multicore backend is captured separately, once for all its cores). It
// requires a replayer-backed stream, so the position can be restored.
func (w *FunctionalWarmer) Snapshot() (*WarmState, error) {
	pos, ok := w.streamPos()
	if !ok {
		return nil, errors.New("uarch: warm snapshot requires a replayer-backed stream")
	}
	s := &WarmState{Core: CoreWarmState{
		Pos:         pos,
		Pred:        w.pred.State(),
		StoreAddrs:  append([]uint64(nil), w.stAddrs...),
		StoreHead:   w.stHead,
		StoreCounts: w.stCounts,
		CurLine:     w.curLine,
		DataMissRun: w.dataMissRun,
	}}
	if w.hier != nil {
		s.Mem = w.hier.State()
	}
	return s, nil
}

// Restore replaces the warmer's functional state with a snapshot taken by
// Snapshot and repositions the replayer at the snapshot's stream position.
// Every part is validated before anything is mutated: the stream must be a
// replayer, the snapshot must carry a hierarchy exactly when the warmer has
// one, its position must be seekable, and the store ring, predictor and
// cache geometries must match. The
// snapshot is copied in (copy-on-restore) and never retained.
func (w *FunctionalWarmer) Restore(s *WarmState) error {
	rp, ok := w.src.(*trace.Replayer)
	if !ok {
		return errors.New("uarch: warm restore requires a replayer-backed stream")
	}
	if (s.Mem != nil) != (w.hier != nil) {
		return fmt.Errorf("uarch: snapshot carries a hierarchy (%t) but the warmer probes one (%t)",
			s.Mem != nil, w.hier != nil)
	}
	cs := &s.Core
	if cs.Pos > math.MaxInt {
		return fmt.Errorf("uarch: snapshot stream position %d is out of range", cs.Pos)
	}
	if len(cs.StoreAddrs) != len(w.stAddrs) || cs.StoreHead < 0 || cs.StoreHead >= len(w.stAddrs) {
		return fmt.Errorf("uarch: snapshot store ring (size %d, head %d) does not match size %d",
			len(cs.StoreAddrs), cs.StoreHead, len(w.stAddrs))
	}
	if err := w.pred.compatibleState(&cs.Pred); err != nil {
		return err
	}
	if w.hier != nil {
		// SetState validates every level before it mutates any, and it is
		// the last check: nothing below can fail.
		if err := w.hier.SetState(s.Mem); err != nil {
			return err
		}
	}
	w.pred.applyState(&cs.Pred)
	copy(w.stAddrs, cs.StoreAddrs)
	w.stHead = cs.StoreHead
	w.stCounts = cs.StoreCounts
	w.curLine = cs.CurLine
	w.dataMissRun = cs.DataMissRun
	w.buf = w.buf[:0]
	w.pos = 0
	rp.Seek(int(cs.Pos))
	return nil
}

// SnapshotWarm captures the core's functional state (Snapshot) at its
// current stream position, handing the detailed frontend's miss-run flag
// to the warmer first. A tape-fed core has no functional state to capture.
func (c *Core) SnapshotWarm() (*WarmState, error) {
	if c.fwd == nil {
		return nil, errors.New("uarch: a tape-fed core has no warm state")
	}
	return c.warmer().Snapshot()
}

// RestoreWarm restores a snapshot into this core (Restore) and discards
// in-flight pipeline state. On success the core stands at the snapshot's
// stream position with an empty pipeline, exactly as if it had
// fast-forwarded there itself; timing state — clock, Stats, fetch gate —
// is preserved, as a plain FastForward would preserve it. A refused
// snapshot leaves the core untouched.
func (c *Core) RestoreWarm(s *WarmState) error {
	if c.fwd == nil {
		return errors.New("uarch: a tape-fed core has no warm state")
	}
	if err := c.fwd.Restore(s); err != nil {
		return err
	}
	c.resetPipeline()
	c.dataMissRun = c.fwd.dataMissRun
	return nil
}

// StreamPos returns the core's logical stream position — the number of
// trace instructions consumed by fetch or fast-forward, exclusive of
// batched-ahead buffer entries — when the source is a replayer. Streams
// without random access (generators) and tape-fed cores report ok=false.
func (c *Core) StreamPos() (pos uint64, ok bool) {
	if c.fwd == nil {
		return 0, false
	}
	return c.fwd.streamPos()
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

// FillLatencies returns this design's three per-level fill prices (extra
// cycles for an L2 hit, an L3 hit, and a DRAM fill) when classification is
// supported. A snapshot binding prices the design-independent fill counts
// of a skipped stretch with these values to reconstruct the exact
// ExtraFetch/ExtraData sums this cell's own warming would have produced.
func (c *Core) FillLatencies() (l2, l3, dram int, ok bool) {
	if c.fwd == nil || !c.fwd.fillsOK {
		return 0, 0, 0, false
	}
	l2, l3, dram = c.fwd.hier.FillLatencies()
	return l2, l3, dram, true
}
