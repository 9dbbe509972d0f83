package uarch

import (
	"errors"
	"fmt"
	"math"

	"vertical3d/internal/trace"
)

// This file is the uarch half of the multicore warm-state snapshot (the
// cache, the memory half and the on-disk format live in internal/warm and
// internal/mem). A core's part of a snapshot captures what its functional
// warmup computes outside the memory system — predictor tables, the
// store-forwarding ring, the fetch-line register and the miss-run flag — at
// a known stream position, so a sweep warms each multicore identity once
// and every other cell restores instead of re-simulating. All snapshot
// state is deep-copied on capture and on restore: concurrently running
// cells never alias a shared snapshot's slices.

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
// core outside the memory system: predictor tables, the store-forwarding
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

// warmCapable returns the core's warmer and its replayer when the core's
// warm state can be captured and restored: an inline core over a
// replayer-backed stream (so the position can be restored) whose memory is
// a shared backend captured separately. A core probing a single-core
// hierarchy of its own keeps cache state no CoreWarmState carries, and a
// tape-fed core has no functional state at all.
func (c *Core) warmCapable() (*FunctionalWarmer, *trace.Replayer, error) {
	w := c.fwd
	if w == nil {
		return nil, nil, errors.New("uarch: a tape-fed core has no warm state")
	}
	if w.hier != nil {
		return nil, nil, errors.New("uarch: a core with a single-core hierarchy of its own has no separable warm state")
	}
	rp, ok := w.src.(*trace.Replayer)
	if !ok {
		return nil, nil, errors.New("uarch: warm state requires a replayer-backed stream")
	}
	return w, rp, nil
}

// SnapshotWarm captures the core's functional state at its current logical
// stream position, handing the detailed frontend's miss-run flag over
// first. See warmCapable for the cores that have one.
func (c *Core) SnapshotWarm() (CoreWarmState, error) {
	w, _, err := c.warmCapable()
	if err != nil {
		return CoreWarmState{}, err
	}
	pos, _ := w.streamPos()
	return CoreWarmState{
		Pos:         pos,
		Pred:        w.pred.State(),
		StoreAddrs:  append([]uint64(nil), w.stAddrs...),
		StoreHead:   w.stHead,
		StoreCounts: w.stCounts,
		CurLine:     w.curLine,
		DataMissRun: c.dataMissRun,
	}, nil
}

// CheckWarm reports why RestoreWarm would refuse s, without touching the
// core: a core without warm state (warmCapable), a position the replayer
// cannot seek to, or a store ring or predictor of another geometry. A
// caller restoring several parts validates them all before it mutates any.
func (c *Core) CheckWarm(s *CoreWarmState) error {
	w, _, err := c.warmCapable()
	if err != nil {
		return err
	}
	if s.Pos > math.MaxInt {
		return fmt.Errorf("uarch: snapshot stream position %d is out of range", s.Pos)
	}
	if len(s.StoreAddrs) != len(w.stAddrs) || s.StoreHead < 0 || s.StoreHead >= len(w.stAddrs) {
		return fmt.Errorf("uarch: snapshot store ring (size %d, head %d) does not match size %d",
			len(s.StoreAddrs), s.StoreHead, len(w.stAddrs))
	}
	return w.pred.compatibleState(&s.Pred)
}

// RestoreWarm restores a snapshot taken by SnapshotWarm, repositions the
// replayer at its stream position and discards in-flight pipeline state.
// On success the core stands at the snapshot's stream position with an
// empty pipeline, exactly as if it had fast-forwarded there itself; timing
// state — clock, Stats, fetch gate — is preserved, as a plain FastForward
// would preserve it. The snapshot is copied in and never retained, and a
// refused one (CheckWarm) leaves the core untouched.
func (c *Core) RestoreWarm(s *CoreWarmState) error {
	if err := c.CheckWarm(s); err != nil {
		return err
	}
	w, rp, _ := c.warmCapable()
	w.pred.applyState(&s.Pred)
	copy(w.stAddrs, s.StoreAddrs)
	w.stHead = s.StoreHead
	w.stCounts = s.StoreCounts
	w.curLine = s.CurLine
	w.buf = w.buf[:0]
	w.pos = 0
	rp.Seek(int(s.Pos))
	c.resetPipeline()
	c.dataMissRun = s.DataMissRun
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
