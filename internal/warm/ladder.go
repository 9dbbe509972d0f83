// The snapshot ladder and the per-cell binding that consumes it.
//
// A Ladder owns one standalone FunctionalWarmer (the "builder") per
// identity. The builder advances monotonically through the shared
// recording; rungs are materialised lazily, only at the stride-quantised
// boundaries (stride = Interval/32) that cells actually request — a full
// snapshot costs milliseconds of fresh allocation, so the builder warms
// straight through unrequested grid points. Each rung records the
// cumulative design-independent observables from position zero, so a
// cell restoring rung k can credit the skipped stretch exactly. Rungs
// are built at most once while the ladder is resident (for as long as a
// sweep holds it) and — with -warm-dir — at most once across runs.
// Quantising rung positions to the grid (rather than to raw request
// targets) keeps them shared across designs whose fast-forward targets
// jitter by less than a stride.
//
// A Binding hooks one cell's Core.FastForward: it tracks the cell's
// cumulative observables at its current stream position (detailed
// stretches via StreamCounters deltas, local warms via PeekWarmObs
// deltas), asks the ladder for the deepest rung at or below each
// fast-forward target, restores it, credits the skipped observables
// repriced with the cell's own fill latencies, and warms the residual
// locally. A cell whose restore is refused falls back to warming the full
// distance itself — the cache can only ever be a shortcut, never a
// correctness dependency.
package warm

import (
	"errors"
	"path/filepath"
	"sync"

	"vertical3d/internal/config"
	"vertical3d/internal/mem"
	"vertical3d/internal/trace"
	"vertical3d/internal/uarch"
)

// Checkpoint is one ladder rung: the builder's full functional state at
// stream position Pos, plus the cumulative design-independent observables
// of positions [0, Pos). The State pointer is shared by every cell that
// restores the rung — safe because Core.RestoreWarm copies everything in
// and never retains the snapshot.
type Checkpoint struct {
	Pos   uint64
	Cum   uarch.WarmObs
	State *uarch.WarmState
}

// Ladder is the per-identity checkpoint ladder. All mutable state is
// guarded by mu; concurrent cells requesting overlapping stretches
// serialise on it, so each rung is built exactly once.
type Ladder struct {
	id     Identity
	cfg    config.Config
	stride uint64

	mu         sync.Mutex
	err        error // sticky builder-construction failure; ladder disabled
	builder    *uarch.FunctionalWarmer
	cum        uarch.WarmObs // builder observables accumulated at builderPos
	builderPos uint64        // stream position the builder currently sits at
	ckpts      map[uint64]*Checkpoint
}

// Shared returns the shared ladder for an identity, creating it
// single-flight on first use. Only cfg's geometry matters (it must match
// id.Geom); the first caller's config becomes the builder's canonical
// config, and per-design latencies are never baked into shared state.
func Shared(id Identity, cfg config.Config) *Ladder {
	lad, _ := ladders.Do(id, func() *Ladder {
		stride := id.Sample.Interval / 32
		if stride == 0 {
			stride = 1
		}
		return &Ladder{
			id:     id,
			cfg:    cfg,
			stride: stride,
			ckpts:  make(map[uint64]*Checkpoint),
		}
	})
	return lad
}

// newBuilder constructs a standalone warmer over the shared recording,
// positioned at stream position zero.
func (l *Ladder) newBuilder() (*uarch.FunctionalWarmer, error) {
	rec := trace.SharedRecording(l.id.Prof, l.id.Seed, l.id.Stream, 0)
	h, err := mem.NewHierarchy(l.cfg)
	if err != nil {
		return nil, err
	}
	w, err := uarch.NewFunctionalWarmer(0, l.cfg, trace.NewReplayer(rec), h)
	if err != nil {
		return nil, err
	}
	if !w.FillsSupported() {
		return nil, errors.New("warm: geometry does not support fill classification")
	}
	return w, nil
}

// initBuilder constructs the ladder's builder on first use. Called under
// mu; failure is sticky and disables the ladder (cells then warm locally,
// exactly as if the cache did not exist).
func (l *Ladder) initBuilder() error {
	if l.builder != nil || l.err != nil {
		return l.err
	}
	w, err := l.newBuilder()
	if err != nil {
		l.err = err
		return err
	}
	l.builder = w
	return nil
}

// checkpoint returns the rung at the stride-quantised boundary of q,
// materialising it on first request; nil means the cache cannot help
// this stretch (target below the first boundary, or the builder is
// unavailable) and the cell should warm [p, q) itself.
//
// A boundary the builder has already passed (a design whose targets
// straddle a different grid point) is retro-filled: the builder restores
// onto the deepest stored rung at or below it — Restore repositions the
// replayer, so the builder can rewind — and warms the short remainder.
// Every grid point ever requested therefore ends up materialised, and
// later cells skip their full stretch regardless of request order.
func (l *Ladder) checkpoint(p, q uint64) *Checkpoint {
	b := q - q%l.stride
	if b == 0 || b <= p {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if ck, ok := l.ckpts[b]; ok {
		counters.hits.Add(1)
		return ck
	}
	if l.initBuilder() != nil {
		return nil
	}
	counters.misses.Add(1)
	ck := l.loadDisk(b)
	if ck != nil {
		// Adopt the persisted rung: teleport the builder onto it so
		// later rungs extend from there instead of re-warming.
		if err := l.builder.Restore(ck.State); err != nil {
			counters.loadErrors.Add(1)
			ck = nil
		} else {
			l.cum = ck.Cum
			l.builderPos = b
		}
	}
	if ck == nil {
		// Position the builder at the deepest known point at or below b:
		// the deepest stored rung if it beats the builder's own position
		// (or if the builder must rewind), else where the builder sits.
		var base *Checkpoint
		for pos, c := range l.ckpts {
			if pos <= b && (base == nil || pos > base.Pos) {
				base = c
			}
		}
		switch {
		case base != nil && (l.builderPos > b || base.Pos > l.builderPos):
			if err := l.builder.Restore(base.State); err != nil {
				l.err = err
				return nil
			}
			l.cum = base.Cum
			l.builderPos = base.Pos
		case base == nil && l.builderPos > b:
			// Rewind below every stored rung: start over from position
			// zero with a fresh warmer.
			w, err := l.newBuilder()
			if err != nil {
				l.err = err
				return nil
			}
			l.builder = w
			l.cum = uarch.WarmObs{}
			l.builderPos = 0
		}
		if hook := getBuildHook(); hook != nil {
			hook(l.id, l.builderPos, b)
		}
		l.builder.Warm(b - l.builderPos)
		counters.builtInstrs.Add(b - l.builderPos)
		l.cum = l.cum.Add(l.builder.TakeObs())
		st, err := l.builder.Snapshot()
		if err != nil {
			l.err = err
			return nil
		}
		ck = &Checkpoint{Pos: b, Cum: l.cum, State: st}
		l.saveDisk(ck)
	}
	l.ckpts[b] = ck
	l.builderPos = b
	return ck
}

// loadDisk tries to read rung pos from the cache directory. Corrupt or
// foreign files are quarantined and counted; an absent file or disabled
// disk layer is silent.
func (l *Ladder) loadDisk(pos uint64) *Checkpoint {
	dir := CacheDir()
	if dir == "" {
		return nil
	}
	path := filepath.Join(dir, ladderFileName(l.id, pos))
	var st uarch.WarmState
	hdr, err := loadSnapshot(path, &st)
	switch {
	case err == nil && hdr.Kind == kindLadder && hdr.Ladder != nil && *hdr.Ladder == l.id && hdr.Pos == pos:
		counters.fileLoads.Add(1)
		return &Checkpoint{Pos: pos, Cum: hdr.Cum, State: &st}
	case err == nil:
		// Readable but wrong identity under our canonical name.
		counters.loadErrors.Add(1)
		quarantine(path)
	case errors.Is(err, ErrCorrupt):
		counters.loadErrors.Add(1)
		quarantine(path)
	case fsNotExist(err):
		// Cold cache; nothing to count.
	default:
		counters.loadErrors.Add(1)
	}
	return nil
}

// saveDisk persists a freshly built rung (best-effort: a failed save
// degrades to rebuild-next-run, counted for the Health block).
func (l *Ladder) saveDisk(ck *Checkpoint) {
	dir := CacheDir()
	if dir == "" {
		return
	}
	id := l.id
	hdr := fileHeader{Kind: kindLadder, Pos: ck.Pos, Cum: ck.Cum, Ladder: &id}
	if err := saveSnapshot(filepath.Join(dir, ladderFileName(l.id, ck.Pos)), hdr, ck.State); err != nil {
		counters.saveErrors.Add(1)
	}
}

// Binding connects one sweep cell's core to its identity's ladder via the
// Core.SetFastForward hook. It is single-goroutine state, like the core.
type Binding struct {
	c   *uarch.Core
	lad *Ladder

	cum  uarch.WarmObs // cell observables accumulated from position zero
	mark uarch.WarmObs // StreamCounters value already folded into cum

	e2, e3, ed uint64 // this design's fill prices
}

// Bind installs a snapshot binding on a freshly constructed core whose
// stream is a replayer. It must be called before the core simulates
// anything (the binding assumes zero accumulated observables), and the
// core must support fill classification — otherwise an error is returned
// and the core keeps its plain local fast-forward.
func Bind(c *uarch.Core, rp *trace.Replayer, cfg config.Config, sp uarch.SampleParams) (*Binding, error) {
	if c == nil || rp == nil {
		return nil, errors.New("warm: nil core or replayer")
	}
	e2, e3, ed, ok := c.FillLatencies()
	if !ok {
		return nil, errors.New("warm: core geometry does not support fill classification")
	}
	if _, ok := c.StreamPos(); !ok {
		return nil, errors.New("warm: core stream is not a replayer")
	}
	rec := rp.Recording()
	id := Identity{
		Prof:   rec.Profile(),
		Seed:   rec.Seed(),
		Stream: rec.Stream(),
		Sample: sp,
		Geom:   GeometryOf(cfg),
	}
	b := &Binding{
		c:   c,
		lad: Shared(id, cfg),
		e2:  uint64(e2),
		e3:  uint64(e3),
		ed:  uint64(ed),
	}
	c.SetFastForward(b.fastForward)
	return b, nil
}

// price overwrites a skipped stretch's extra-latency sums with the exact
// values this cell's own warming would have produced: the
// design-independent per-level fill counts priced at this design's fill
// latencies. (The builder's own Extra sums are priced at the canonical
// config and are meaningless to other designs.)
func (b *Binding) price(o *uarch.WarmObs) {
	o.ExtraFetch = o.FetchFills[0]*b.e2 + o.FetchFills[1]*b.e3 + o.FetchFills[2]*b.ed
	o.ExtraData = o.DataFills[0]*b.e2 + o.DataFills[1]*b.e3 + o.DataFills[2]*b.ed
}

// fastForward is the Core.FastForward hook: account the detailed stretch
// since the previous call, restore the deepest usable rung, credit the
// skipped observables, and warm the residual locally. Falls back to plain
// local warming whenever the ladder cannot help.
func (b *Binding) fastForward(n uint64) {
	c := b.c

	// Fold the detailed stretch since the last fast-forward into the
	// cell's cumulative position record. Fast-forwards never move these
	// counters, so the delta is exactly the detailed stretch.
	sc := c.StreamCounters()
	b.cum = b.cum.Add(sc.Sub(b.mark))
	b.mark = sc

	p, ok := c.StreamPos()
	if !ok {
		c.FastForwardLocal(n)
		return
	}
	q := p + n
	if ck := b.lad.checkpoint(p, q); ck != nil && ck.Pos > p {
		// Restore BEFORE crediting observables, so a refused restore
		// leaves no phantom observables behind.
		if err := c.RestoreWarm(ck.State); err == nil {
			skip := ck.Cum.Sub(b.cum)
			b.price(&skip)
			c.AddWarmObs(skip)
			counters.skippedInstrs.Add(ck.Pos - p)
			b.cum = ck.Cum
			p = ck.Pos
		} else {
			counters.restoreErrors.Add(1)
		}
	}
	// Warm the residual locally — always called (even for a zero
	// residual) so the pipeline reset matches an unbound fast-forward
	// exactly.
	before := c.PeekWarmObs()
	c.FastForwardLocal(q - p)
	b.cum = b.cum.Add(c.PeekWarmObs().Sub(before))
}
