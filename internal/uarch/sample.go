package uarch

import (
	"errors"
	"fmt"
	"math"

	"vertical3d/internal/guard"
	"vertical3d/internal/trace"
)

// This file implements SMARTS-style interval sampling on top of the
// detailed core. A sampled run walks the instruction stream in fixed-size
// intervals, each split into four phases with the measured window centred:
//
//	|-- fast-forward --|- warm -|- measure -|-- fast-forward --|
//	 functional:        detailed  detailed,   functional
//	 caches+predictor   (discard) counted
//
// Fast-forward skips the out-of-order backend entirely; the short detailed
// warm phase rebuilds the pipeline-local state (ROB occupancy, in-flight
// misses, rename map) that the warmer cannot maintain; the measure phase
// is ordinary detailed simulation whose Stats are kept. Because the
// frontend performs all cache/predictor probes in program order (see
// Core.fetch), the warmer's probe sequence is bit-identical to detailed
// execution's — fast-forwarding loses no hierarchy or predictor fidelity
// at all.
//
// Centring the window matters because cache state is not stationary: the
// hierarchy keeps warming secularly over millions of instructions, so a
// window pinned to an interval's left edge would systematically measure
// colder caches than the interval it stands for. With the window at the
// centre, the first-order secular drift cancels. Each fast-forwarded
// region is then priced with its own interval's window rates (cycles and
// retirements per fetched instruction — see estimateFF), which keeps the
// estimate locally adaptive without fitting anything. The whole scheme is
// bounded against full simulation by the CPI-error oracle in
// sample_test.go (≤ 2% on every profile, both kernels).

// SampleParams sizes the sampling intervals.
type SampleParams struct {
	// Interval is the stream distance in instructions from the start of
	// one measured window to the start of the next (fast-forward + warm +
	// measure). Larger intervals fast-forward more and run faster; smaller
	// intervals measure more often and track phase behaviour more closely.
	Interval uint64

	// Warmup is the detailed-simulation distance run (and discarded)
	// before each measured window to refill the pipeline.
	Warmup uint64

	// Unit is the measured-window length in instructions.
	Unit uint64
}

// DefaultSampleParams returns the calibrated defaults: 100k-instruction
// intervals, 1k detailed warm, 4k measured — a 5% detailed fraction that
// keeps every profile's CPI error under the 2% bound. The speedup it buys
// depends on the kernel's detailed/fast-forward cost ratio: ~8–18× on the
// reference kernel, ~3.5–10× on the event kernel (squash-heavy profiles at
// the low end of each band), and ~10–75× for replacing full reference
// cells with sampled event cells (BENCH_sample.json has the measured
// cells).
func DefaultSampleParams() SampleParams {
	return SampleParams{Interval: 100_000, Warmup: 1_000, Unit: 4_000}
}

// Validate checks the interval geometry: all three phases positive-length
// and the warm+measure portion strictly inside the interval (an interval
// equal to warm+measure would never fast-forward and merely add noise).
func (p SampleParams) Validate() error {
	c := guard.New("uarch.SampleParams")
	c.Check(p.Interval > 0, "Interval", "must be > 0, got %d", p.Interval)
	c.Check(p.Warmup > 0, "Warmup", "must be > 0, got %d", p.Warmup)
	c.Check(p.Unit > 0, "Unit", "must be > 0, got %d", p.Unit)
	c.Check(p.Warmup+p.Unit <= p.Interval,
		"Interval", "warm+unit (%d) must fit inside the interval (%d)", p.Warmup+p.Unit, p.Interval)
	return c.Err()
}

// String renders the params as the compact interval:warmup:unit tuple used
// in journal identities and logs.
func (p SampleParams) String() string {
	return fmt.Sprintf("%d:%d:%d", p.Interval, p.Warmup, p.Unit)
}

// SampleParamsFrom builds SampleParams from command-line flag values: zeros
// take the calibrated defaults, and the result is validated when sampling
// is enabled (disabled runs ignore the geometry, so partial overrides are
// not an error there).
func SampleParamsFrom(enabled bool, interval, warmup, unit uint64) (SampleParams, error) {
	p := DefaultSampleParams()
	if interval != 0 {
		p.Interval = interval
	}
	if warmup != 0 {
		p.Warmup = warmup
	}
	if unit != 0 {
		p.Unit = unit
	}
	if enabled {
		if err := p.Validate(); err != nil {
			return SampleParams{}, err
		}
	}
	return p, nil
}

// SampleResult reports what a sampled run actually simulated.
type SampleResult struct {
	// Measured is the Stats sum over the measured windows only (warm-phase
	// and fast-forwarded instructions excluded). Extrapolate scales it to
	// the full run length.
	Measured Stats

	// FastForwarded and DetailedWarm count the instructions spent in the
	// respective phases; Windows counts measured windows.
	FastForwarded uint64
	DetailedWarm  uint64
	Windows       int

	// Streamed is the total stream distance the run covered (the n passed
	// to RunSampled). EstCycles and EstInstrs are the estimated detailed
	// cycle and retired-instruction counts over it: exact measured-window
	// values plus each fast-forwarded region priced at its own interval's
	// window rates (see estimateFF). Extrapolate reports the
	// EstCycles/EstInstrs CPI instead of the globally ratio-scaled measured
	// one — per-interval pricing tracks the secular warming of the caches,
	// which a single global ratio would average away.
	Streamed  uint64
	EstCycles uint64
	EstInstrs uint64

	// WarmCycles is the detailed cycle count of the discarded warm phases
	// (reported for accounting; excluded from EstCycles along with the warm
	// retirements, so the pipeline-refill ramp does not bias the estimate).
	WarmCycles uint64
}

// MeasuredInstrs returns the instructions retired inside measured windows.
func (r SampleResult) MeasuredInstrs() uint64 { return r.Measured.Instrs }

// WarmCPI returns the CPI of the discarded detailed warm phases, or 0
// when the run had none.
func (r SampleResult) WarmCPI() float64 {
	if r.DetailedWarm == 0 {
		return 0
	}
	return float64(r.WarmCycles) / float64(r.DetailedWarm)
}

// MeasuredCPI returns the CPI over the measured windows, or 0 when
// nothing was measured.
func (r SampleResult) MeasuredCPI() float64 {
	if r.Measured.Instrs == 0 {
		return 0
	}
	return float64(r.Measured.Cycles) / float64(r.Measured.Instrs)
}

// OracleDeviation is the sampled run's built-in self-check: the relative
// deviation |warm − measured| / measured between the warm-phase CPI and
// the measured CPI. The warm phases replay the same stream regions under
// the same detailed model immediately before each window, so on a healthy
// run the two rates agree up to the pipeline-refill ramp the warm phase
// absorbs; a large deviation means the sampling geometry is not capturing
// this workload's phase behaviour and the caller should fall back to full
// simulation (see the experiments layer's SampleErrorBudget). Returns 0
// when either phase retired nothing.
func (r SampleResult) OracleDeviation() float64 {
	w, m := r.WarmCPI(), r.MeasuredCPI()
	if w == 0 || m == 0 {
		return 0
	}
	d := (w - m) / m
	if d < 0 {
		d = -d
	}
	return d
}

// RunSampled advances the core n retired instructions' worth of stream
// using interval sampling and returns the per-window measurement sum.
// onWindow, when non-nil, is invoked with begin=true just before each
// measured window starts and begin=false just after it ends, so the caller
// can snapshot external state (the memory hierarchy's counters) over
// exactly the measured cycles.
//
// Each interval fast-forwards half its budget, runs detailed warm+measure
// at the centre, then fast-forwards the rest. The fast-forward phase
// counts trace instructions while the detailed phases count retirements,
// and squashes make those differ (a full run retires fewer instructions
// than it fetches) — so fast-forward trace lengths are scaled by the
// measured retire/fetch ratio, with cumulative accounting: every
// fast-forward tops the total functional trace distance up to
// (retire-equivalents so far)/ratio, so early chunks issued before the
// first window's ratio was known are corrected by later ones. This keeps
// the sampled run's stream footprint aligned with a full Run(n)'s:
// without it, a squash-heavy workload's sampled run would cover barely
// half the stream and measure systematically colder caches. The final
// partial interval degrades gracefully: a tail shorter than a window is
// fast-forwarded, except that at least one full warm+measure window
// always runs.
func (c *Core) RunSampled(n uint64, sp SampleParams, onWindow func(begin bool)) (SampleResult, error) {
	if err := sp.Validate(); err != nil {
		return SampleResult{}, err
	}
	if c.fwd == nil {
		return SampleResult{}, errors.New("uarch: a tape-fed core cannot run sampled")
	}
	res := SampleResult{Streamed: n}
	var wins []winObs
	var ffs []ffChunk
	c.takeWarmObs() // discard observables of any caller-driven fast-forward
	detailed := sp.Warmup + sp.Unit
	ratio := 1.0 // measured retire/fetch ratio; 1 until the first window
	var ffRetireEq, ffTrace uint64
	fastForward := func(retireEq uint64, win int) {
		if retireEq == 0 {
			return
		}
		// Cumulative top-up: convert the total fast-forwarded
		// retire-equivalents to trace instructions at the current ratio and
		// issue the shortfall, so a stale ratio on earlier chunks is
		// corrected here rather than accumulating as footprint drift.
		ffRetireEq += retireEq
		target := uint64(math.Round(float64(ffRetireEq) / ratio))
		if target <= ffTrace {
			return
		}
		t := target - ffTrace
		ffTrace = target
		c.FastForward(t)
		ffs = append(ffs, ffChunk{obs: c.takeWarmObs(), win: win})
		res.FastForwarded += t
	}
	remaining := n
	for remaining > 0 {
		var warm, unit uint64
		switch {
		case remaining >= detailed:
			warm, unit = sp.Warmup, sp.Unit
		case res.Windows > 0:
			// Tail shorter than a window: fast-forward it (priced at the
			// last window's rates) and stop rather than emit a structurally
			// different (truncated) measurement.
			fastForward(remaining, res.Windows-1)
			remaining = 0
			continue
		default:
			// The whole run is shorter than one window: shrink the warm
			// phase so at least one instruction is measured.
			warm = min(sp.Warmup, remaining-1)
			unit = remaining - warm
		}
		span := min(sp.Interval, remaining)
		ffBudget := span - min(warm+unit, span)
		lead := ffBudget / 2

		// Leading fast-forward: place the measured window at the interval's
		// centre so the secular warming of the caches averages out instead
		// of biasing every window toward the interval's cold edge. The
		// chunk is priced at the upcoming window's rates.
		fastForward(lead, res.Windows)

		// Detailed warm: refill the pipeline after the fast-forward. Both
		// cycles and retirements are discarded from the estimate — the warm
		// phase absorbs the pipeline-refill ramp, whose above-steady-state
		// CPI would otherwise bias it.
		start := c.Stats
		c.Run(start.Instrs + warm)
		res.WarmCycles += c.Stats.Cycles - start.Cycles
		res.DetailedWarm += warm

		// Measured window.
		if onWindow != nil {
			onWindow(true)
		}
		before := c.Stats
		c.Run(c.Stats.Instrs + unit)
		d := c.Stats.Sub(before)
		res.Measured = res.Measured.Add(d)
		wins = append(wins, winObs{
			cycles:  float64(d.Cycles),
			instrs:  float64(d.Instrs),
			fetched: float64(max(d.Fetched, 1)),
			z:       statObs(d),
		})
		if onWindow != nil {
			onWindow(false)
		}
		res.Windows++
		ratio = float64(res.Measured.Instrs) / float64(max(res.Measured.Fetched, 1))
		ratio = min(max(ratio, 0.1), 1)

		// Trailing fast-forward, priced at the window just measured.
		fastForward(ffBudget-lead, res.Windows-1)
		remaining -= span
	}
	ffCycles, ffInstrs := estimateFF(wins, ffs)
	res.EstCycles = res.Measured.Cycles + ffCycles
	res.EstInstrs = res.Measured.Instrs + ffInstrs
	return res, nil
}

// winObs is one measured window's observation: detailed cycles, retired
// instructions, the fetched (trace) population they came from, and the
// functional observable counts over that population (same accounting as
// the warmer's WarmObs — see statObs).
type winObs struct {
	cycles  float64
	instrs  float64
	fetched float64
	z       [nObs]float64
}

// nObs is the control-variate feature count: extra memory-miss cycles
// (fetch + data), data-miss bursts, squash triggers, divide-class ops —
// per fetched instruction once normalised. Fetch and data miss cycles are
// merged into one feature deliberately: they are physically commensurate
// (both are hierarchy latency added to the pipeline) and merging trims the
// parameter count the fit must support out-of-sample. Miss bursts are kept
// separate from miss cycles because they carry the orthogonal information:
// how much of the miss latency overlaps inside the out-of-order window.
const nObs = 4

// statObs projects a measured window's Stats delta onto the features the
// functional warmer collects for fast-forwarded regions, with identical
// accounting on both sides (WarmObs documents the mirroring): every counter
// is fetch-time state covering the full fetched population, which the
// warmer likewise observes exactly once per stream instruction.
func statObs(d Stats) [nObs]float64 {
	return [nObs]float64{
		float64(d.MemExtraFetch + d.MemExtraData),
		float64(d.MissRuns),
		float64(d.PredSquashes),
		float64(d.KindCount[trace.Div] + d.KindCount[trace.FPDiv]),
	}
}

func warmObsVec(o WarmObs) [nObs]float64 {
	return [nObs]float64{
		float64(o.ExtraFetch + o.ExtraData),
		float64(o.MissRuns),
		float64(o.Mispredicts),
		float64(o.LongOps),
	}
}

// ffChunk is one fast-forwarded region's functional observation tagged with
// the index of the measured window that prices it — the window at the
// centre of the same sampling interval.
type ffChunk struct {
	obs WarmObs
	win int
}

// estimateFF predicts the detailed cycle and retired-instruction counts of
// the fast-forwarded regions. Each region is priced at its own interval's
// window rates — cycles and retirements per fetched instruction — because
// both vary secularly as the caches warm over the run: a region early in
// the stream costs more cycles per instruction than a late one, and its
// local window has measured exactly that. Rates are per fetched (trace)
// instruction, not per retirement, because fast-forwarded regions are
// counted in trace instructions and squashes make the two differ; the
// window's own retire fraction converts back.
//
// On top of the stratified ratio, a control-variate correction removes the
// part of each window's sampling noise that the functional observables
// explain: a window that happened to catch more cache misses than its
// interval's average reads a high cycle rate, but the warmer measured the
// surrounding region's true miss rate exactly, and the deviation term
// β·(z_ff − z_win) cancels the excess. The slopes β are fitted once across
// all windows on mean-centred rates — a well-conditioned nObs-parameter
// fit — and because the correction is a deviation from the interval's own
// window, its expectation is ~0: a poor fit costs variance reduction, not
// bias. Per-region corrections are clamped to ±half the local rate so a
// degenerate fit cannot run away; with too few windows to fit, β = 0 and
// the estimator degrades to the plain stratified ratio.
func estimateFF(wins []winObs, ffs []ffChunk) (cycles, instrs uint64) {
	betaC, okC := fitDeviations(wins, func(w winObs) float64 { return w.cycles })
	betaR, okR := fitDeviations(wins, func(w winObs) float64 { return w.instrs })
	var cyc, ret float64
	for _, ch := range ffs {
		w := wins[ch.win]
		f := float64(ch.obs.Instrs)
		if f == 0 {
			continue
		}
		zff := warmObsVec(ch.obs)
		rC := w.cycles / w.fetched
		rR := w.instrs / w.fetched
		if okC {
			rC = correctRate(rC, betaC, w, zff, f)
		}
		if okR {
			rR = min(correctRate(rR, betaR, w, zff, f), 1)
		}
		cyc += f * rC
		ret += f * rR
	}
	return uint64(math.Round(cyc)), uint64(math.Round(ret))
}

// correctRate applies the control-variate deviation term to a window rate:
// rate + β·(z_ff/f_ff − z_win/f_win), clamped to ±50% of the base rate.
func correctRate(rate float64, beta [nObs]float64, w winObs, zff [nObs]float64, fff float64) float64 {
	var corr float64
	for k := 0; k < nObs; k++ {
		corr += beta[k] * (zff[k]/fff - w.z[k]/w.fetched)
	}
	corr = min(max(corr, -0.5*rate), 0.5*rate)
	return rate + corr
}

// devObs is one window's mean-centred observation: rate deviations of the
// observables and the response, weighted by window size.
type devObs struct {
	dz [nObs]float64
	dr float64
	wt float64
}

// centre converts windows to mean-centred rate deviations (per fetched
// instruction, weighted by window size). Centring removes the intercept
// and the dominant common mode, leaving only window-to-window fluctuation.
func centre(wins []winObs, y func(winObs) float64) []devObs {
	var wt, mr float64
	var mz [nObs]float64
	for _, w := range wins {
		wt += w.fetched
		mr += y(w)
		for k := 0; k < nObs; k++ {
			mz[k] += w.z[k]
		}
	}
	mr /= wt
	for k := range mz {
		mz[k] /= wt
	}
	out := make([]devObs, len(wins))
	for i, w := range wins {
		d := devObs{dr: y(w)/w.fetched - mr, wt: w.fetched}
		for k := 0; k < nObs; k++ {
			d.dz[k] = w.z[k]/w.fetched - mz[k]
		}
		out[i] = d
	}
	return out
}

// solveDev solves the weighted ridge normal equations of a deviation set
// over the active feature subset; inactive features keep a zero slope.
func solveDev(set []devObs, mask []int) ([nObs]float64, bool) {
	var beta [nObs]float64
	m := len(mask)
	var a [nObs][nObs]float64
	var b [nObs]float64
	for _, d := range set {
		for i, fi := range mask {
			for j, fj := range mask {
				a[i][j] += d.wt * d.dz[fi] * d.dz[fj]
			}
			b[i] += d.wt * d.dz[fi] * d.dr
		}
	}
	for i := 0; i < m; i++ {
		a[i][i] += 1e-3*a[i][i] + 1e-12
	}
	// Gaussian elimination with partial pivoting on the small system.
	for col := 0; col < m; col++ {
		piv := col
		for r := col + 1; r < m; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[piv][col]) {
				piv = r
			}
		}
		if math.Abs(a[piv][col]) < 1e-30 {
			return [nObs]float64{}, false
		}
		a[col], a[piv] = a[piv], a[col]
		b[col], b[piv] = b[piv], b[col]
		for r := col + 1; r < m; r++ {
			f := a[r][col] / a[col][col]
			for k := col; k < m; k++ {
				a[r][k] -= f * a[col][k]
			}
			b[r] -= f * b[col]
		}
	}
	var x [nObs]float64
	for i := m - 1; i >= 0; i-- {
		v := b[i]
		for k := i + 1; k < m; k++ {
			v -= a[i][k] * x[k]
		}
		x[i] = v / a[i][i]
	}
	for i, fi := range mask {
		if math.IsNaN(x[i]) || math.IsInf(x[i], 0) {
			return [nObs]float64{}, false
		}
		beta[fi] = x[i]
	}
	return beta, true
}

// sseDev returns the weighted squared error of predicting a deviation set's
// responses with the given slopes (all-zero slopes give the baseline).
func sseDev(set []devObs, beta [nObs]float64) float64 {
	var sse float64
	for _, d := range set {
		p := d.dr
		for k := 0; k < nObs; k++ {
			p -= beta[k] * d.dz[k]
		}
		sse += d.wt * p * p
	}
	return sse
}

// cvMasks is the feature-subset cascade fitDeviations tries, richest
// first: all four features, then memory-only subsets of decreasing size
// (miss cycles + bursts, bursts alone, cycles alone). A subset is used
// only if it survives cross-validation, so profiles where squashes or
// divides are pure noise automatically drop to a smaller model.
var cvMasks = [][]int{{0, 1, 2, 3}, {0, 1, 2}, {0, 1}, {1}, {0}}

// fitDeviations fits the response rate (per fetched instruction) against
// the feature rates across windows and gates the result on split-half
// cross-validation: slopes fitted on the even windows must predict the odd
// windows' deviations measurably better than no correction at all, and
// vice versa. The gate is what keeps a noise-chasing fit — a wild slope on
// a near-constant feature — from ever being applied: out of sample such a
// fit scores worse than zero slopes and is rejected, and the cascade
// retries with fewer features before giving up and degrading the estimator
// to the plain stratified ratio.
func fitDeviations(wins []winObs, y func(winObs) float64) ([nObs]float64, bool) {
	var zero [nObs]float64
	if len(wins) < 8 {
		return zero, false
	}
	set := centre(wins, y)
	var even, odd []devObs
	for i, d := range set {
		if i%2 == 0 {
			even = append(even, d)
		} else {
			odd = append(odd, d)
		}
	}
	sse0Odd, sse0Even := sseDev(odd, zero), sseDev(even, zero)
	for _, mask := range cvMasks {
		bEven, okE := solveDev(even, mask)
		bOdd, okO := solveDev(odd, mask)
		if !okE || !okO {
			continue
		}
		// Each half-fit must cut the other half's residual energy by ≥10%.
		if sseDev(odd, bEven) > 0.9*sse0Odd || sseDev(even, bOdd) > 0.9*sse0Even {
			continue
		}
		if beta, ok := solveDev(set, mask); ok {
			return beta, true
		}
	}
	return zero, false
}

// Extrapolate scales the measured Stats up to a run of total instructions:
// every event counter is multiplied by total/measured and Instrs is pinned
// to the total. Cycles come from the event-regression estimate (EstCycles)
// rather than the ratio, which is what keeps the CPI error inside the 2%
// oracle bound. The returned Stats are the sampled estimate of what a full
// detailed run would report.
func (r SampleResult) Extrapolate(total uint64) Stats {
	m := r.Measured
	if m.Instrs == 0 || total == 0 {
		return m
	}
	f := float64(total) / float64(m.Instrs)
	out := Stats{
		Cycles:        scaleU64(m.Cycles, f),
		Instrs:        total,
		RFReads:       scaleU64(m.RFReads, f),
		RFWrites:      scaleU64(m.RFWrites, f),
		RATLookups:    scaleU64(m.RATLookups, f),
		IQInserts:     scaleU64(m.IQInserts, f),
		IQWakeups:     scaleU64(m.IQWakeups, f),
		SQSearches:    scaleU64(m.SQSearches, f),
		Forwards:      scaleU64(m.Forwards, f),
		ROBWrites:     scaleU64(m.ROBWrites, f),
		ComplexOps:    scaleU64(m.ComplexOps, f),
		FetchGroups:   scaleU64(m.FetchGroups, f),
		Branches:      scaleU64(m.Branches, f),
		Mispredicts:   scaleU64(m.Mispredicts, f),
		BTBMisses:     scaleU64(m.BTBMisses, f),
		PredSquashes:  scaleU64(m.PredSquashes, f),
		Fetched:       scaleU64(m.Fetched, f),
		LoadL1Hits:    scaleU64(m.LoadL1Hits, f),
		LoadL1Misses:  scaleU64(m.LoadL1Misses, f),
		MemExtraFetch: scaleU64(m.MemExtraFetch, f),
		MemExtraData:  scaleU64(m.MemExtraData, f),
		MissRuns:      scaleU64(m.MissRuns, f),
		StallROB:      scaleU64(m.StallROB, f),
		StallIQ:       scaleU64(m.StallIQ, f),
		StallLQ:       scaleU64(m.StallLQ, f),
		StallSQ:       scaleU64(m.StallSQ, f),
		StallRF:       scaleU64(m.StallRF, f),
	}
	for i := range m.KindCount {
		out.KindCount[i] = scaleU64(m.KindCount[i], f)
	}
	if r.EstCycles > 0 && r.EstInstrs > 0 {
		// CPI comes from the regression estimate: estimated cycles per
		// estimated retirement over everything the run covered, scaled to
		// the requested total.
		out.Cycles = scaleU64(r.EstCycles, float64(total)/float64(r.EstInstrs))
	}
	return out
}

func scaleU64(v uint64, f float64) uint64 {
	return uint64(math.Round(float64(v) * f))
}

// Add returns the field-wise sum of two Stats.
func (s Stats) Add(o Stats) Stats {
	s.Cycles += o.Cycles
	s.Instrs += o.Instrs
	for i := range s.KindCount {
		s.KindCount[i] += o.KindCount[i]
	}
	s.RFReads += o.RFReads
	s.RFWrites += o.RFWrites
	s.RATLookups += o.RATLookups
	s.IQInserts += o.IQInserts
	s.IQWakeups += o.IQWakeups
	s.SQSearches += o.SQSearches
	s.Forwards += o.Forwards
	s.ROBWrites += o.ROBWrites
	s.ComplexOps += o.ComplexOps
	s.FetchGroups += o.FetchGroups
	s.Branches += o.Branches
	s.Mispredicts += o.Mispredicts
	s.BTBMisses += o.BTBMisses
	s.PredSquashes += o.PredSquashes
	s.Fetched += o.Fetched
	s.LoadL1Hits += o.LoadL1Hits
	s.LoadL1Misses += o.LoadL1Misses
	s.MemExtraFetch += o.MemExtraFetch
	s.MemExtraData += o.MemExtraData
	s.MissRuns += o.MissRuns
	s.StallROB += o.StallROB
	s.StallIQ += o.StallIQ
	s.StallLQ += o.StallLQ
	s.StallSQ += o.StallSQ
	s.StallRF += o.StallRF
	return s
}

// Sub returns the field-wise difference s - o (counter snapshot diff).
func (s Stats) Sub(o Stats) Stats {
	s.Cycles -= o.Cycles
	s.Instrs -= o.Instrs
	for i := range s.KindCount {
		s.KindCount[i] -= o.KindCount[i]
	}
	s.RFReads -= o.RFReads
	s.RFWrites -= o.RFWrites
	s.RATLookups -= o.RATLookups
	s.IQInserts -= o.IQInserts
	s.IQWakeups -= o.IQWakeups
	s.SQSearches -= o.SQSearches
	s.Forwards -= o.Forwards
	s.ROBWrites -= o.ROBWrites
	s.ComplexOps -= o.ComplexOps
	s.FetchGroups -= o.FetchGroups
	s.Branches -= o.Branches
	s.Mispredicts -= o.Mispredicts
	s.BTBMisses -= o.BTBMisses
	s.PredSquashes -= o.PredSquashes
	s.Fetched -= o.Fetched
	s.LoadL1Hits -= o.LoadL1Hits
	s.LoadL1Misses -= o.LoadL1Misses
	s.MemExtraFetch -= o.MemExtraFetch
	s.MemExtraData -= o.MemExtraData
	s.MissRuns -= o.MissRuns
	s.StallROB -= o.StallROB
	s.StallIQ -= o.StallIQ
	s.StallLQ -= o.StallLQ
	s.StallSQ -= o.StallSQ
	s.StallRF -= o.StallRF
	return s
}
