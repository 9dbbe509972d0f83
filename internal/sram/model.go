package sram

import (
	"fmt"
	"math"

	"vertical3d/internal/circuit"
	"vertical3d/internal/tech"
	"vertical3d/internal/wire"
)

// Model evaluates the array described by s under partition p at node n with
// the default calibration constants.
func Model(n *tech.Node, s Spec, p Partition) (Result, error) {
	return ModelWith(n, s, p, DefaultParams())
}

// ModelWith is Model with explicit calibration parameters. Inputs are
// guard-checked before the pipeline runs (node constants, spec geometry,
// partition parameters) and the result is guard-checked after, so callers
// get a structured violation for a bad organisation rather than NaN
// figures.
func ModelWith(n *tech.Node, s Spec, p Partition, pm Params) (Result, error) {
	if n == nil {
		return Result{}, fmt.Errorf("sram: %s: nil tech node", s.Name)
	}
	if err := n.Validate(); err != nil {
		return Result{}, fmt.Errorf("sram: %s: %w", s.Name, err)
	}
	if err := s.Validate(); err != nil {
		return Result{}, err
	}
	if err := p.Validate(); err != nil {
		return Result{}, fmt.Errorf("%s: %w", s.Name, err)
	}
	if err := pm.Validate(); err != nil {
		return Result{}, fmt.Errorf("%s: %w", s.Name, err)
	}
	m := &modelCtx{n: n, s: s, p: p, pm: pm}
	res, err := m.run()
	if err != nil {
		return Result{}, err
	}
	if err := res.Validate(); err != nil {
		return Result{}, fmt.Errorf("sram: model output violates invariants: %w", err)
	}
	return res, nil
}

// layer is the physical organisation of one silicon layer. Tall arrays are
// split into multiple mats (bitline segments) tiled in a grid and joined by
// an H-tree, exactly as CACTI organises large arrays.
type layer struct {
	rows, cols int // total physical rows/columns in this layer
	ports      int
	upsize     float64 // device width multiplier for this layer
	slow       float64 // process delay factor for this layer
	top        bool

	hasDecoder bool
	hasSense   bool

	matRows  int // rows per mat (bitline length in cells)
	nmats    int
	gx, gy   int // mat grid
	cellW    float64
	cellH    float64
	width    float64 // total cell-matrix width (m)
	height   float64 // total cell-matrix height (m)
	matWidth float64 // one mat's width (wordline length)
	area     float64 // layer area incl. periphery and via blocks (m²)
}

type modelCtx struct {
	n  *tech.Node
	s  Spec
	p  Partition
	pm Params

	fold       int
	rows, cols int // physical 2D organisation before partitioning

	driveScale float64 // device sizing scale from total port count
	capScale   float64 // capacitance scale (sub-linear in drive)

	vias int
}

func (m *modelCtx) run() (Result, error) {
	pm := m.pm

	// Device sizing: cells of heavily multiported structures use larger
	// drivers; caps grow sub-linearly with drive.
	unitEq := pm.CoreEquivPorts + 1
	m.driveScale = (pm.CoreEquivPorts + float64(m.s.Ports())) / unitEq
	m.capScale = math.Sqrt(m.driveScale)

	// Fold tall arrays (column multiplexing) toward a square aspect.
	cw, ch := m.cellDims(m.s.Ports(), 1.0, true)
	m.fold = m.chooseFold(cw, ch)
	m.rows = ceilDiv(m.s.Words, m.fold)
	m.cols = m.s.Bits * m.fold

	layers, err := m.buildLayers()
	if err != nil {
		return Result{}, err
	}

	res := Result{Spec: m.s, Partition: m.p, Vias: m.vias}

	// --- Delay path -------------------------------------------------------
	var bd Components
	bd.Decoder, _ = m.decoderDelay(layers)
	bd.Wordline = m.worstWordline(layers)
	bd.Bitline = m.worstBitline(layers)
	bd.SenseAmp = pm.SenseAmpFO4 * m.n.FO4()
	bd.Output = m.outputDelay(layers)

	read := bd.Decoder + bd.Wordline + bd.Bitline + bd.SenseAmp + bd.Output
	access := read
	if m.s.CAM {
		bd.TagDrive, bd.MatchLine, bd.Priority = m.searchDelay(layers)
		search := bd.TagDrive + bd.MatchLine + bd.Priority + bd.Output
		if search > access {
			access = search
		}
	}
	res.Breakdown = bd
	res.AccessTime = access

	// --- Energy -----------------------------------------------------------
	res.ReadEnergy, res.WriteEnergy = m.accessEnergy(layers)
	if m.s.CAM {
		res.SearchEnergy = m.searchEnergy(layers)
	}

	// --- Area and leakage -------------------------------------------------
	m.areas(layers)
	var foot, total float64
	for i := range layers {
		total += layers[i].area
		if layers[i].area > foot {
			foot = layers[i].area
			res.FootprintW = layers[i].width
			res.FootprintH = layers[i].height
		}
	}
	// Multiple banks tile in a grid; routing adds a fixed fraction.
	banks := float64(m.s.Banks)
	routeOverhead := 1.0
	if m.s.Banks > 1 {
		routeOverhead = 1.05
	}
	res.FootprintArea = foot * banks * routeOverhead
	res.TotalSiliconArea = total * banks * routeOverhead

	res.AccessTime += m.bankRouteDelay(foot)
	res.LeakageWatts = m.leakage(layers)
	return res, nil
}

// cellDims returns the bitcell pitch for a layer with the given port count
// and upsize. withCore includes the cross-coupled inverter pair (absent in
// the top layer of a port partition).
func (m *modelCtx) cellDims(ports int, upsize float64, withCore bool) (w, h float64) {
	pm, n := m.pm, m.n
	unitEq := pm.CoreEquivPorts + 1
	unitW := math.Sqrt(n.SRAMCellArea*pm.CellAspect) / unitEq
	unitH := math.Sqrt(n.SRAMCellArea/pm.CellAspect) / unitEq

	eq := float64(ports) * (1 + pm.UpsizePitchFrac*(upsize-1))
	if withCore {
		eq += pm.CoreEquivPorts
	}
	if eq < 1 {
		eq = 1
	}
	w, h = unitW*eq, unitH*eq
	if m.s.CAM {
		w *= pm.CAMCellWFactor
	}
	return w, h
}

// chooseFold picks the power-of-two column-mux degree that brings a single
// mat closest to the target aspect (wordline about twice the bitline, which
// minimises delay given the relative strength of drivers and cells). Ties go
// to the larger fold — shorter bitlines. Folding below MinRows rows is not
// allowed: tiny row counts waste sense amplifiers.
func (m *modelCtx) chooseFold(cellW, cellH float64) int {
	pm := m.pm
	const targetAspect = 2.0
	best, bestScore := 1, math.Inf(1)
	for fold := 1; fold <= pm.MaxFold; fold *= 2 {
		rows := ceilDiv(m.s.Words, fold)
		if rows < pm.MinRows && fold > 1 {
			break
		}
		matRows := min(rows, pm.MatMaxRows)
		h := float64(matRows) * cellH
		w := float64(m.s.Bits*fold) * cellW
		score := math.Abs(math.Log(w / (targetAspect * h)))
		if score <= bestScore {
			best, bestScore = fold, score
		}
	}
	return best
}

// buildLayers constructs the per-layer organisation for the partition and
// counts vias.
func (m *modelCtx) buildLayers() ([]layer, error) {
	p := m.p
	switch p.Strategy {
	case Flat2D:
		ly := layer{
			rows: m.rows, cols: m.cols, ports: m.s.Ports(),
			upsize: 1, slow: 1, hasDecoder: true, hasSense: true,
		}
		m.finishLayer(&ly, true)
		return []layer{ly}, nil

	case BitPart:
		colsB := clampInt(int(math.Round(float64(m.cols)*p.BottomFrac)), 1, m.cols-1)
		bot := layer{rows: m.rows, cols: colsB, ports: m.s.Ports(),
			upsize: 1, slow: 1, hasDecoder: true, hasSense: true}
		top := layer{rows: m.rows, cols: m.cols - colsB, ports: m.s.Ports(),
			upsize: p.TopUpsize, slow: p.TopDelayFactor, top: true, hasSense: true}
		m.finishLayer(&bot, true)
		m.finishLayer(&top, true)
		// One via per physical row per port carries the wordlines up; the
		// top layer's data bits return through one via per top column.
		m.vias = min(m.rows, m.pm.MatMaxRows)*m.nmatsOf(m.rows)*m.s.Ports() + top.cols
		return []layer{bot, top}, nil

	case WordPart:
		rowsB := clampInt(int(math.Round(float64(m.rows)*p.BottomFrac)), 1, m.rows-1)
		bot := layer{rows: rowsB, cols: m.cols, ports: m.s.Ports(),
			upsize: 1, slow: 1, hasDecoder: true, hasSense: true}
		top := layer{rows: m.rows - rowsB, cols: m.cols, ports: m.s.Ports(),
			upsize: p.TopUpsize, slow: p.TopDelayFactor, top: true, hasDecoder: true}
		m.finishLayer(&bot, true)
		m.finishLayer(&top, true)
		// One via per bit column brings the top layer's bitlines down to the
		// shared sense amplifiers (Figure 3b).
		m.vias = m.cols + 8
		return []layer{bot, top}, nil

	case PortPart:
		total := m.s.Ports()
		if total < 2 {
			return nil, fmt.Errorf("sram: %s: port partitioning needs >=2 ports", m.s.Name)
		}
		pb := clampInt(int(math.Round(float64(total)*p.BottomFrac)), 1, total-1)
		bot := layer{rows: m.rows, cols: m.cols, ports: pb,
			upsize: 1, slow: 1, hasDecoder: true, hasSense: true}
		top := layer{rows: m.rows, cols: m.cols, ports: total - pb,
			upsize: p.TopUpsize, slow: p.TopDelayFactor, top: true, hasSense: true}
		// The cell matrices must align vertically: pitch is the max of the
		// two layers'. The bottom layer holds the inverter core.
		bw, bh := m.cellDims(bot.ports, bot.upsize, true)
		tw, th := m.cellDims(top.ports, top.upsize, false)
		pw, ph := math.Max(bw, tw), math.Max(bh, th)
		// Two vias per cell (Figure 3c) inflate the shared pitch.
		viaPerCell := 2 * m.p.Via.OccupiedArea()
		pw += viaPerCell / ph
		bot.cellW, bot.cellH = pw, ph
		top.cellW, top.cellH = pw, ph
		m.finishLayer(&bot, false)
		m.finishLayer(&top, false)
		m.vias = 2 * m.rows * m.cols
		return []layer{bot, top}, nil
	}
	return nil, fmt.Errorf("sram: unknown strategy %v", p.Strategy)
}

func (m *modelCtx) nmatsOf(rows int) int {
	return ceilDiv(rows, m.pm.MatMaxRows)
}

// finishLayer fills the derived geometry; when setCell is true the cell
// dimensions are computed from the layer's own port count.
func (m *modelCtx) finishLayer(ly *layer, setCell bool) {
	if setCell {
		ly.cellW, ly.cellH = m.cellDims(m.s.Ports(), 1.0, true)
		if ly.top && ly.upsize > 1 {
			// Hetero BP/WP: top-layer cells grow along the partitioned
			// dimension only, inside the headroom the asymmetric split
			// creates (the bottom layer keeps the larger array section).
			grow := 1 + m.pm.UpsizePitchFrac*(ly.upsize-1)
			switch m.p.Strategy {
			case BitPart:
				ly.cellW *= grow
			case WordPart:
				ly.cellH *= grow
			}
		}
	}
	ly.matRows = min(ly.rows, m.pm.MatMaxRows)
	ly.nmats = ceilDiv(ly.rows, ly.matRows)
	ly.gy = int(math.Ceil(math.Sqrt(float64(ly.nmats))))
	ly.gx = ceilDiv(ly.nmats, ly.gy)
	ly.matWidth = float64(ly.cols) * ly.cellW
	ly.width = float64(ly.gx) * ly.matWidth
	ly.height = float64(ly.gy) * float64(ly.matRows) * ly.cellH
}

// arrayWire returns a local-class wire with the in-array resistance penalty.
func (m *modelCtx) arrayWireRC(length float64) (r, c float64) {
	w := wire.Wire{Node: m.n, Class: wire.Local, Length: length}
	return w.Resistance() * m.pm.ArrayWireRFactor, w.Capacitance()
}

// --- Delay components ------------------------------------------------------

// decoderDelay models the row decoder: predecode chain plus a buffered
// predecode wire running along the array height. Only layers that own a
// decoder count; the worst one is returned.
func (m *modelCtx) decoderDelay(layers []layer) (float64, float64) {
	n := m.n
	var worst, energy float64
	for _, ly := range layers {
		if !ly.hasDecoder {
			continue
		}
		bits := int(math.Max(1, math.Ceil(math.Log2(float64(ly.rows)))))
		load := 4 * n.CInv * m.capScale // wordline-driver first stage
		d, e, err := circuit.DecoderDelay(n, bits, load)
		if err != nil {
			continue
		}
		d *= m.pm.DecoderDelayFactor
		// Predecode lines run half the array height on average, buffered.
		w := wire.Wire{Node: n, Class: wire.Local, Length: ly.height / 2}
		d += wire.DelayOrRaw(w)
		e += w.Capacitance() * n.Vdd * n.Vdd * float64(bits)
		d *= ly.slow
		if d > worst {
			worst = d
		}
		energy += e
	}
	return worst, energy
}

// wordlineDelay returns the delay of one mat's wordline in the layer:
// driver chain plus distributed wire with gate loads.
func (m *modelCtx) wordlineDelay(ly layer, viaInPath bool) float64 {
	n, pm := m.n, m.pm
	gateC := 2 * pm.AccessGateCapFrac * n.CInv * ly.upsize
	cGates := float64(ly.cols) * gateC
	rWire, cWire := m.arrayWireRC(ly.matWidth)

	var d float64
	const subWLSpan = 100e-6
	if ly.matWidth > subWLSpan {
		// Divided wordline: a buffered global line spans the mat and drives
		// local segments, linearising the delay in width.
		rep, err := wire.InsertRepeaters(wire.Wire{Node: n, Class: wire.Local, Length: ly.matWidth})
		var global float64
		if err == nil {
			global = rep.Delay * 1.3 // local-segment tap buffers
		}
		frac := subWLSpan / ly.matWidth
		segGates, segWire := cGates*frac, cWire*frac
		chain, _ := circuit.SizeChain(n, 4, segGates+segWire)
		d = global + chain.Delay + rWire*frac*(segWire/2+segGates/2)
	} else {
		chain, _ := circuit.SizeChain(n, 4, cGates+cWire)
		d = chain.Delay + rWire*(cWire/2+cGates/2)
	}

	d *= ly.slow / math.Min(ly.upsize, ly.slow*ly.slow) // upsizing claws back process slowness
	if ly.slow > 1 && ly.upsize > 1 {
		d = math.Max(d, m.isoWordline(ly)) // cannot beat the iso-layer delay
	}
	if viaInPath {
		v := m.p.Via
		d += (n.RInv/8 + v.Resistance) * v.Capacitance
	}
	return d
}

// isoWordline computes the layer's wordline delay as if it were built in the
// bottom process, used as a floor for upsized top layers.
func (m *modelCtx) isoWordline(ly layer) float64 {
	iso := ly
	iso.slow, iso.upsize = 1, 1
	return m.wordlineDelay(iso, false)
}

func (m *modelCtx) worstWordline(layers []layer) float64 {
	var worst float64
	for _, ly := range layers {
		d := m.wordlineDelay(ly, ly.top)
		if d > worst {
			worst = d
		}
	}
	return worst
}

// bitlineDelay returns the discharge delay of one mat-height bitline:
// cell pull-down through the distributed bitline RC.
func (m *modelCtx) bitlineDelay(ly layer) float64 {
	n, pm := m.n, m.pm
	drainC := pm.DrainCapFrac * n.CInv * ly.upsize
	blLen := float64(ly.matRows) * ly.cellH
	rWire, cWire := m.arrayWireRC(blLen)
	cbl := float64(ly.matRows)*drainC + cWire

	rCell := pm.CellDriveResFactor * n.RInv / m.driveScale
	rCell *= ly.slow / ly.upsize
	if m.p.Strategy == PortPart && ly.top {
		// Top-layer port: the pull-down path crosses the via from the
		// bottom-layer inverter core.
		v := m.p.Via
		rCell += v.Resistance
		cbl += v.Capacitance
	}
	if !ly.hasSense {
		// Bitline continues through a via to the shared sense amps below.
		v := m.p.Via
		rCell += v.Resistance
		cbl += v.Capacitance
	}
	return (rCell*cbl + rWire*(cWire/2+float64(ly.matRows)*drainC/2)) * pm.BitlineTimeFactor
}

func (m *modelCtx) worstBitline(layers []layer) float64 {
	var worst float64
	for _, ly := range layers {
		d := m.bitlineDelay(ly)
		if d > worst {
			worst = d
		}
	}
	return worst
}

// outputDelay routes the read data from the accessed mat's sense amps to the
// block edge. Multi-mat and banked arrays pay the full H-tree buffering
// overhead; a single small mat drives the block port almost directly.
func (m *modelCtx) outputDelay(layers []layer) float64 {
	n := m.n
	fw, fh := m.footDims(layers)
	out := wire.Wire{Node: n, Class: wire.SemiGlobal, Length: (fw + fh) / 2}
	factor := 1.5
	for _, ly := range layers {
		if ly.nmats > 1 {
			factor = m.pm.HTreeDelayFactor
		}
	}
	if m.s.Banks > 1 {
		factor = m.pm.HTreeDelayFactor
	}
	return wire.DelayOrRaw(out)*factor + n.FO4() // + output mux
}

// searchDelay models the CAM search path: tag (search-line) drive, matchline
// discharge, and the priority/OR reduction.
func (m *modelCtx) searchDelay(layers []layer) (tag, match, prio float64) {
	n, pm := m.n, m.pm
	for _, ly := range layers {
		// Search lines run the mat height, loading every row's match gates.
		gateC := 2 * pm.AccessGateCapFrac * n.CInv
		blLen := float64(ly.matRows) * ly.cellH
		rsl, cslWire := m.arrayWireRC(blLen)
		csl := float64(ly.matRows)*gateC + cslWire
		chain, _ := circuit.SizeChain(n, 4, csl)
		t := (chain.Delay + rsl*(cslWire/2+float64(ly.matRows)*gateC/2)) *
			ly.slow / math.Min(ly.upsize, ly.slow*ly.slow)
		if ly.top {
			t += (n.RInv/8 + m.p.Via.Resistance) * m.p.Via.Capacitance
		}
		if t > tag {
			tag = t
		}

		// Matchline spans the searched bits of this layer's words.
		searchFrac := float64(m.s.SearchBits()) / float64(m.s.Bits)
		mlLen := ly.matWidth * searchFrac / float64(m.fold)
		rml, cmlWire := m.arrayWireRC(mlLen)
		searchedBits := float64(m.s.SearchBits()) * float64(ly.cols) / float64(m.cols)
		cml := searchedBits*2*pm.DrainCapFrac*n.CInv + cmlWire
		rCell := pm.CellDriveResFactor * n.RInv / m.driveScale * ly.slow / ly.upsize
		mt := (rCell*cml + rml*cmlWire/2) * pm.MatchTimeFactor
		if m.p.Strategy == BitPart {
			// Bit partitioning splits each word's matchline across layers:
			// the partial matches must cross a via and be ANDed.
			v := m.p.Via
			mt += (n.RInv/4+v.Resistance)*v.Capacitance + 2*n.FO4()
		}
		if mt > match {
			match = mt
		}

		if ly.hasSense {
			levels := math.Ceil(math.Log2(float64(max(2, ly.rows))))
			p := levels*pm.PriorityFO4PerLevel*n.FO4() +
				wire.DelayOrRaw(wire.Wire{Node: n, Class: wire.SemiGlobal, Length: ly.height / 2})
			if m.p.Strategy == WordPart {
				// The entries are split across layers: the age-ordered
				// priority resolution must merge both layers' match vectors
				// through vias and extra arbitration levels.
				v := m.p.Via
				p += (n.RInv/4+v.Resistance)*v.Capacitance +
					pm.WPMergeLevels*pm.PriorityFO4PerLevel*n.FO4()
			}
			if p > prio {
				prio = p
			}
		}
	}
	return tag, match, prio
}

// --- Energy ------------------------------------------------------------------

func (m *modelCtx) accessEnergy(layers []layer) (read, write float64) {
	n, pm := m.n, m.pm
	v := n.Vdd
	_, decE := m.decoderDelay(layers)
	read += decE
	write += decE

	for _, ly := range layers {
		weight := m.layerAccessWeight(ly)
		if weight == 0 {
			continue
		}
		// Wordline swing: wire plus gates of the accessed mat row.
		gateC := 2 * pm.AccessGateCapFrac * n.CInv * ly.upsize
		_, cwlWire := m.arrayWireRC(ly.matWidth)
		cwl := float64(ly.cols)*gateC + cwlWire
		read += weight * cwl * v * v
		write += weight * cwl * v * v

		// Bitlines: partial swing on the accessed mat's columns for a read,
		// full swing on the written word's columns for a write.
		drainC := pm.DrainCapFrac * n.CInv * ly.upsize
		_, cblWire := m.arrayWireRC(float64(ly.matRows) * ly.cellH)
		cblCol := float64(ly.matRows)*drainC + cblWire
		read += weight * float64(ly.cols) * cblCol * v * (v * pm.BitlineSwingFrac) * 2 // differential pair
		writtenCols := float64(ly.cols) / float64(m.fold)
		write += weight * writtenCols * cblCol * v * v

		if ly.hasSense || m.p.Strategy == WordPart {
			read += weight * float64(ly.cols) / float64(m.fold) * pm.SenseAmpCapInv * n.CInv * v * v
		}
	}

	// Data and address routing between the block port and the accessed mat.
	// This H-tree-style distribution scales with the footprint, which is why
	// every folded organisation saves energy even when the raw array
	// switching is unchanged (notably bit partitioning).
	fw, fh := m.footDims(layers)
	routeC := wire.Wire{Node: n, Class: wire.SemiGlobal, Length: (fw + fh) / 2}.Capacitance()
	addrBits := math.Ceil(math.Log2(float64(m.s.Words)))
	read += (float64(m.s.Bits) + addrBits) * routeC * v * v
	write += (float64(m.s.Bits) + addrBits) * routeC * v * v

	// Via switching on the data path.
	read += m.activeViaEnergy()
	write += m.activeViaEnergy()
	return read, write
}

// layerAccessWeight returns the expected fraction of accesses that exercise
// this layer's wordlines and bitlines. Bit partitioning splits every word
// over both layers, so both always switch. Word partitioning places each
// word wholly in one layer, so a layer switches with the probability of
// holding the accessed word. Port partitioning exercises the layer that
// holds the used port.
func (m *modelCtx) layerAccessWeight(ly layer) float64 {
	switch m.p.Strategy {
	case WordPart:
		if ly.top {
			return 1 - m.p.BottomFrac
		}
		return m.p.BottomFrac
	case PortPart:
		total := float64(m.s.Ports())
		return float64(ly.ports) / total
	default:
		return 1
	}
}

func (m *modelCtx) activeViaEnergy() float64 {
	if m.p.Strategy == Flat2D {
		return 0
	}
	v := m.p.Via
	switch m.p.Strategy {
	case BitPart:
		return float64(m.s.Bits) / 2 * v.SwitchEnergy(m.n.Vdd)
	case WordPart:
		return float64(m.s.Bits) * v.SwitchEnergy(m.n.Vdd) * (1 - m.p.BottomFrac)
	case PortPart:
		return float64(m.s.Bits) * v.SwitchEnergy(m.n.Vdd)
	}
	return 0
}

func (m *modelCtx) searchEnergy(layers []layer) float64 {
	n, pm := m.n, m.pm
	v := n.Vdd
	var e float64
	for _, ly := range layers {
		// A CAM search interrogates every entry, so under bit and word
		// partitioning both layers participate fully; under port
		// partitioning the broadcast uses one search port, located in one
		// layer.
		weight := 1.0
		if m.p.Strategy == PortPart {
			weight = float64(ly.ports) / float64(m.s.Ports())
		}
		gateC := 2 * pm.AccessGateCapFrac * n.CInv
		_, cslWire := m.arrayWireRC(float64(ly.matRows) * ly.cellH)
		csl := (float64(ly.matRows)*gateC + cslWire) * float64(ly.nmats)
		// Every search bit present in this layer drives true and complement
		// lines (bit partitioning splits the searched bits across layers).
		bitsHere := float64(m.s.SearchBits()) * float64(ly.cols) / float64(m.cols)
		e += weight * bitsHere * 2 * csl * v * v / 2

		searchFrac := float64(m.s.SearchBits()) / float64(m.s.Bits)
		_, cmlWire := m.arrayWireRC(ly.matWidth * searchFrac / float64(m.fold))
		searchedBits := float64(m.s.SearchBits()) * float64(ly.cols) / float64(m.cols)
		cml := searchedBits*2*pm.DrainCapFrac*n.CInv + cmlWire
		e += weight * float64(ly.rows) * float64(m.fold) * cml * v * v * pm.MatchMissFrac
	}
	return e
}

// --- Area and leakage -------------------------------------------------------

func (m *modelCtx) areas(layers []layer) {
	pm, n := m.pm, m.n
	f := n.FeatureSize
	for i := range layers {
		ly := &layers[i]
		w, h := ly.width, ly.height
		if ly.hasDecoder {
			bits := math.Max(1, math.Ceil(math.Log2(float64(ly.rows))))
			w += pm.DecoderStripF * f * bits
		}
		w += pm.WLDriverStripF * f * float64(ly.gx)
		if ly.hasSense {
			h += pm.SenseStripF * f * float64(ly.gy)
		}
		area := w * h * (1 + pm.PeriphFixedFrac)

		// Via blocks for row/column crossings (BP/WP). PP's via cost is
		// already inside the cell pitch.
		if m.p.Strategy == BitPart && ly.top {
			area += float64(ly.matRows*ly.nmats*m.s.Ports()) * m.p.Via.OccupiedArea()
		}
		if m.p.Strategy == WordPart && ly.top {
			area += float64(m.cols) * m.p.Via.OccupiedArea()
		}
		ly.area = area
	}
}

func (m *modelCtx) footDims(layers []layer) (w, h float64) {
	for _, ly := range layers {
		if ly.width > w {
			w = ly.width
		}
		if ly.height > h {
			h = ly.height
		}
	}
	return w, h
}

func (m *modelCtx) bankRouteDelay(bankFoot float64) float64 {
	if m.s.Banks <= 1 {
		return 0
	}
	side := math.Sqrt(bankFoot)
	span := m.pm.BankRouteFrac * side * math.Sqrt(float64(m.s.Banks))
	return wire.DelayOrRaw(wire.Wire{Node: m.n, Class: wire.SemiGlobal, Length: span}) *
		m.pm.HTreeDelayFactor
}

func (m *modelCtx) leakage(layers []layer) float64 {
	pm, n := m.pm, m.n
	cells := float64(m.s.Words) * float64(m.s.Bits) * float64(m.s.Banks)
	perCell := pm.LeakPerCellInv + pm.PortLeakPerCell*float64(m.s.Ports()-1)
	leak := cells * perCell * n.LeakagePerInvWatts * m.capScale
	return leak * (1 + pm.PeriphLeakFrac)
}

// --- small helpers -----------------------------------------------------------

func ceilDiv(a, b int) int { return (a + b - 1) / b }

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
