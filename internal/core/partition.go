package core

import (
	"context"
	"fmt"
	"math"

	"vertical3d/internal/parallel"
	"vertical3d/internal/sram"
	"vertical3d/internal/tech"
)

// Mode selects the layer-performance assumption a partition is designed for.
type Mode int

const (
	// IsoLayer assumes both layers have the same performance (Section 3):
	// symmetric splits, no upsizing.
	IsoLayer Mode = iota
	// HeteroLayer assumes the 17%-slower top layer of current M3D
	// technology and applies the paper's countermeasures (Section 4):
	// asymmetric splits and upsized top-layer devices.
	HeteroLayer
)

// String returns the mode name.
func (m Mode) String() string {
	if m == HeteroLayer {
		return "hetero-layer"
	}
	return "iso-layer"
}

// Choice is the outcome of partition selection for one structure.
type Choice struct {
	Structure Structure
	Base      sram.Result // 2D baseline
	Result    sram.Result // chosen 3D organisation
	Reduction sram.Reduction
}

// Strategy returns the chosen partitioning strategy.
func (c Choice) Strategy() sram.Strategy { return c.Result.Partition.Strategy }

// Evaluate models the structure under one explicit partition and returns the
// result alongside the 2D baseline.
func Evaluate(n *tech.Node, st Structure, p sram.Partition) (Choice, error) {
	base, err := sram.Model(n, st.Spec, sram.Flat())
	if err != nil {
		return Choice{}, err
	}
	r, err := sram.Model(n, st.Spec, p)
	if err != nil {
		return Choice{}, err
	}
	return Choice{Structure: st, Base: base, Result: r, Reduction: r.ReductionVs(base)}, nil
}

// candidates enumerates the partition configurations to consider for a
// structure under the given mode and via technology.
func candidates(st Structure, mode Mode, via tech.Via) []sram.Partition {
	var out []sram.Partition
	multiported := st.Spec.Ports() >= 2

	if mode == IsoLayer {
		out = append(out,
			sram.Iso(sram.BitPart, via),
			sram.Iso(sram.WordPart, via),
		)
		if multiported {
			out = append(out, sram.Iso(sram.PortPart, via))
		}
		return out
	}

	// Hetero-layer: asymmetric splits with top-layer upsizing. For BP/WP the
	// paper finds 2/3 of the array below with doubled top widths works well;
	// we sweep around that point. For PP we sweep the port split to balance
	// the two layers' footprints (e.g. 10 below / 8 doubled-width above for
	// the 18-port RF).
	for _, frac := range []float64{0.55, 0.60, 2.0 / 3.0, 0.70} {
		for _, up := range []float64{1.5, 2.0} {
			out = append(out,
				sram.Hetero(sram.BitPart, via, frac, up),
				sram.Hetero(sram.WordPart, via, frac, up),
			)
		}
	}
	if multiported {
		total := st.Spec.Ports()
		for pb := total/2 - 1; pb <= total/2+2; pb++ {
			if pb < 1 || pb >= total {
				continue
			}
			frac := float64(pb) / float64(total)
			for _, up := range []float64{1.5, 2.0} {
				out = append(out, sram.Hetero(sram.PortPart, via, frac, up))
			}
		}
	}
	return out
}

// SelectBest chooses the best partition for the structure: minimise access
// latency, and among candidates within latencyTiePct of the best latency,
// prefer the smallest footprint (the paper prefers latency but resolves the
// BPT's BP/WP tie toward WP's footprint and energy savings).
func SelectBest(n *tech.Node, st Structure, mode Mode, via tech.Via) (Choice, error) {
	const latencyTie = 0.02
	base, err := sram.Model(n, st.Spec, sram.Flat())
	if err != nil {
		return Choice{}, err
	}
	var best sram.Result
	haveBest := false
	for _, p := range candidates(st, mode, via) {
		r, err := sram.Model(n, st.Spec, p)
		if err != nil {
			continue
		}
		if !haveBest {
			best, haveBest = r, true
			continue
		}
		if r.AccessTime < best.AccessTime*(1-latencyTie) {
			best = r
			continue
		}
		if r.AccessTime <= best.AccessTime*(1+latencyTie) && r.FootprintArea < best.FootprintArea {
			best = r
		}
	}
	if !haveBest {
		return Choice{}, fmt.Errorf("core: no feasible partition for %s", st.Spec.Name)
	}
	return Choice{Structure: st, Base: base, Result: best, Reduction: best.ReductionVs(base)}, nil
}

// SelectAll runs SelectBest over the whole catalog, one structure per
// worker-pool task. Choices come back in catalog order; SelectBest itself
// stays sequential so its latency/footprint tie-breaking is evaluated in a
// fixed candidate order — results never depend on scheduling.
func SelectAll(n *tech.Node, mode Mode, via tech.Via) ([]Choice, error) {
	cat := Catalog()
	return parallel.Map(context.Background(), parallel.Pool{}, len(cat),
		func(i int) (Choice, error) {
			return SelectBest(n, cat[i], mode, via)
		})
}

// MinLatencyReduction returns the smallest latency reduction across choices,
// optionally restricted to cycle-critical structures — the quantity that
// sets the 3D core frequency (Section 6.1).
func MinLatencyReduction(choices []Choice, onlyCycleCritical bool) float64 {
	min := math.Inf(1)
	for _, c := range choices {
		if onlyCycleCritical && !c.Structure.CycleCritical {
			continue
		}
		if c.Reduction.Latency < min {
			min = c.Reduction.Latency
		}
	}
	if math.IsInf(min, 1) {
		return 0
	}
	return min
}

// FrequencyLimitingReduction returns the smallest latency reduction among
// the cycle-critical structures whose 2D access time is within nearFrac of
// the slowest one — the structures that actually pin the cycle time. A
// structure far below the cycle ceiling cannot limit frequency no matter
// how little it improves.
func FrequencyLimitingReduction(choices []Choice, nearFrac float64) float64 {
	var maxAccess float64
	for _, c := range choices {
		if c.Structure.CycleCritical && c.Base.AccessTime > maxAccess {
			maxAccess = c.Base.AccessTime
		}
	}
	min := math.Inf(1)
	for _, c := range choices {
		if !c.Structure.CycleCritical || c.Base.AccessTime < nearFrac*maxAccess {
			continue
		}
		if c.Reduction.Latency < min {
			min = c.Reduction.Latency
		}
	}
	if math.IsInf(min, 1) {
		return 0
	}
	return min
}

// TraditionalLimitReduction returns the smallest latency reduction among the
// traditionally frequency-critical structures (RF, IQ) — the basis of the
// aggressive configurations of Section 6.1.
func TraditionalLimitReduction(choices []Choice) float64 {
	min := math.Inf(1)
	for _, c := range choices {
		if !c.Structure.TraditionallyCritical {
			continue
		}
		if c.Reduction.Latency < min {
			min = c.Reduction.Latency
		}
	}
	if math.IsInf(min, 1) {
		return 0
	}
	return min
}

// ReductionFor returns the latency reduction of a named structure.
func ReductionFor(choices []Choice, name string) (sram.Reduction, error) {
	for _, c := range choices {
		if c.Structure.Spec.Name == name {
			return c.Reduction, nil
		}
	}
	return sram.Reduction{}, fmt.Errorf("core: structure %q not among choices", name)
}
