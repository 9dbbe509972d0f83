// Command compare reads two run sets of the benchmark — the parent
// commit's and the change's, each a file of run records as `bench -out`
// appends them — and prints one row per (workload, metric): each side's
// median and quartiles, and a verdict.
//
//	go run ./compare parent.jsonl change.jsonl
//	go run ./compare baseline.json:set_a baseline.json:set_b
//
// The i-th run of each side of a workload form a pair; take the runs in
// alternation, parent first on even pairs and change first on odd ones. A
// metric is
//
//	improved    when the change wins at least 9 of every 10 pairs (ties
//	            count for neither) and the medians differ by more than the
//	            parent's interquartile range;
//	regressed   when the change's median is worse than the parent's by more
//	            than the metric's bound in BENCHMARK.json;
//	unresolved  when either side's interquartile range is wider than the
//	            bound, unless every change run beats every parent run;
//	unchanged   otherwise.
//
// Per-layer metrics have no bound: they are improved or regressed by the
// pairs rule alone. The command exits 1 when an end-to-end metric
// regressed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"text/tabwriter"

	"vertical3d/bench/runset"
)

// metricSpec is one metric of BENCHMARK.json.
type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

type benchmarkFile struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func main() {
	bench := flag.String("benchmark", "../BENCHMARK.json", "the benchmark definition holding each metric's direction and bound")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: compare [-benchmark BENCHMARK.json] PARENT-RUNS CHANGE-RUNS")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}
	regressed, err := run(*bench, flag.Arg(0), flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		os.Exit(2)
	}
	if regressed {
		os.Exit(1)
	}
}

func run(benchPath, parentSpec, changeSpec string) (regressed bool, err error) {
	data, err := os.ReadFile(benchPath)
	if err != nil {
		return false, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return false, fmt.Errorf("%s: %w", benchPath, err)
	}
	specs := map[string]metricSpec{}
	for _, m := range append(bf.EndToEnd, bf.PerLayer...) {
		specs[m.Name] = m
	}
	parent, err := runset.Load(parentSpec)
	if err != nil {
		return false, err
	}
	change, err := runset.Load(changeSpec)
	if err != nil {
		return false, err
	}
	pv, cv := values(parent), values(change)

	keys := make([]key, 0, len(pv))
	for k := range pv {
		if _, ok := cv[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].metric < keys[j].metric
	})
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tparent median [q1, q3]\tchange median [q1, q3]\tdelta\twins\tverdict")
	for _, k := range keys {
		spec, ok := specs[k.metric]
		if !ok {
			continue
		}
		v := judge(spec, pv[k], cv[k])
		if v.verdict == "regressed" && spec.Bound != nil {
			regressed = true
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g [%.4g, %.4g]\t%.4g [%.4g, %.4g]\t%+.1f%%\t%d/%d\t%s\n",
			k.workload, k.metric, spec.Unit, v.p.med, v.p.q1, v.p.q3, v.c.med, v.c.q1, v.c.q3,
			100*(v.c.med-v.p.med)/v.p.med, v.wins, v.pairs, v.verdict)
	}
	return regressed, tw.Flush()
}

type key struct{ workload, metric string }

// values collects each (workload, metric)'s per-run values in run order.
func values(recs []runset.Record) map[key][]float64 {
	out := map[key][]float64{}
	for _, r := range recs {
		for name, m := range r.Metrics {
			k := key{r.Workload, name}
			out[k] = append(out[k], m.Value)
		}
	}
	return out
}

type side struct{ med, q1, q3 float64 }

func summarize(xs []float64) side {
	q1, q3 := runset.Quartiles(xs)
	return side{runset.Median(xs), q1, q3}
}

type verdict struct {
	p, c        side
	wins, pairs int
	verdict     string
}

// judge applies the verdict rule to one metric's two run sets.
func judge(spec metricSpec, parent, change []float64) verdict {
	v := verdict{p: summarize(parent), c: summarize(change)}
	// better reports whether a beats b in the metric's direction.
	better := func(a, b float64) bool {
		if spec.Better == "higher" {
			return a > b
		}
		return a < b
	}
	losses := 0
	v.pairs = min(len(parent), len(change))
	for i := 0; i < v.pairs; i++ {
		switch {
		case better(change[i], parent[i]):
			v.wins++
		case better(parent[i], change[i]):
			losses++
		}
	}
	beyondIQR := math.Abs(v.c.med-v.p.med) > v.p.q3-v.p.q1
	if v.pairs > 0 && 10*v.wins >= 9*v.pairs && beyondIQR && better(v.c.med, v.p.med) {
		v.verdict = "improved"
		return v
	}
	if spec.Bound == nil {
		v.verdict = "unchanged"
		if v.pairs > 0 && 10*losses >= 9*v.pairs && beyondIQR {
			v.verdict = "regressed"
		}
		return v
	}
	bound := *spec.Bound
	worse := (v.c.med - v.p.med) / math.Abs(v.p.med)
	if spec.Better == "higher" {
		worse = -worse
	}
	switch {
	case worse > bound:
		v.verdict = "regressed"
	case spread(v.p) > bound || spread(v.c) > bound:
		v.verdict = "unresolved"
		if allBetter(change, parent, better) {
			v.verdict = "unchanged"
		}
	default:
		v.verdict = "unchanged"
	}
	return v
}

// spread is a run set's interquartile range as a share of its median.
func spread(s side) float64 { return (s.q3 - s.q1) / math.Abs(s.med) }

// allBetter reports whether every change run beats every parent run.
func allBetter(change, parent []float64, better func(a, b float64) bool) bool {
	for _, c := range change {
		for _, p := range parent {
			if !better(c, p) {
				return false
			}
		}
	}
	return len(change) > 0 && len(parent) > 0
}
