package experiments

import (
	"strings"
	"testing"

	"vertical3d/internal/journal"
	"vertical3d/internal/multicore"
	"vertical3d/internal/sram"
)

// TestJournalIdentityGolden pins the exact journal identity of every
// journaled sweep: the experiment name and each key=value pair, in order.
// Journals already on disk are matched by this identity, so a refactor
// that reorders, renames or drops a pair silently orphans them.
func TestJournalIdentityGolden(t *testing.T) {
	quick := QuickRunOptions()
	sampled := quick
	sampled.Sample = true
	warmed := sampled
	warmed.WarmCache = true
	budget := warmed
	budget.SampleErrorBudget = 0.25
	noTrace := warmed
	noTrace.NoTraceCache = true
	fullNoTrace := quick
	fullNoTrace.NoTraceCache = true
	mc := multicore.DefaultOptions()
	mcSampled := mc
	mcSampled.Sample = true
	mcSampled.WarmCache = true

	for _, c := range []struct {
		name string
		id   journal.Identity
		want string
	}{
		{"fig6 full", quick.Identity("fig6"),
			"fig6 warmup=20000 measure=60000 seed=42 stream=0 kernel=event counters=window"},
		{"fig6 sampled", sampled.Identity("fig6"),
			"fig6 warmup=20000 measure=60000 seed=42 stream=0 kernel=event counters=window sample=100000:1000:4000 budget=0.5"},
		{"fig6 sampled warm cache", warmed.Identity("fig6"),
			"fig6 warmup=20000 measure=60000 seed=42 stream=0 kernel=event counters=window sample=100000:1000:4000 budget=0.5 warm=snapshot"},
		{"fig6 sampled budget", budget.Identity("fig6"),
			"fig6 warmup=20000 measure=60000 seed=42 stream=0 kernel=event counters=window sample=100000:1000:4000 budget=0.25 warm=snapshot"},
		{"fig6 sampled NoTraceCache", noTrace.Identity("fig6"),
			"fig6 warmup=20000 measure=60000 seed=42 stream=0 kernel=event counters=window sample=100000:1000:4000 budget=0.5"},
		{"fig6 full NoTraceCache", fullNoTrace.Identity("fig6"),
			"fig6 warmup=20000 measure=60000 seed=42 stream=0 kernel=event counters=window"},
		{"fig9", MCIdentity(mc, "fig9"),
			"fig9 instrs=600000 warmup=30000 phases=4 seed=42 lockstep=false streambase=0 kernel=event"},
		{"fig9 sampled warm cache", MCIdentity(mcSampled, "fig9"),
			"fig9 instrs=600000 warmup=30000 phases=4 seed=42 lockstep=false streambase=0 kernel=event sample=warmup warm=snapshot"},
		{"lpstudy", DefaultRunOptions().Identity("lpstudy"),
			"lpstudy warmup=80000 measure=200000 seed=42 stream=0 kernel=event counters=window"},
		{"strategy BP", StrategyTableIdentity(sram.BitPart), "strategy strategy=BP node=22nm-HP"},
		{"strategy WP", StrategyTableIdentity(sram.WordPart), "strategy strategy=WP node=22nm-HP"},
		{"strategy PP", StrategyTableIdentity(sram.PortPart), "strategy strategy=PP node=22nm-HP"},
		{"table6", Table6Identity(), "table6 node=22nm-HP"},
	} {
		parts := []string{c.id.Experiment}
		for _, p := range c.id.Params {
			parts = append(parts, p.Key+"="+p.Value)
		}
		if got := strings.Join(parts, " "); got != c.want {
			t.Errorf("%s identity:\n got %s\nwant %s", c.name, got, c.want)
		}
	}
}
