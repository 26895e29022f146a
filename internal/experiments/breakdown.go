package experiments

import (
	"fmt"
	"io"
	"time"

	"github.com/stellar-repro/stellar/internal/core"
	"github.com/stellar-repro/stellar/internal/runner"
)

// BreakdownScenario names one load regime of the per-component study.
type BreakdownScenario string

// Studied regimes: the three rows of Table I where the interesting
// components differ most.
const (
	ScenarioWarm      BreakdownScenario = "warm"
	ScenarioCold      BreakdownScenario = "cold"
	ScenarioBurstCold BreakdownScenario = "bursty-cold"
)

// BreakdownResult holds per-provider, per-scenario component statistics.
type BreakdownResult struct {
	// Stats maps provider -> scenario -> aggregated breakdowns.
	Stats map[string]map[BreakdownScenario]*core.BreakdownStats
	// Latencies maps provider -> scenario -> run result for headline
	// numbers.
	Latencies map[string]map[BreakdownScenario]*core.RunResult
}

// BreakdownStudy quantifies the paper's per-component analysis (§VII-A):
// for each provider and load regime, which infrastructure component
// contributes how much latency. It makes the paper's two headline trends
// directly visible: storage accesses dominate cold paths, and queueing
// dominates bursts.
func BreakdownStudy(opts Options) (*BreakdownResult, error) {
	opts = opts.normalized()
	res := &BreakdownResult{
		Stats:     make(map[string]map[BreakdownScenario]*core.BreakdownStats),
		Latencies: make(map[string]map[BreakdownScenario]*core.RunResult),
	}
	type bdCase struct {
		prov string
		scen BreakdownScenario
	}
	var cases []bdCase
	for _, prov := range AllProviders {
		for _, scen := range []BreakdownScenario{ScenarioWarm, ScenarioCold, ScenarioBurstCold} {
			cases = append(cases, bdCase{prov, scen})
		}
	}
	runs, err := runner.Map(opts.pool(), len(cases), func(sh runner.Shard) (*core.RunResult, error) {
		c := cases[sh.Index]
		var r *core.RunResult
		var err error
		switch c.scen {
		case ScenarioWarm:
			r, err = runBurst(c.prov, sh.Seed, BurstShortIAT, 1, opts.Samples, 0)
		case ScenarioCold:
			r, err = measure(c.prov, sh.Seed, pythonFn("cold", opts.Replicas), coldRC(c.prov, opts))
		case ScenarioBurstCold:
			r, err = runBurst(c.prov, sh.Seed, BurstLongIAT, 100, burstSamples(opts, 100), 0)
		}
		if err != nil {
			return nil, fmt.Errorf("breakdown %s %s: %w", c.prov, c.scen, err)
		}
		return r, nil
	})
	if err != nil {
		return nil, err
	}
	for i, c := range cases {
		if res.Stats[c.prov] == nil {
			res.Stats[c.prov] = make(map[BreakdownScenario]*core.BreakdownStats)
			res.Latencies[c.prov] = make(map[BreakdownScenario]*core.RunResult)
		}
		res.Stats[c.prov][c.scen] = runs[i].Breakdowns()
		res.Latencies[c.prov][c.scen] = runs[i]
	}
	return res, nil
}

// WriteBreakdownReport renders the study: per provider and scenario, the
// mean contribution of every component (means add up across components, so
// shares are meaningful), plus the cold-start phase split.
func WriteBreakdownReport(w io.Writer, res *BreakdownResult) {
	fmt.Fprintf(w, "## breakdown — per-component latency contributions (§VII-A)\n\n")
	for _, prov := range AllProviders {
		for _, scen := range []BreakdownScenario{ScenarioWarm, ScenarioCold, ScenarioBurstCold} {
			bs := res.Stats[prov][scen]
			run := res.Latencies[prov][scen]
			if bs == nil || run == nil {
				continue
			}
			total := run.Latencies.Mean()
			fmt.Fprintf(w, "%s / %s  (mean latency %v, %d samples)\n",
				prov, scen, total.Round(time.Millisecond), run.Latencies.Len())
			for _, name := range bs.Order {
				s := bs.Components[name]
				if s.Len() == 0 || s.Max() == 0 {
					continue
				}
				mean := s.Mean()
				share := 0.0
				if total > 0 {
					share = float64(mean) / float64(total) * 100
				}
				fmt.Fprintf(w, "  %-18s %10v  %5.1f%%\n", name, mean.Round(100*time.Microsecond), share)
			}
			if coldSample := bs.Cold[bs.ColdOrder[0]]; coldSample != nil && coldSample.Len() > 0 {
				fmt.Fprintf(w, "  cold-start phases (within queue-wait, %d cold):\n", coldSample.Len())
				for _, name := range bs.ColdOrder {
					s := bs.Cold[name]
					if s.Len() == 0 || s.Max() == 0 {
						continue
					}
					fmt.Fprintf(w, "    %-18s %10v\n", name, s.Mean().Round(100*time.Microsecond))
				}
			}
			fmt.Fprintln(w)
		}
	}
	fmt.Fprintln(w, "reading: in warm regimes propagation+front-end dominate; in cold")
	fmt.Fprintln(w, "regimes queue-wait (the cold start, itself dominated by image fetch /")
	fmt.Fprintln(w, "boot / init) takes over; under bursts congestion and queueing grow —")
	fmt.Fprintln(w, "the storage and burstiness trends of Table I, seen per component.")
}
