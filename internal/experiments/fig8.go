package experiments

import (
	"fmt"
	"time"

	"github.com/stellar-repro/stellar/internal/core"
)

// Fig8BurstSizes are the burst sizes studied (§VI-D; Fig. 8 sweeps up to
// 500; 1 corresponds to Fig. 3's individual invocations).
var Fig8BurstSizes = []int{1, 100, 300, 500}

// fig8ShortRefs hold the paper's client-observed latencies for bursts with
// the short IAT (§VI-D1 and Table I's bursty-warm row).
var fig8ShortRefs = map[string]map[int]Ref{
	"aws": {
		1:   {Median: 44 * time.Millisecond, P99: 100 * time.Millisecond},
		100: {Median: 88 * time.Millisecond, P99: 484 * time.Millisecond},
		500: {Median: 141 * time.Millisecond, P99: 620 * time.Millisecond},
	},
	"google": {
		1:   {Median: 31 * time.Millisecond, P99: 61 * time.Millisecond},
		100: {Median: 93 * time.Millisecond, P99: 155 * time.Millisecond},
		500: {Median: 96 * time.Millisecond, P99: 182 * time.Millisecond},
	},
	"azure": {
		1:   {Median: 57 * time.Millisecond, P99: 107 * time.Millisecond},
		100: {Median: 285 * time.Millisecond, P99: 2337 * time.Millisecond},
		500: {Median: 1904 * time.Millisecond, P99: 7426 * time.Millisecond},
	},
}

// fig8LongRefs hold the paper's latencies for bursts with the long IAT
// (§VI-D2 and Table I's bursty-cold row).
var fig8LongRefs = map[string]map[int]Ref{
	"aws": {
		1:   {Median: 448 * time.Millisecond, P99: 672 * time.Millisecond},
		100: {Median: 264 * time.Millisecond, P99: 528 * time.Millisecond},
		500: {Median: 300 * time.Millisecond, P99: 560 * time.Millisecond},
	},
	"google": {
		1:   {Median: 870 * time.Millisecond, P99: 1567 * time.Millisecond},
		100: {Median: 1818 * time.Millisecond, P99: 3095 * time.Millisecond},
		500: {Median: 1700 * time.Millisecond, P99: 3000 * time.Millisecond},
	},
	"azure": {
		1:   {Median: 1401 * time.Millisecond, P99: 3643 * time.Millisecond},
		100: {Median: 2337 * time.Millisecond, P99: 3306 * time.Millisecond},
		500: {Median: 5745 * time.Millisecond, P99: 7707 * time.Millisecond},
	},
}

// BurstKind selects the IAT regime of a burst study.
type BurstKind string

// Burst IAT regimes.
const (
	BurstShortIAT BurstKind = "short"
	BurstLongIAT  BurstKind = "long"
)

// runBurst measures one provider at one burst size under the given IAT
// regime. Short-IAT runs discard the first (cold) burst to measure the
// steady state; long-IAT runs measure every (cold) burst.
func runBurst(prov string, seed int64, kind BurstKind, burst, samples int, execTime time.Duration) (*core.RunResult, error) {
	rc := core.RuntimeConfig{
		Samples:   samples,
		BurstSize: burst,
		ExecTime:  core.Duration(execTime),
	}
	if kind == BurstShortIAT {
		rc.IAT = core.Duration(shortIAT)
		rc.WarmupDiscard = burst // drop the first, necessarily cold, burst
	} else {
		rc.IAT = core.Duration(longIATFor(prov))
	}
	return measure(prov, seed, pythonFn("burst", 1), rc)
}

// Fig8Bursts reproduces Fig. 8: latency CDFs for bursty invocation traffic
// with short and long IATs across burst sizes, per provider.
func Fig8Bursts(opts Options) (*Figure, error) {
	opts = opts.normalized()
	fig := &Figure{
		ID:    "fig8",
		Title: "Burst response-time CDFs (short and long IAT)",
		Notes: []string{"burst size 1 equals Fig. 3's individual invocations"},
	}
	type fig8Case struct {
		prov  string
		kind  BurstKind
		burst int
	}
	var cases []fig8Case
	for _, prov := range AllProviders {
		for _, kind := range []BurstKind{BurstShortIAT, BurstLongIAT} {
			for _, burst := range Fig8BurstSizes {
				cases = append(cases, fig8Case{prov, kind, burst})
			}
		}
	}
	series, err := mapSeries(opts, len(cases), func(i int, seed int64) (Series, error) {
		c := cases[i]
		samples := opts.Samples
		if samples < c.burst*2 {
			samples = c.burst * 2 // at least two measured bursts
		}
		res, err := runBurst(c.prov, seed, c.kind, c.burst, samples, 0)
		if err != nil {
			return Series{}, fmt.Errorf("fig8 %s %s burst=%d: %w", c.prov, c.kind, c.burst, err)
		}
		var paper Ref
		switch c.kind {
		case BurstShortIAT:
			paper = fig8ShortRefs[c.prov][c.burst]
		case BurstLongIAT:
			paper = fig8LongRefs[c.prov][c.burst]
		}
		label := fmt.Sprintf("%s %s-IAT burst=%d", c.prov, c.kind, c.burst)
		return seriesFrom(label, float64(c.burst), res, paper), nil
	})
	if err != nil {
		return nil, err
	}
	fig.Series = series
	return fig, nil
}
