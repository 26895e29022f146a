package experiments

import (
	"fmt"
	"time"
)

// fig9Refs hold the paper's burst-of-100 latencies for functions with a
// 1-second execution time under the long IAT (§VI-D3).
var fig9Refs = map[string]map[int]Ref{
	"aws": {
		1:   {Median: 1498 * time.Millisecond, P99: 1750 * time.Millisecond},
		100: {Median: 1598 * time.Millisecond, P99: 1865 * time.Millisecond},
	},
	"google": {
		1:   {Median: 1870 * time.Millisecond, P99: 2567 * time.Millisecond},
		100: {Median: 2978 * time.Millisecond, P99: 4595 * time.Millisecond},
	},
	"azure": {
		1:   {Median: 2401 * time.Millisecond, P99: 4643 * time.Millisecond},
		100: {Median: 18637 * time.Millisecond, P99: 38545 * time.Millisecond},
	},
}

// Fig9ExecTime is the busy-spin duration of the studied functions: 1 s,
// chosen to exceed every provider's median cold start (§VI-D3).
const Fig9ExecTime = time.Second

// Fig9BurstSizes are the burst sizes studied.
var Fig9BurstSizes = []int{1, 100}

// Fig9Scheduling reproduces Fig. 9: the implications of the scheduling
// policy for bursts of long-running (1 s) functions with a long IAT. A
// policy that lets invocations queue at active instances (Azure, partially
// Google) inflates completion time by up to two orders of magnitude versus
// spawning dedicated instances (AWS).
func Fig9Scheduling(opts Options) (*Figure, error) {
	opts = opts.normalized()
	fig := &Figure{
		ID:    "fig9",
		Title: "Burst latency with 1-second function execution time (long IAT)",
	}
	type fig9Case struct {
		prov  string
		burst int
	}
	var cases []fig9Case
	for _, prov := range AllProviders {
		for _, burst := range Fig9BurstSizes {
			cases = append(cases, fig9Case{prov, burst})
		}
	}
	series, err := mapSeries(opts, len(cases), func(i int, seed int64) (Series, error) {
		c := cases[i]
		samples := opts.Samples
		if c.burst == 1 {
			// Burst size 1 has no queueing potential; a smaller sample
			// suffices for its reference CDF.
			samples = min(samples, 300)
		} else if samples < c.burst*2 {
			samples = c.burst * 2
		}
		res, err := runBurst(c.prov, seed, BurstLongIAT, c.burst, samples, Fig9ExecTime)
		if err != nil {
			return Series{}, fmt.Errorf("fig9 %s burst=%d: %w", c.prov, c.burst, err)
		}
		label := fmt.Sprintf("%s burst=%d", c.prov, c.burst)
		return seriesFrom(label, float64(c.burst), res, fig9Refs[c.prov][c.burst]), nil
	})
	if err != nil {
		return nil, err
	}
	fig.Series = series
	return fig, nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
