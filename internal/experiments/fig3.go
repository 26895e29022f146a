package experiments

import (
	"fmt"
	"time"

	"github.com/stellar-repro/stellar/internal/core"
)

// fig3WarmRefs are the paper's client-observed warm latencies (§VI-A values
// plus the per-provider propagation delays, since §VI-A reports them with
// propagation subtracted while all other sections include it).
var fig3WarmRefs = map[string]Ref{
	"aws":    {Median: 44 * time.Millisecond, P99: 100 * time.Millisecond},
	"google": {Median: 31 * time.Millisecond, P99: 61 * time.Millisecond},
	"azure":  {Median: 57 * time.Millisecond, P99: 107 * time.Millisecond},
}

// fig3ColdRefs are the paper's cold-invocation latencies (§VI-B1).
var fig3ColdRefs = map[string]Ref{
	"aws":    {Median: 448 * time.Millisecond, P99: 672 * time.Millisecond},
	"google": {Median: 870 * time.Millisecond, P99: 1567 * time.Millisecond},
	"azure":  {Median: 1401 * time.Millisecond, P99: 3643 * time.Millisecond},
}

// Fig3Warm reproduces Fig. 3a: latency distributions of warm invocations
// under the short (3 s) IAT, burst size 1.
func Fig3Warm(opts Options) (*Figure, error) {
	opts = opts.normalized()
	fig := &Figure{
		ID:    "fig3a",
		Title: "Warm-function response time CDFs (short IAT)",
		Notes: []string{"latencies are client-observed and include propagation delays"},
	}
	series, err := mapSeries(opts, len(AllProviders), func(i int, seed int64) (Series, error) {
		prov := AllProviders[i]
		res, err := measure(prov, seed, pythonFn("warm", 1), core.RuntimeConfig{
			Samples:       opts.Samples,
			IAT:           core.Duration(shortIAT),
			WarmupDiscard: 3,
		})
		if err != nil {
			return Series{}, fmt.Errorf("fig3a %s: %w", prov, err)
		}
		return seriesFrom(prov, 0, res, fig3WarmRefs[prov]), nil
	})
	if err != nil {
		return nil, err
	}
	fig.Series = series
	return fig, nil
}

// Fig3Cold reproduces Fig. 3b: latency distributions of cold invocations
// under the long IAT (15 min; 10.5 min on AWS), using a fleet of identical
// replica functions invoked round-robin to parallelize the measurement, as
// the paper does (§V).
func Fig3Cold(opts Options) (*Figure, error) {
	opts = opts.normalized()
	fig := &Figure{
		ID:    "fig3b",
		Title: "Cold-function response time CDFs (long IAT)",
	}
	series, err := mapSeries(opts, len(AllProviders), func(i int, seed int64) (Series, error) {
		prov := AllProviders[i]
		res, err := measure(prov, seed, pythonFn("cold", opts.Replicas), core.RuntimeConfig{
			Samples: opts.Samples,
			IAT:     core.Duration(longIATFor(prov) / time.Duration(opts.Replicas)),
		})
		if err != nil {
			return Series{}, fmt.Errorf("fig3b %s: %w", prov, err)
		}
		return seriesFrom(prov, 0, res, fig3ColdRefs[prov]), nil
	})
	if err != nil {
		return nil, err
	}
	fig.Series = series
	return fig, nil
}
