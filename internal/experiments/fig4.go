package experiments

import (
	"fmt"
	"time"

	"github.com/stellar-repro/stellar/internal/cloud"
	"github.com/stellar-repro/stellar/internal/core"
)

// fig4Refs hold the paper's cold-start latencies by provider and added
// random-content file size (§VI-B2; medians/tails derived from Fig. 4 and
// Table I's image-size row).
var fig4Refs = map[string]map[int64]Ref{
	"aws": {
		10 << 20:  {Median: 400 * time.Millisecond, P99: 520 * time.Millisecond},
		100 << 20: {Median: 1276 * time.Millisecond, P99: 2155 * time.Millisecond},
	},
	"google": {
		10 << 20:  {Median: 527 * time.Millisecond, P99: 1860 * time.Millisecond},
		100 << 20: {Median: 527 * time.Millisecond, P99: 1860 * time.Millisecond},
	},
	"azure": {
		10 << 20:  {Median: 1401 * time.Millisecond, P99: 3577 * time.Millisecond},
		100 << 20: {Median: 3363 * time.Millisecond, P99: 5723 * time.Millisecond},
	},
}

// Fig4ImageSizes are the added random-content file sizes studied.
var Fig4ImageSizes = []int64{10 << 20, 100 << 20}

// Fig4ImageSize reproduces Fig. 4: cold-start latency as a function of the
// extra random-content file added to the function image. Go functions
// minimize the base image (§V); ZIP deployment only (supported everywhere).
func Fig4ImageSize(opts Options) (*Figure, error) {
	opts = opts.normalized()
	fig := &Figure{
		ID:    "fig4",
		Title: "Cold-start latency vs. function image size",
		Notes: []string{"Go ZIP functions; extra random-content file of 10MB / 100MB"},
	}
	type fig4Case struct {
		prov string
		size int64
	}
	var cases []fig4Case
	for _, prov := range AllProviders {
		for _, size := range Fig4ImageSizes {
			cases = append(cases, fig4Case{prov, size})
		}
	}
	series, err := mapSeries(opts, len(cases), func(i int, seed int64) (Series, error) {
		c := cases[i]
		sc := core.StaticConfig{Functions: []core.FunctionConfig{{
			Name:            "imgsize",
			Runtime:         string(cloud.RuntimeGo),
			Method:          string(cloud.DeployZIP),
			ExtraImageBytes: c.size,
			Replicas:        opts.Replicas,
		}}}
		res, err := measure(c.prov, seed, sc, core.RuntimeConfig{
			Samples: opts.Samples,
			IAT:     core.Duration(longIATFor(c.prov) / time.Duration(opts.Replicas)),
		})
		if err != nil {
			return Series{}, fmt.Errorf("fig4 %s %dMB: %w", c.prov, c.size>>20, err)
		}
		label := fmt.Sprintf("%s +%dMB", c.prov, c.size>>20)
		return seriesFrom(label, float64(c.size), res, fig4Refs[c.prov][c.size]), nil
	})
	if err != nil {
		return nil, err
	}
	fig.Series = series
	return fig, nil
}
