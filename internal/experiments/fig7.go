package experiments

import (
	"fmt"
	"time"
)

// Fig7Payloads is the storage-based transfer payload sweep (§VI-C2: 1KB to
// 1GB).
var Fig7Payloads = []int64{1 << 10, 10 << 10, 100 << 10, 1 << 20, 10 << 20, 100 << 20, 1 << 30}

// fig7Refs hold the paper's storage-based transfer times (§VI-C2).
var fig7Refs = map[string]map[int64]Ref{
	"aws": {
		1 << 20:   {Median: 111 * time.Millisecond, P99: 1177 * time.Millisecond},
		100 << 20: {Median: 880 * time.Millisecond},
	},
	"google": {
		1 << 20:   {Median: 155 * time.Millisecond, P99: 5781 * time.Millisecond},
		100 << 20: {Median: 1960 * time.Millisecond},
	},
}

// Fig7Storage reproduces Fig. 7: storage-based data-transfer latency as a
// function of payload size (producer PUTs to the storage service, consumer
// GETs after being invoked).
func Fig7Storage(opts Options) (*Figure, error) {
	opts = opts.normalized()
	fig := &Figure{
		ID:    "fig7",
		Title: "Storage-based data-transfer latency vs. payload size",
		Notes: []string{"two-function Go chain via S3 / Cloud Storage; instrumented transfer time"},
	}
	cases := transferCases(Fig7Payloads)
	series, err := mapSeries(opts, len(cases), func(i int, seed int64) (Series, error) {
		c := cases[i]
		// Very large payloads transfer slowly; scale the sample count
		// down to keep the virtual experiment tractable, as the paper
		// effectively does by fixing wall-clock budget per sweep point.
		samples := opts.Samples
		if c.payload >= 100<<20 && samples > 600 {
			samples = 600
		}
		res, err := runTransfer(c.prov, seed, "storage", c.payload, samples)
		if err != nil {
			return Series{}, fmt.Errorf("fig7 %s %dB: %w", c.prov, c.payload, err)
		}
		label := fmt.Sprintf("%s %s", c.prov, sizeLabel(c.payload))
		return transferSeriesFrom(label, float64(c.payload), res, fig7Refs[c.prov][c.payload])
	})
	if err != nil {
		return nil, err
	}
	fig.Series = series
	return fig, nil
}

// EffectiveBandwidthMbps computes the paper's effective-bandwidth metric:
// payload size divided by the median transfer time, in Mb/s (§V).
func EffectiveBandwidthMbps(payloadBytes int64, median time.Duration) float64 {
	if median <= 0 {
		return 0
	}
	return float64(payloadBytes) * 8 / median.Seconds() / 1e6
}
