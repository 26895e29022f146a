package stats

import (
	"fmt"
	"math/rand"
	"slices"
	"time"
)

// CI is a two-sided confidence interval for a percentile estimate.
type CI struct {
	// Point is the sample percentile itself.
	Point time.Duration
	// Lo and Hi bound the interval.
	Lo, Hi time.Duration
	// Confidence is the nominal coverage (e.g., 0.95).
	Confidence float64
}

// String renders the interval compactly.
func (ci CI) String() string {
	return fmt.Sprintf("%v [%v, %v] @%.0f%%",
		ci.Point.Round(time.Millisecond), ci.Lo.Round(time.Millisecond),
		ci.Hi.Round(time.Millisecond), ci.Confidence*100)
}

// MinResamples is the fewest bootstrap resamples PercentileCI uses as given;
// it replaces a smaller count with 200.
const MinResamples = 10

// PercentileCI estimates a confidence interval for the p-th percentile via
// the bootstrap: resamples resamplings of the data with replacement, the
// percentile of each, and the empirical (alpha/2, 1-alpha/2) quantiles of
// those estimates. Tail percentiles of small samples get wide intervals —
// exactly the signal a tail-latency methodology needs before comparing two
// systems' p99s.
func (s *Sample) PercentileCI(p, confidence float64, resamples int, rng *rand.Rand) CI {
	if s.Len() == 0 {
		panic("stats: bootstrap on empty sample")
	}
	if !(confidence > 0 && confidence < 1) { // NaN fails both comparisons
		panic(fmt.Sprintf("stats: confidence %v out of (0,1)", confidence))
	}
	if resamples < MinResamples {
		resamples = 200
	}
	values := s.Values()
	n := len(values)
	estimates := make([]time.Duration, resamples)
	resample := make([]time.Duration, n)
	tmp := &Sample{}
	for r := 0; r < resamples; r++ {
		for i := 0; i < n; i++ {
			resample[i] = values[rng.Intn(n)]
		}
		tmp.values = resample
		tmp.sorted = false
		estimates[r] = tmp.Percentile(p)
	}
	slices.Sort(estimates)
	alpha := 1 - confidence
	lo := estimates[int(alpha/2*float64(resamples))]
	hiIdx := int((1 - alpha/2) * float64(resamples))
	if hiIdx >= resamples {
		hiIdx = resamples - 1
	}
	return CI{
		Point:      s.Percentile(p),
		Lo:         lo,
		Hi:         estimates[hiIdx],
		Confidence: confidence,
	}
}

// MedianCI is PercentileCI at p=50.
func (s *Sample) MedianCI(confidence float64, resamples int, rng *rand.Rand) CI {
	return s.PercentileCI(50, confidence, resamples, rng)
}

// P99CI is PercentileCI at p=99.
func (s *Sample) P99CI(confidence float64, resamples int, rng *rand.Rand) CI {
	return s.PercentileCI(99, confidence, resamples, rng)
}

// Overlaps reports whether two intervals overlap — a quick screen for
// "these two tails are statistically indistinguishable".
func (ci CI) Overlaps(other CI) bool {
	return ci.Lo <= other.Hi && other.Lo <= ci.Hi
}
