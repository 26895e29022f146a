// Package sketch implements a deterministic, mergeable quantile sketch for
// bounded-memory tail-latency measurement at million-invocation scale.
//
// The sketch is a t-digest-style centroid summary whose compression rule is
// deterministic by construction: instead of insertion-order-dependent
// centroid clustering, observations land in a fixed geometric grid of
// buckets — bucket k covers (gamma^(k-1), gamma^k] nanoseconds with
// gamma = (1+alpha)/(1-alpha). Because a value's bucket depends only on the
// value, Merge is exact integer addition of bucket counts: associative,
// commutative, and byte-identical no matter how a stream is sharded across
// workers. That is the property the runner's determinism contract needs
// (Workers=1 ≡ Workers=N) and that insertion-order-sensitive digests cannot
// provide.
//
// The grid spans a fixed trackable range (1µs to 24h): the bucket array is
// allocated once at construction and never grows, so a sketch's memory is a
// constant decided by alpha alone — independent of how many observations
// stream through it. Values outside the range clamp into the edge buckets
// (and are still tracked exactly by Min/Max), values <= 0 (clamped
// latencies) land in a dedicated zero bucket.
//
// Accuracy: any reported quantile inside the trackable range is a bucket
// representative within relative error alpha of the true order statistic
// (the DDSketch bound), so alpha=0.005 keeps p50/p99 comfortably within the
// 1% acceptance band against exact percentiles.
package sketch

import (
	"fmt"
	"math"
	"time"

	"github.com/stellar-repro/stellar/internal/stats"
)

// DefaultAlpha is the default relative-accuracy target (0.5%), chosen so
// sketch quantiles stay comfortably inside the 1% acceptance band against
// exact percentiles while keeping the grid in the low thousands of buckets.
const DefaultAlpha = 0.005

// maxAlpha bounds the accuracy parameter away from useless coarseness;
// minAlpha keeps the dense grid from exceeding ~1MB.
const (
	maxAlpha = 0.1
	minAlpha = 0.0005
)

// The fixed trackable range. Below minTrackable the grid would need
// unbounded resolution for values that are three orders of magnitude under
// any latency this simulator produces; above maxTrackable no serverless
// response time is meaningful. Out-of-range values clamp to the edge
// buckets; Min/Max stay exact.
const (
	minTrackable = time.Microsecond
	maxTrackable = 24 * time.Hour
)

// Sketch is a deterministic mergeable quantile sketch over durations. The
// zero value is not usable; construct with New. Sketch is not safe for
// concurrent mutation (DES shards are single-threaded; cross-shard
// aggregation goes through Merge).
type Sketch struct {
	alpha      float64
	gamma      float64
	invLnGamma float64

	// counts is the dense bucket grid: counts[i] is the population of grid
	// bucket kmin+i. Allocated once at New, never grown.
	counts []uint64
	kmin   int32

	// zero counts observations <= 0.
	zero  uint64
	total uint64

	// sum accumulates nanoseconds (saturating) for Mean; integer addition
	// keeps Merge order-independent where a float sum would not be.
	sum       int64
	saturated bool

	min, max time.Duration
}

// ValidateAlpha rejects a relative-accuracy target outside [0.0005, 0.1],
// NaN included. It does not resolve 0: callers that treat 0 as "default"
// substitute DefaultAlpha (or their own default) first.
func ValidateAlpha(alpha float64) error {
	if !(alpha >= minAlpha && alpha <= maxAlpha) {
		return fmt.Errorf("sketch: alpha %v outside [%v, %v]", alpha, minAlpha, maxAlpha)
	}
	return nil
}

// New returns an empty sketch with the given relative-accuracy target
// (0 means DefaultAlpha). It panics on alpha outside [0.0005, 0.1],
// matching the dist constructors' fail-fast convention for static
// misconfiguration; options that reach New validate with ValidateAlpha
// first so user input never panics.
func New(alpha float64) *Sketch {
	if alpha == 0 {
		alpha = DefaultAlpha
	}
	if err := ValidateAlpha(alpha); err != nil {
		panic(err.Error())
	}
	gamma := (1 + alpha) / (1 - alpha)
	invLnGamma := 1 / math.Log(gamma)
	kmin := int32(math.Ceil(math.Log(float64(minTrackable)) * invLnGamma))
	kmax := int32(math.Ceil(math.Log(float64(maxTrackable)) * invLnGamma))
	return &Sketch{
		alpha:      alpha,
		gamma:      gamma,
		invLnGamma: invLnGamma,
		counts:     make([]uint64, kmax-kmin+1),
		kmin:       kmin,
	}
}

// Alpha reports the sketch's relative-accuracy target.
func (s *Sketch) Alpha() float64 { return s.alpha }

// slot returns the grid offset of a strictly positive duration, clamping
// out-of-range values to the edge buckets.
func (s *Sketch) slot(v time.Duration) int {
	i := int(int32(math.Ceil(math.Log(float64(v))*s.invLnGamma)) - s.kmin)
	if i < 0 {
		return 0
	}
	if i >= len(s.counts) {
		return len(s.counts) - 1
	}
	return i
}

// value returns slot i's representative: the bucket midpoint
// 2*gamma^k/(gamma+1), within relative error alpha of every in-range value
// in the bucket.
func (s *Sketch) value(i int) time.Duration {
	return time.Duration(2 * math.Pow(s.gamma, float64(s.kmin+int32(i))) / (s.gamma + 1))
}

// Add records one observation.
func (s *Sketch) Add(v time.Duration) { s.AddN(v, 1) }

// AddN records n copies of an observation in O(1).
func (s *Sketch) AddN(v time.Duration, n uint64) {
	if n == 0 {
		return
	}
	if s.total == 0 || v < s.min {
		s.min = v
	}
	if s.total == 0 || v > s.max {
		s.max = v
	}
	s.total += n
	s.addSum(int64(v), n)
	if v <= 0 {
		s.zero += n
		return
	}
	s.counts[s.slot(v)] += n
}

// addSum accumulates n*v nanoseconds, saturating at ±MaxInt64 so the mean
// degrades gracefully instead of wrapping on extreme runs.
func (s *Sketch) addSum(v int64, n uint64) {
	if s.saturated || v == 0 || n == 0 {
		return
	}
	if v == math.MinInt64 {
		s.saturate(-1)
		return
	}
	av := v
	if av < 0 {
		av = -av
	}
	if uint64(math.MaxInt64)/uint64(av) < n {
		s.saturate(v)
		return
	}
	prod := v * int64(n)
	next := s.sum + prod
	// Two's-complement overflow: operands share a sign, result flips it.
	if (s.sum > 0 && prod > 0 && next < 0) || (s.sum < 0 && prod < 0 && next > 0) {
		s.saturate(prod)
		return
	}
	s.sum = next
}

// saturate pins the sum at the extreme matching sign.
func (s *Sketch) saturate(sign int64) {
	s.saturated = true
	if sign < 0 {
		s.sum = math.MinInt64
	} else {
		s.sum = math.MaxInt64
	}
}

// Count reports the number of recorded observations.
func (s *Sketch) Count() uint64 { return s.total }

// Buckets reports the number of occupied grid buckets (reporting only; the
// footprint is the fixed grid, see MemoryBytes).
func (s *Sketch) Buckets() int {
	n := 0
	for _, c := range s.counts {
		if c != 0 {
			n++
		}
	}
	if s.zero > 0 {
		n++
	}
	return n
}

// GridBuckets reports the fixed grid size decided by alpha.
func (s *Sketch) GridBuckets() int { return len(s.counts) }

// MemoryBytes reports the sketch's modeled resident size: the fixed grid
// plus the struct header. It is a deterministic function of alpha alone —
// never of Count — which is the heap-bound gates' invariant.
func (s *Sketch) MemoryBytes() int {
	return len(s.counts)*8 + 112
}

// Min returns the smallest observation. It panics on an empty sketch,
// matching stats.Sample.
func (s *Sketch) Min() time.Duration {
	s.mustNotBeEmpty("min")
	return s.min
}

// Max returns the largest observation.
func (s *Sketch) Max() time.Duration {
	s.mustNotBeEmpty("max")
	return s.max
}

// Mean returns the arithmetic mean (0 on empty, matching stats.Sample).
func (s *Sketch) Mean() time.Duration {
	if s.total == 0 {
		return 0
	}
	return time.Duration(float64(s.sum) / float64(s.total))
}

func (s *Sketch) mustNotBeEmpty(what string) {
	if s.total == 0 {
		panic("sketch: " + what + " of empty sketch")
	}
}

// Quantile returns the q-th quantile (0 <= q <= 1) as the representative of
// the bucket holding that order statistic, clamped to the observed
// [Min, Max]. It panics on an empty sketch, matching Sample.Percentile.
func (s *Sketch) Quantile(q float64) time.Duration {
	s.mustNotBeEmpty("quantile")
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// Target the same closest-rank convention as Sample.Percentile:
	// rank q*(n-1) in 0-based order, i.e. the (floor(rank)+1)-th smallest.
	target := uint64(math.Floor(q*float64(s.total-1))) + 1
	// The extreme order statistics are tracked exactly.
	if target == 1 {
		return s.min
	}
	if target >= s.total {
		return s.max
	}
	cum := s.zero
	if cum >= target {
		return s.clamp(s.min)
	}
	for i, c := range s.counts {
		cum += c
		if cum >= target {
			return s.clamp(s.value(i))
		}
	}
	return s.max
}

// clamp restricts a bucket representative to the observed range, so edge
// buckets report exact endpoints.
func (s *Sketch) clamp(v time.Duration) time.Duration {
	if v < s.min {
		return s.min
	}
	if v > s.max {
		return s.max
	}
	return v
}

// Percentile returns the p-th percentile (0 <= p <= 100), mirroring
// stats.Sample for drop-in use at report sites.
func (s *Sketch) Percentile(p float64) time.Duration { return s.Quantile(p / 100) }

// CDF returns the cumulative distribution over occupied bucket
// representatives with strictly increasing values and non-decreasing
// fractions, the same shape stats.Sample.CDF produces for the plot and CSV
// layers.
func (s *Sketch) CDF() []stats.CDFPoint {
	if s.total == 0 {
		return nil
	}
	points := make([]stats.CDFPoint, 0, s.Buckets())
	cum := uint64(0)
	if s.zero > 0 {
		cum = s.zero
		points = append(points, stats.CDFPoint{Value: s.clamp(0), Frac: float64(cum) / float64(s.total)})
	}
	for i, c := range s.counts {
		if c == 0 {
			continue
		}
		cum += c
		v := s.clamp(s.value(i))
		if len(points) > 0 && v <= points[len(points)-1].Value {
			// Clamping can collapse the edge buckets onto min/max; keep
			// the highest fraction for the collapsed value.
			points[len(points)-1].Frac = float64(cum) / float64(s.total)
			continue
		}
		points = append(points, stats.CDFPoint{Value: v, Frac: float64(cum) / float64(s.total)})
	}
	return points
}

// Merge folds another sketch into this one in O(grid). Both sketches must
// share the same alpha; merging is exact, so merge(shard sketches) is
// byte-identical to sketching the unsharded stream, in any merge order.
func (s *Sketch) Merge(o *Sketch) error {
	if o == nil || o.total == 0 {
		return nil
	}
	if o.alpha != s.alpha {
		return fmt.Errorf("sketch: merge of alpha=%v into alpha=%v", o.alpha, s.alpha)
	}
	if s.total == 0 || o.min < s.min {
		s.min = o.min
	}
	if s.total == 0 || o.max > s.max {
		s.max = o.max
	}
	s.total += o.total
	s.zero += o.zero
	if o.saturated {
		s.saturate(o.sum)
	} else {
		s.addSum(o.sum, 1)
	}
	for i, c := range o.counts {
		s.counts[i] += c
	}
	return nil
}

// TMR returns the tail-to-median ratio (p99/median), the paper's
// predictability metric, computed from sketch quantiles.
func (s *Sketch) TMR() float64 {
	m := s.Quantile(0.5)
	if m == 0 {
		return math.Inf(1)
	}
	return float64(s.Quantile(0.99)) / float64(m)
}

// Summarize computes the headline metrics from sketch quantiles.
func (s *Sketch) Summarize() stats.Summary {
	return stats.Summary{
		Count:  int(s.total),
		Min:    s.Min(),
		Median: s.Quantile(0.5),
		P95:    s.Quantile(0.95),
		P99:    s.Quantile(0.99),
		Max:    s.Max(),
		Mean:   s.Mean(),
		TMR:    s.TMR(),
	}
}

// Record is the sketch's compact serialized form: occupied bucket indexes
// (ascending) with their counts. The encoding is canonical — two sketches
// with equal contents marshal to identical bytes, which is what the
// determinism suite compares.
type Record struct {
	// Alpha is the relative-accuracy target.
	Alpha float64 `json:"alpha"`
	// Count is the total number of observations.
	Count uint64 `json:"count"`
	// Zero counts non-positive observations.
	Zero uint64 `json:"zero,omitempty"`
	// MinNS/MaxNS/SumNS are exact range and (saturating) sum trackers.
	MinNS int64 `json:"min_ns"`
	MaxNS int64 `json:"max_ns"`
	SumNS int64 `json:"sum_ns"`
	// Keys are the occupied grid bucket indexes, ascending; Counts aligns.
	Keys   []int32  `json:"keys"`
	Counts []uint64 `json:"counts"`
}

// Record returns the canonical serialized form.
func (s *Sketch) Record() *Record {
	rec := &Record{
		Alpha: s.alpha,
		Count: s.total,
		Zero:  s.zero,
		MinNS: int64(s.min),
		MaxNS: int64(s.max),
		SumNS: s.sum,
	}
	for i, c := range s.counts {
		if c == 0 {
			continue
		}
		rec.Keys = append(rec.Keys, s.kmin+int32(i))
		rec.Counts = append(rec.Counts, c)
	}
	return rec
}

// FromRecord rebuilds a sketch from its serialized form.
func FromRecord(rec *Record) (*Sketch, error) {
	if rec == nil {
		return nil, fmt.Errorf("sketch: nil record")
	}
	if len(rec.Keys) != len(rec.Counts) {
		return nil, fmt.Errorf("sketch: record has %d keys but %d counts", len(rec.Keys), len(rec.Counts))
	}
	if err := ValidateAlpha(rec.Alpha); err != nil {
		return nil, fmt.Errorf("sketch: record: %w", err)
	}
	s := New(rec.Alpha)
	s.total = rec.Count
	s.zero = rec.Zero
	s.min = time.Duration(rec.MinNS)
	s.max = time.Duration(rec.MaxNS)
	s.sum = rec.SumNS
	s.saturated = rec.SumNS == math.MaxInt64 || rec.SumNS == math.MinInt64
	bucketed := rec.Zero
	for j, k := range rec.Keys {
		if rec.Counts[j] == 0 {
			return nil, fmt.Errorf("sketch: record bucket %d has zero count", k)
		}
		i := int(k - s.kmin)
		if i < 0 || i >= len(s.counts) {
			return nil, fmt.Errorf("sketch: record bucket %d outside the grid", k)
		}
		s.counts[i] += rec.Counts[j]
		bucketed += rec.Counts[j]
	}
	if bucketed != rec.Count {
		return nil, fmt.Errorf("sketch: record counts sum to %d, want %d", bucketed, rec.Count)
	}
	return s, nil
}
