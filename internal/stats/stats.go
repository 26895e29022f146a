// Package stats implements the latency statistics used throughout the
// reproduction: exact percentiles, empirical CDFs, and the paper's
// tail-to-median (TMR) and median/tail-to-base-median (MR/TR) metrics.
package stats

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"time"
)

// Sample is a collection of duration observations. The zero value is ready
// to use. Sample is not safe for concurrent mutation.
//
// A sample sorts itself once, at its first order query, with a radix sort
// that returns exactly what slices.Sort would (see sortDurations) at a few
// linear passes over the sample plus one scratch buffer of half its size.
// Sharded drivers sort each shard's sample on its worker goroutine (Sort)
// and fold the sorted runs into one accumulator with Merge, a linear pass,
// so the reducing goroutine never sorts.
type Sample struct {
	values []time.Duration
	sorted bool
}

// NewSample returns a sample pre-sized for n observations.
func NewSample(n int) *Sample { return &Sample{values: make([]time.Duration, 0, n)} }

// FromDurations wraps the given observations (the slice is copied).
func FromDurations(values []time.Duration) *Sample {
	s := NewSample(len(values))
	s.values = append(s.values, values...)
	return s
}

// Add records one observation.
func (s *Sample) Add(v time.Duration) {
	s.values = append(s.values, v)
	s.sorted = false
}

// AddAll records many observations. The backing array is grown to the final
// size in one step, so bulk-loading a large run does not reallocate per
// append doubling.
func (s *Sample) AddAll(vs []time.Duration) {
	s.values = slices.Grow(s.values, len(vs))
	s.values = append(s.values, vs...)
	s.sorted = false
}

// AddN records n copies of an observation (Recorder conformance: the exact
// counterpart of a sketch bucket increment, O(n) by nature).
func (s *Sample) AddN(v time.Duration, n uint64) {
	if n == 0 {
		return
	}
	s.values = slices.Grow(s.values, int(n))
	for ; n > 0; n-- {
		s.values = append(s.values, v)
	}
	s.sorted = false
}

// Merge folds other's observations into s and leaves s sorted. Both are
// sorted first if they are not (which sorts other in place), then the two
// sorted runs are merged in one linear pass from the back, in place. When s
// already has capacity for both, as an accumulator pre-sized with NewSample
// does, Merge allocates nothing.
func (s *Sample) Merge(other *Sample) {
	s.ensureSorted()
	other.ensureSorted()
	b := other.values
	i, j := len(s.values)-1, len(b)-1
	out := slices.Grow(s.values, len(b))[:len(s.values)+len(b)]
	// The write index k = i+j+1 stays above both read indices, so no
	// unread element is overwritten, even when other is s itself. Once b
	// is exhausted, the receiver's remaining prefix is already in place.
	for k := len(out) - 1; j >= 0; k-- {
		if i >= 0 && out[i] > b[j] {
			out[k] = out[i]
			i--
		} else {
			out[k] = b[j]
			j--
		}
	}
	s.values = out
}

// Sort sorts the observations in place, so later order queries and Merge
// calls need not. Sharded drivers call it on the worker that filled the
// sample.
func (s *Sample) Sort() { s.ensureSorted() }

// Len reports the number of observations.
func (s *Sample) Len() int { return len(s.values) }

// Count reports the number of observations as the Recorder seam's unsigned
// count.
func (s *Sample) Count() uint64 { return uint64(len(s.values)) }

// Values returns the observations sorted ascending. The returned slice is
// owned by the sample; callers must not modify it.
func (s *Sample) Values() []time.Duration {
	s.ensureSorted()
	return s.values
}

func (s *Sample) ensureSorted() {
	if !s.sorted {
		sortDurations(s.values)
		s.sorted = true
	}
}

// radixCutoff is the length below which sortDurations hands over to
// slices.Sort: a short slice does not repay the radix sort's histogram
// pass and scratch buffer.
const radixCutoff = 256

// sortDurations sorts v ascending in place. Equal int64 keys are
// indistinguishable, so its result is exactly the slice slices.Sort
// returns; only the cost differs. A long unsorted input is split in two
// halves, each half is radix-sorted (radixSort) through one scratch buffer
// of half v's length, and the halves are merged back into v. Latencies
// span a few of a key's eight bytes, so a typical sample costs a handful
// of linear passes instead of pdqsort's n log n comparisons, and the
// scratch buffer is half the sample, not a second copy of it.
func sortDurations(v []time.Duration) {
	n := len(v)
	if n < radixCutoff {
		slices.Sort(v)
		return
	}
	if slices.IsSorted(v) {
		return
	}
	mid := n / 2
	scratch := make([]time.Duration, n-mid)
	if hi := radixSort(v[mid:], scratch); &hi[0] != &v[mid] {
		copy(v[mid:], hi)
	}
	lo := scratch[:mid]
	if sorted := radixSort(v[:mid], lo); &sorted[0] != &lo[0] {
		copy(lo, sorted)
	}
	// Merge forward: the write index i+j stays below the unread upper
	// half's position mid+j, and once lo is used up the rest of the upper
	// half is already in place.
	hi := v[mid:]
	i, j := 0, 0
	for i < len(lo) && j < len(hi) {
		if hi[j] < lo[i] {
			v[i+j] = hi[j]
			j++
		} else {
			v[i+j] = lo[i]
			i++
		}
	}
	copy(v[i+j:], lo[i:])
}

// radixSort sorts v by an LSD radix sort through buf (of v's length) and
// returns whichever of the two holds the result. One pass counts all eight
// 8-bit digits of the sign-flipped keys; each digit that not every key
// shares then gets one stable scatter pass from one buffer to the other.
func radixSort(v, buf []time.Duration) []time.Duration {
	var counts [8][256]int
	for _, x := range v {
		k := uint64(x) ^ 1<<63
		counts[0][byte(k)]++
		counts[1][byte(k>>8)]++
		counts[2][byte(k>>16)]++
		counts[3][byte(k>>24)]++
		counts[4][byte(k>>32)]++
		counts[5][byte(k>>40)]++
		counts[6][byte(k>>48)]++
		counts[7][byte(k>>56)]++
	}
	first := uint64(v[0]) ^ 1<<63
	src, dst := v, buf
	for d := range counts {
		shift := 8 * d
		c := &counts[d]
		if c[byte(first>>shift)] == len(v) {
			continue // every key has this digit: the pass would not move anything
		}
		// Turn the counts into each digit's first output index.
		off := 0
		for b := range c {
			off, c[b] = off+c[b], off
		}
		for _, x := range src {
			b := byte((uint64(x) ^ 1<<63) >> shift)
			dst[c[b]] = x
			c[b]++
		}
		src, dst = dst, src
	}
	return src
}

// Percentile returns the p-th percentile (0 <= p <= 100) using linear
// interpolation between closest ranks. It panics on an empty sample.
func (s *Sample) Percentile(p float64) time.Duration {
	if len(s.values) == 0 {
		panic("stats: percentile of empty sample")
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	s.ensureSorted()
	if len(s.values) == 1 {
		return s.values[0]
	}
	rank := p / 100 * float64(len(s.values)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s.values[lo]
	}
	frac := rank - float64(lo)
	return s.values[lo] + time.Duration(frac*float64(s.values[hi]-s.values[lo]))
}

// Quantile returns the q-th quantile (0 <= q <= 1) — the Recorder-seam
// spelling of Percentile.
func (s *Sample) Quantile(q float64) time.Duration { return s.Percentile(q * 100) }

// Median returns the 50th percentile.
func (s *Sample) Median() time.Duration { return s.Percentile(50) }

// P99 returns the 99th percentile — the paper's "tail latency".
func (s *Sample) P99() time.Duration { return s.Percentile(99) }

// Min returns the smallest observation.
func (s *Sample) Min() time.Duration {
	s.ensureSorted()
	return s.values[0]
}

// Max returns the largest observation.
func (s *Sample) Max() time.Duration {
	s.ensureSorted()
	return s.values[len(s.values)-1]
}

// Mean returns the arithmetic mean.
func (s *Sample) Mean() time.Duration {
	if len(s.values) == 0 {
		return 0
	}
	var total float64
	for _, v := range s.values {
		total += float64(v)
	}
	return time.Duration(total / float64(len(s.values)))
}

// TMR returns the tail-to-median ratio (p99 / median), the paper's
// predictability metric (§V). TMR above 10 is considered problematic.
func (s *Sample) TMR() float64 {
	m := s.Median()
	if m == 0 {
		return math.Inf(1)
	}
	return float64(s.P99()) / float64(m)
}

// Summary captures the headline metrics of a sample.
type Summary struct {
	Count  int
	Min    time.Duration
	Median time.Duration
	P95    time.Duration
	P99    time.Duration
	Max    time.Duration
	Mean   time.Duration
	TMR    float64
}

// Summarize computes a Summary.
func (s *Sample) Summarize() Summary {
	return Summary{
		Count:  s.Len(),
		Min:    s.Min(),
		Median: s.Median(),
		P95:    s.Percentile(95),
		P99:    s.P99(),
		Max:    s.Max(),
		Mean:   s.Mean(),
		TMR:    s.TMR(),
	}
}

// String renders the summary in a single line.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d median=%v p95=%v p99=%v max=%v tmr=%.1f",
		s.Count, s.Median.Round(time.Millisecond), s.P95.Round(time.Millisecond),
		s.P99.Round(time.Millisecond), s.Max.Round(time.Millisecond), s.TMR)
}

// MR returns the paper's median-to-base-median ratio: this sample's median
// normalized to the base (warm-invocation) median (Table I).
func (s *Sample) MR(baseMedian time.Duration) float64 {
	if baseMedian == 0 {
		return math.Inf(1)
	}
	return float64(s.Median()) / float64(baseMedian)
}

// TR returns the paper's tail-to-base-median ratio: this sample's p99
// normalized to the base (warm-invocation) median (Table I).
func (s *Sample) TR(baseMedian time.Duration) float64 {
	if baseMedian == 0 {
		return math.Inf(1)
	}
	return float64(s.P99()) / float64(baseMedian)
}

// CDFPoint is one point of an empirical CDF.
type CDFPoint struct {
	Value time.Duration
	Frac  float64 // fraction of observations <= Value, in (0, 1]
}

// CDF returns the empirical cumulative distribution function as a sequence of
// points with strictly increasing values and non-decreasing fractions.
func (s *Sample) CDF() []CDFPoint {
	s.ensureSorted()
	n := len(s.values)
	points := make([]CDFPoint, 0, n)
	for i := 0; i < n; i++ {
		// Collapse duplicates onto the highest fraction.
		if i+1 < n && s.values[i+1] == s.values[i] {
			continue
		}
		points = append(points, CDFPoint{Value: s.values[i], Frac: float64(i+1) / float64(n)})
	}
	return points
}

// FracBelow returns the fraction of observations <= v (0 for an empty
// sample, checked before paying for the sort and the search).
func (s *Sample) FracBelow(v time.Duration) float64 {
	if len(s.values) == 0 {
		return 0
	}
	s.ensureSorted()
	idx := sort.Search(len(s.values), func(i int) bool { return s.values[i] > v })
	return float64(idx) / float64(len(s.values))
}

// Sub returns a new sample with d subtracted from every observation (used to
// remove propagation delays or fixed execution time, clamped at zero).
func (s *Sample) Sub(d time.Duration) *Sample {
	out := NewSample(s.Len())
	for _, v := range s.values {
		w := v - d
		if w < 0 {
			w = 0
		}
		out.Add(w)
	}
	return out
}
