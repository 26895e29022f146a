package stats

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

// checkSort sorts a copy of vs with sortDurations and compares it with
// slices.Sort, the specification.
func checkSort(t *testing.T, vs []time.Duration) {
	t.Helper()
	want := slices.Clone(vs)
	slices.Sort(want)
	got := slices.Clone(vs)
	sortDurations(got)
	if !slices.Equal(got, want) {
		t.Fatalf("sortDurations of %d values differs from slices.Sort", len(vs))
	}
}

func TestSortDurationsCases(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	gen := func(n int, f func(i int) time.Duration) []time.Duration {
		vs := make([]time.Duration, n)
		for i := range vs {
			vs[i] = f(i)
		}
		return vs
	}
	extremes := []time.Duration{math.MinInt64, math.MaxInt64, -1, 0, 1, math.MinInt64 + 1, math.MaxInt64 - 1}
	for _, n := range []int{0, 1, 2, radixCutoff - 1, radixCutoff, radixCutoff + 1, 1000, 20_000} {
		cases := map[string][]time.Duration{
			"random":     gen(n, func(int) time.Duration { return time.Duration(rng.Uint64()) }),
			"negatives":  gen(n, func(int) time.Duration { return -time.Duration(rng.Int63n(1e12)) }),
			"mixed-sign": gen(n, func(int) time.Duration { return time.Duration(rng.Int63n(2e9) - 1e9) }),
			"extremes":   gen(n, func(int) time.Duration { return extremes[rng.Intn(len(extremes))] }),
			"duplicates": gen(n, func(int) time.Duration { return time.Duration(rng.Intn(7)) * time.Millisecond }),
			"all-equal":  gen(n, func(int) time.Duration { return 42 * time.Millisecond }),
			"descending": gen(n, func(i int) time.Duration { return time.Duration(n-i) * time.Microsecond }),
			"ascending":  gen(n, func(i int) time.Duration { return time.Duration(i) * time.Microsecond }),
			"lognormal":  gen(n, func(int) time.Duration { return time.Duration(20e6 * math.Exp(rng.NormFloat64())) }),
			// One key differs from the rest only in its top byte, so
			// every pass but the last is skipped.
			"top-byte-only": gen(n, func(i int) time.Duration {
				if i%3 == 0 {
					return math.MinInt64
				}
				return 0
			}),
		}
		for name, vs := range cases {
			t.Run(name, func(t *testing.T) { checkSort(t, vs) })
		}
	}
}

// TestQuickSortDurationsMatchesSlicesSort is the property form: for any
// input, long enough to take the radix path or not, the result is the
// slice slices.Sort returns.
func TestQuickSortDurationsMatchesSlicesSort(t *testing.T) {
	prop := func(raw []int64, pad uint16) bool {
		vs := make([]time.Duration, 0, len(raw)+int(pad))
		for _, v := range raw {
			vs = append(vs, time.Duration(v))
		}
		// Pad past the cutoff with repeats of the drawn values.
		for i := 0; len(raw) > 0 && i < int(pad)%(2*radixCutoff); i++ {
			vs = append(vs, time.Duration(raw[i%len(raw)]>>uint(i%64)))
		}
		want := slices.Clone(vs)
		slices.Sort(want)
		sortDurations(vs)
		return slices.Equal(vs, want)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestSortedSampleQueriesUnchanged pins that the order queries a report
// reads — quantiles, the sorted-order Mean, the CDF — are those of the
// slices.Sort order.
func TestSortedSampleQueriesUnchanged(t *testing.T) {
	s := lognormalSample(50_000)
	want := slices.Clone(s.values)
	slices.Sort(want)
	ref := &Sample{values: want, sorted: true}
	if got, exp := s.Summarize(), ref.Summarize(); got != exp {
		t.Fatalf("summary after radix sort %+v, want %+v", got, exp)
	}
	if !slices.Equal(s.CDF(), ref.CDF()) {
		t.Fatal("CDF after radix sort differs")
	}
}

// FuzzSampleSort checks sortDurations against slices.Sort on arbitrary
// inputs: the fuzz bytes are read as little-endian int64 keys, repeated
// to a length past the radix cutoff when rep asks for it.
func FuzzSampleSort(f *testing.F) {
	le := func(vs ...int64) []byte {
		b := make([]byte, 0, 8*len(vs))
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, uint64(v))
		}
		return b
	}
	f.Add(le(3, 1, 2), uint8(0))
	f.Add(le(math.MinInt64, math.MaxInt64, 0, -1, 1), uint8(100))
	f.Add(le(5, 5, 5, 5), uint8(80))
	f.Add(le(-7, 1<<40, -(1<<50), 12345), uint8(255))
	f.Fuzz(func(t *testing.T, data []byte, rep uint8) {
		var keys []time.Duration
		for len(data) >= 8 {
			keys = append(keys, time.Duration(binary.LittleEndian.Uint64(data)))
			data = data[8:]
		}
		vs := slices.Clone(keys)
		for i := 0; len(keys) > 0 && i < int(rep)*4; i++ {
			vs = append(vs, keys[i%len(keys)]+time.Duration(i%5))
		}
		checkSort(t, vs)
	})
}
