package stats

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"
)

func lognormalish(n int, seed int64) *Sample {
	rng := rand.New(rand.NewSource(seed))
	s := NewSample(n)
	for i := 0; i < n; i++ {
		v := time.Duration(20e6 * (1 + rng.ExpFloat64()))
		s.Add(v)
	}
	return s
}

func TestPercentileCIBracketsPoint(t *testing.T) {
	s := lognormalish(2000, 1)
	rng := rand.New(rand.NewSource(2))
	for _, p := range []float64{50, 90, 99} {
		ci := s.PercentileCI(p, 0.95, 300, rng)
		if ci.Point < ci.Lo || ci.Point > ci.Hi {
			t.Errorf("p%v: point %v outside [%v, %v]", p, ci.Point, ci.Lo, ci.Hi)
		}
		if ci.Lo > ci.Hi {
			t.Errorf("p%v: inverted interval", p)
		}
	}
}

func TestCICoverage(t *testing.T) {
	// Draw many samples from a known distribution; the 90% CI for the
	// median should contain the true median in roughly 90% of trials.
	trueMedian := time.Duration(20e6 * (1 + 0.6931)) // exp median = ln2
	hits, trials := 0, 120
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < trials; i++ {
		s := lognormalish(300, int64(1000+i))
		ci := s.MedianCI(0.90, 200, rng)
		if trueMedian >= ci.Lo && trueMedian <= ci.Hi {
			hits++
		}
	}
	cov := float64(hits) / float64(trials)
	if cov < 0.78 || cov > 0.99 {
		t.Fatalf("coverage = %.2f, want ~0.90", cov)
	}
}

func TestCIWiderAtTail(t *testing.T) {
	s := lognormalish(500, 4)
	rng := rand.New(rand.NewSource(5))
	med := s.MedianCI(0.95, 300, rng)
	tail := s.P99CI(0.95, 300, rng)
	if tail.Hi-tail.Lo <= med.Hi-med.Lo {
		t.Fatalf("p99 interval (%v) should be wider than median interval (%v)",
			tail.Hi-tail.Lo, med.Hi-med.Lo)
	}
}

func TestCIShrinksWithSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	small := lognormalish(100, 7).MedianCI(0.95, 300, rng)
	big := lognormalish(10000, 7).MedianCI(0.95, 300, rng)
	if big.Hi-big.Lo >= small.Hi-small.Lo {
		t.Fatalf("10k-sample interval (%v) should be narrower than 100-sample (%v)",
			big.Hi-big.Lo, small.Hi-small.Lo)
	}
}

func TestCIOverlaps(t *testing.T) {
	a := CI{Lo: ms(10), Hi: ms(20)}
	b := CI{Lo: ms(15), Hi: ms(25)}
	c := CI{Lo: ms(21), Hi: ms(30)}
	if !a.Overlaps(b) || !b.Overlaps(a) {
		t.Error("a and b should overlap")
	}
	if a.Overlaps(c) || c.Overlaps(a) {
		t.Error("a and c should not overlap")
	}
}

func TestCIString(t *testing.T) {
	ci := CI{Point: ms(50), Lo: ms(45), Hi: ms(60), Confidence: 0.95}
	if got := ci.String(); got != "50ms [45ms, 60ms] @95%" {
		t.Fatalf("String() = %q", got)
	}
}

func TestCIPanics(t *testing.T) {
	s := lognormalish(10, 8)
	rng := rand.New(rand.NewSource(9))
	for _, fn := range []func(){
		func() { (&Sample{}).MedianCI(0.95, 100, rng) },
		func() { s.PercentileCI(50, 0, 100, rng) },
		func() { s.PercentileCI(50, 1, 100, rng) },
		func() { s.PercentileCI(50, math.NaN(), 100, rng) },
	} {
		func() {
			defer func() {
				// The argument check's own panic, not an index
				// error further down.
				r := recover()
				if msg, ok := r.(string); !ok || !strings.HasPrefix(msg, "stats: ") {
					t.Errorf("expected an argument panic, got %v", r)
				}
			}()
			fn()
		}()
	}
}

func TestCISampleUnchanged(t *testing.T) {
	s := lognormalish(100, 10)
	before := append([]time.Duration(nil), s.Values()...)
	s.PercentileCI(99, 0.95, 100, rand.New(rand.NewSource(11)))
	after := s.Values()
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("bootstrap mutated the sample")
		}
	}
}
