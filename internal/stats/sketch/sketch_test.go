package sketch

import (
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"github.com/stellar-repro/stellar/internal/stats"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestEmptySketch(t *testing.T) {
	s := New(0)
	if s.Count() != 0 || s.Buckets() != 0 {
		t.Fatalf("empty sketch: count=%d buckets=%d", s.Count(), s.Buckets())
	}
	if got := s.CDF(); got != nil {
		t.Fatalf("empty CDF = %v, want nil", got)
	}
	if s.Mean() != 0 {
		t.Fatalf("empty mean = %v, want 0", s.Mean())
	}
	for name, fn := range map[string]func(){
		"quantile": func() { s.Quantile(0.5) },
		"min":      func() { s.Min() },
		"max":      func() { s.Max() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on empty sketch did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestNewPanicsOnBadAlpha(t *testing.T) {
	for _, alpha := range []float64{-0.01, 0.2, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%v) did not panic", alpha)
				}
			}()
			New(alpha)
		}()
	}
}

func TestValidateAlpha(t *testing.T) {
	for _, alpha := range []float64{minAlpha, DefaultAlpha, 0.02, maxAlpha} {
		if err := ValidateAlpha(alpha); err != nil {
			t.Errorf("ValidateAlpha(%v) = %v", alpha, err)
		}
	}
	for _, alpha := range []float64{0, -0.5, 5, minAlpha / 2, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := ValidateAlpha(alpha); err == nil {
			t.Errorf("ValidateAlpha(%v) accepted", alpha)
		}
	}
}

func TestBasicAccounting(t *testing.T) {
	s := New(0)
	s.Add(ms(10))
	s.Add(ms(20))
	s.AddN(ms(30), 2)
	s.Add(0) // clamped observation
	if s.Count() != 5 {
		t.Fatalf("count = %d, want 5", s.Count())
	}
	if s.Min() != 0 || s.Max() != ms(30) {
		t.Fatalf("min/max = %v/%v, want 0/%v", s.Min(), s.Max(), ms(30))
	}
	wantMean := time.Duration((10 + 20 + 30 + 30 + 0) * int64(time.Millisecond) / 5)
	if s.Mean() != wantMean {
		t.Fatalf("mean = %v, want %v", s.Mean(), wantMean)
	}
}

// TestQuantileRelativeError pins the per-value guarantee: every quantile of
// a single-value sketch is within alpha of that value.
func TestQuantileRelativeError(t *testing.T) {
	for _, v := range []time.Duration{time.Nanosecond, time.Microsecond, ms(7), 3 * time.Second, 2 * time.Hour} {
		s := New(0)
		s.Add(v)
		got := s.Quantile(0.5)
		if relErr(got, v) > s.Alpha() {
			t.Errorf("quantile of single value %v = %v (rel err %.4f > alpha %.4f)",
				v, got, relErr(got, v), s.Alpha())
		}
	}
}

func relErr(got, want time.Duration) float64 {
	if want == 0 {
		if got == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(float64(got)-float64(want)) / math.Abs(float64(want))
}

// TestQuantileMatchesExactWithinAlpha compares against the exact sample on
// a skewed deterministic data set.
func TestQuantileMatchesExactWithinAlpha(t *testing.T) {
	s := New(0)
	exact := stats.NewSample(10000)
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 10000; i++ {
		v := time.Duration(math.Exp(rng.NormFloat64()*1.2 + 17)) // lognormal around ~24ms
		s.Add(v)
		exact.Add(v)
	}
	for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1} {
		got, want := s.Quantile(q), exact.Quantile(q)
		if relErr(got, want) > 2*s.Alpha() {
			t.Errorf("q=%v: sketch %v vs exact %v (rel err %.4f)", q, got, want, relErr(got, want))
		}
	}
	if s.Quantile(0) != exact.Min() || s.Quantile(1) != exact.Max() {
		t.Errorf("extreme quantiles not clamped to exact endpoints: %v/%v vs %v/%v",
			s.Quantile(0), s.Quantile(1), exact.Min(), exact.Max())
	}
}

// TestMergeAssociativeAndDeterministic is the merge contract: splitting a
// stream into shards and merging the shard sketches — in any order, with
// any association — yields a sketch byte-identical to the single-stream
// sketch.
func TestMergeAssociativeAndDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	values := make([]time.Duration, 50000)
	for i := range values {
		values[i] = time.Duration(rng.Int63n(int64(10 * time.Second)))
	}

	single := New(0)
	for _, v := range values {
		single.Add(v)
	}

	const shards = 7
	parts := make([]*Sketch, shards)
	for i := range parts {
		parts[i] = New(0)
	}
	for i, v := range values {
		parts[i%shards].Add(v)
	}

	// Left fold, right fold, and a shuffled pairwise tree.
	folds := map[string]func() *Sketch{
		"left": func() *Sketch {
			out := New(0)
			for i := 0; i < shards; i++ {
				mustMerge(t, out, parts[i])
			}
			return out
		},
		"right": func() *Sketch {
			out := New(0)
			for i := shards - 1; i >= 0; i-- {
				mustMerge(t, out, parts[i])
			}
			return out
		},
		"tree": func() *Sketch {
			level := make([]*Sketch, 0, shards)
			for _, p := range parts {
				c := New(0)
				mustMerge(t, c, p)
				level = append(level, c)
			}
			for len(level) > 1 {
				next := level[:0]
				for i := 0; i < len(level); i += 2 {
					if i+1 < len(level) {
						mustMerge(t, level[i], level[i+1])
					}
					next = append(next, level[i])
				}
				level = next
			}
			return level[0]
		},
	}
	want := mustJSON(t, single.Record())
	for name, fold := range folds {
		got := mustJSON(t, fold().Record())
		if got != want {
			t.Errorf("%s-fold merge record differs from single-stream record", name)
		}
	}
}

func mustMerge(t *testing.T, dst, src *Sketch) {
	t.Helper()
	if err := dst.Merge(src); err != nil {
		t.Fatal(err)
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestMergeAlphaMismatch(t *testing.T) {
	a, b := New(0.005), New(0.01)
	b.Add(ms(1))
	if err := a.Merge(b); err == nil {
		t.Fatal("merging sketches with different alpha should fail")
	}
	if err := a.Merge(nil); err != nil {
		t.Fatalf("merging nil should be a no-op, got %v", err)
	}
	empty := New(0.01)
	if err := a.Merge(empty); err != nil {
		t.Fatalf("merging an empty sketch should be a no-op, got %v", err)
	}
}

func TestRecordRoundTrip(t *testing.T) {
	s := New(0)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 5000; i++ {
		s.Add(time.Duration(rng.Int63n(int64(time.Minute))))
	}
	s.Add(0)
	rec := s.Record()
	back, err := FromRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	if mustJSON(t, back.Record()) != mustJSON(t, rec) {
		t.Fatal("record round trip is not canonical")
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if back.Quantile(q) != s.Quantile(q) {
			t.Fatalf("q=%v differs after round trip: %v vs %v", q, back.Quantile(q), s.Quantile(q))
		}
	}
	if back.Mean() != s.Mean() || back.Count() != s.Count() {
		t.Fatal("mean/count differ after round trip")
	}
}

func TestFromRecordRejectsCorrupt(t *testing.T) {
	good := func() *Record {
		s := New(0)
		s.Add(ms(5))
		return s.Record()
	}
	cases := map[string]*Record{
		"nil": nil,
		"misaligned": func() *Record {
			r := good()
			r.Counts = r.Counts[:0]
			return r
		}(),
		"bad alpha": func() *Record {
			r := good()
			r.Alpha = 0.5
			return r
		}(),
		"nan alpha": func() *Record {
			r := good()
			r.Alpha = math.NaN()
			return r
		}(),
		"count mismatch": func() *Record {
			r := good()
			r.Count = 99
			return r
		}(),
		"zero bucket": func() *Record {
			r := good()
			r.Counts[0] = 0
			r.Count = 0
			return r
		}(),
	}
	for name, rec := range cases {
		if _, err := FromRecord(rec); err == nil {
			t.Errorf("FromRecord(%s) accepted a corrupt record", name)
		}
	}
}

func TestCDFShape(t *testing.T) {
	s := New(0)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20000; i++ {
		s.Add(time.Duration(rng.Int63n(int64(time.Second))))
	}
	points := s.CDF()
	if len(points) == 0 {
		t.Fatal("no CDF points")
	}
	last := points[len(points)-1]
	if last.Frac != 1 {
		t.Fatalf("CDF does not end at 1: %v", last.Frac)
	}
	for i := 1; i < len(points); i++ {
		if points[i].Value <= points[i-1].Value {
			t.Fatalf("CDF values not strictly increasing at %d: %v then %v", i, points[i-1].Value, points[i].Value)
		}
		if points[i].Frac < points[i-1].Frac {
			t.Fatalf("CDF fractions decrease at %d", i)
		}
	}
}

// TestSumSaturation: a sum overflow degrades the mean to a pinned extreme
// instead of wrapping, and survives record round trips.
func TestSumSaturation(t *testing.T) {
	s := New(0)
	s.AddN(time.Duration(math.MaxInt64/2), 5)
	if !s.saturated || s.sum != math.MaxInt64 {
		t.Fatalf("sum did not saturate: sum=%d saturated=%v", s.sum, s.saturated)
	}
	back, err := FromRecord(s.Record())
	if err != nil {
		t.Fatal(err)
	}
	if !back.saturated {
		t.Fatal("saturation lost in record round trip")
	}
	o := New(0)
	o.Add(ms(1))
	mustMerge(t, o, s)
	if !o.saturated {
		t.Fatal("saturation lost in merge")
	}
}

// TestRecorderSeamAgreement runs the same stream through both Recorder
// implementations and checks they agree within the sketch's error band.
func TestRecorderSeamAgreement(t *testing.T) {
	recs := []Recorder{stats.NewSample(0), New(0)}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 30000; i++ {
		v := time.Duration(rng.ExpFloat64() * float64(50*time.Millisecond))
		for _, r := range recs {
			r.Add(v)
		}
	}
	exactSum, sketchSum := recs[0].Summarize(), recs[1].Summarize()
	if exactSum.Count != sketchSum.Count {
		t.Fatalf("counts differ: %d vs %d", exactSum.Count, sketchSum.Count)
	}
	pairs := map[string][2]time.Duration{
		"median": {exactSum.Median, sketchSum.Median},
		"p95":    {exactSum.P95, sketchSum.P95},
		"p99":    {exactSum.P99, sketchSum.P99},
		"min":    {exactSum.Min, sketchSum.Min},
		"max":    {exactSum.Max, sketchSum.Max},
	}
	for name, p := range pairs {
		if relErr(p[1], p[0]) > 0.01 {
			t.Errorf("%s: exact %v vs sketch %v exceeds 1%%", name, p[0], p[1])
		}
	}
	if !reflect.DeepEqual(exactSum.Min, sketchSum.Min) {
		t.Errorf("min should be exact: %v vs %v", exactSum.Min, sketchSum.Min)
	}
}
