package trace

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"github.com/stellar-repro/stellar/internal/des"
)

func newTestTracer(cfg Config, seed int64) *Tracer {
	return New(cfg, rand.New(rand.NewSource(seed)))
}

// runReq records one single-span request with the given total latency.
func runReq(tr *Tracer, id uint64, start des.Time, total time.Duration) {
	r := tr.Begin(id, "fn", start)
	end := start + des.Time(total)
	r.Mark(StageExec, total, end)
	tr.End(r, end, nil)
}

func TestNilTracerAndNilReqAreInert(t *testing.T) {
	var tr *Tracer
	r := tr.Begin(1, "fn", 0)
	if r != nil {
		t.Fatalf("nil tracer Begin returned %v, want nil", r)
	}
	// All Req methods must no-op on nil.
	r.Mark(StageExec, time.Millisecond, des.Time(time.Millisecond))
	r.Attempt(1)
	r.SetCold(true)
	r.ColdSpans(0, Phase{Stage: StageColdSandboxBoot, Dur: time.Second})
	tr.End(r, 0, nil)
	if got := tr.Retained(); got != 0 {
		t.Fatalf("nil tracer Retained() = %d, want 0", got)
	}
	if got := tr.Dropped(); got != 0 {
		t.Fatalf("nil tracer Dropped() = %d, want 0", got)
	}
	if got := tr.Drain(); got != nil {
		t.Fatalf("nil tracer Drain() = %v, want nil", got)
	}
}

func TestUnsampledWithoutSlowKReturnsNil(t *testing.T) {
	tr := newTestTracer(Config{SampleRate: 0, SlowestK: 0}, 1)
	for id := uint64(0); id < 100; id++ {
		if r := tr.Begin(id, "fn", 0); r != nil {
			t.Fatalf("rate 0 with no slow-K returned a live Req")
		}
	}
}

func TestHeadSamplingRate(t *testing.T) {
	tr := newTestTracer(Config{SampleRate: 0.25}, 42)
	const n = 4000
	for id := uint64(0); id < n; id++ {
		runReq(tr, id, des.Time(id)*des.Time(time.Millisecond), time.Millisecond)
	}
	got := tr.Retained()
	if got < n/8 || got > n/2 {
		t.Fatalf("rate 0.25 retained %d of %d, far from expectation", got, n)
	}
	if tr.Dropped() != 0 {
		t.Fatalf("ring dropped %d with default capacity", tr.Dropped())
	}
}

func TestSamplingDeterministic(t *testing.T) {
	drain := func() []RequestRecord {
		tr := newTestTracer(Config{SampleRate: 0.1, SlowestK: 8}, 7)
		for id := uint64(0); id < 1000; id++ {
			runReq(tr, id, des.Time(id)*des.Time(time.Millisecond), time.Duration(id%37)*time.Millisecond+time.Microsecond)
		}
		return tr.Drain()
	}
	a, b := drain(), drain()
	if len(a) != len(b) {
		t.Fatalf("re-run retained %d vs %d traces", len(a), len(b))
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].StartNS != b[i].StartNS || a[i].EndNS != b[i].EndNS {
			t.Fatalf("trace %d differs across identical runs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestSlowestKExact(t *testing.T) {
	tr := newTestTracer(Config{SampleRate: 0, SlowestK: 4}, 1)
	// Durations 1..100ms in a scrambled order; slowest four are 97..100.
	perm := rand.New(rand.NewSource(3)).Perm(100)
	for id, p := range perm {
		runReq(tr, uint64(id), des.Time(id)*des.Time(time.Second), time.Duration(p+1)*time.Millisecond)
	}
	recs := tr.Drain()
	if len(recs) != 4 {
		t.Fatalf("retained %d traces, want 4", len(recs))
	}
	seen := map[time.Duration]bool{}
	for _, r := range recs {
		if !r.Slow {
			t.Fatalf("slowest-K trace %d not marked slow", r.ID)
		}
		seen[r.Total()] = true
	}
	for d := 97; d <= 100; d++ {
		if !seen[time.Duration(d)*time.Millisecond] {
			t.Fatalf("slowest-K missed the %dms request; got %v", d, seen)
		}
	}
}

func TestSlowEvictionFallsBackToRing(t *testing.T) {
	tr := newTestTracer(Config{SampleRate: 1, SlowestK: 1}, 1)
	runReq(tr, 1, 0, 10*time.Millisecond)
	runReq(tr, 2, des.Time(time.Second), 20*time.Millisecond)
	recs := tr.Drain()
	if len(recs) != 2 {
		t.Fatalf("retained %d traces, want 2 (evicted head-sampled trace must fall back to ring)", len(recs))
	}
	byID := map[uint64]RequestRecord{recs[0].ID: recs[0], recs[1].ID: recs[1]}
	if !byID[2].Slow || byID[1].Slow {
		t.Fatalf("want request 2 slow and request 1 ring-retained, got %+v", byID)
	}
}

func TestRingOverwritesOldest(t *testing.T) {
	tr := newTestTracer(Config{SampleRate: 1, RingCapacity: 4}, 1)
	for id := uint64(0); id < 10; id++ {
		runReq(tr, id, des.Time(id)*des.Time(time.Second), time.Millisecond)
	}
	if got := tr.Dropped(); got != 6 {
		t.Fatalf("Dropped() = %d, want 6", got)
	}
	recs := tr.Drain()
	if len(recs) != 4 {
		t.Fatalf("retained %d traces, want 4", len(recs))
	}
	for i, r := range recs {
		if want := uint64(6 + i); r.ID != want {
			t.Fatalf("ring kept trace %d at %d, want %d (newest four)", r.ID, i, want)
		}
	}
}

func TestEndWithErrorDiscards(t *testing.T) {
	tr := newTestTracer(Config{SampleRate: 1, SlowestK: 4}, 1)
	r := tr.Begin(1, "fn", 0)
	r.Mark(StageExec, time.Millisecond, des.Time(time.Millisecond))
	tr.End(r, des.Time(time.Millisecond), errors.New("boom"))
	if got := tr.Retained(); got != 0 {
		t.Fatalf("errored request retained (%d traces)", got)
	}
}

func TestDrainResetsTracer(t *testing.T) {
	tr := newTestTracer(Config{SampleRate: 1, SlowestK: 2, RingCapacity: 8}, 1)
	for id := uint64(0); id < 20; id++ {
		runReq(tr, id, des.Time(id)*des.Time(time.Second), time.Duration(id+1)*time.Millisecond)
	}
	if got := len(tr.Drain()); got != 10 {
		t.Fatalf("first drain returned %d traces, want 10 (8 ring + 2 slow)", got)
	}
	if got := tr.Retained(); got != 0 {
		t.Fatalf("Retained() = %d after drain, want 0", got)
	}
	runReq(tr, 99, 0, time.Millisecond)
	recs := tr.Drain()
	if len(recs) != 1 || recs[0].ID != 99 {
		t.Fatalf("tracer unusable after drain: %+v", recs)
	}
}

func TestSteadyStateZeroAllocs(t *testing.T) {
	tr := newTestTracer(Config{SampleRate: 1, SlowestK: 4, RingCapacity: 8}, 1)
	var id uint64
	var now des.Time
	cycle := func() {
		id++
		now += des.Time(time.Second)
		r := tr.Begin(id, "fn", now)
		r.Attempt(1)
		r.Mark(StageQueueWait, time.Millisecond, now+des.Time(time.Millisecond))
		r.Mark(StageExec, time.Millisecond, now+des.Time(2*time.Millisecond))
		r.Attempt(0)
		tr.End(r, now+des.Time(2*time.Millisecond), nil)
	}
	// Warm up: fill the ring, the slow set, and the recycling pool so span
	// buffers have reached their steady capacity.
	for i := 0; i < 64; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("steady-state tracing allocates %.1f allocs/request, want 0", allocs)
	}
}

func TestConfigValidate(t *testing.T) {
	valid := []Config{{}, {SampleRate: 1}, {SampleRate: 0.5, SlowestK: 10, RingCapacity: 64}}
	for _, c := range valid {
		if err := c.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", c, err)
		}
	}
	invalid := []Config{
		{SampleRate: -0.1},
		{SampleRate: 1.5},
		{SampleRate: nan()},
		{SlowestK: -1},
		{RingCapacity: -1},
	}
	for _, c := range invalid {
		if err := c.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", c)
		}
	}
}

func nan() float64 { z := 0.0; return z / z }

// TestKeepMatchesBeginEnd pins Keep against the Begin/End reference: a
// tracer fed each request's sampling draw at arrival (Sampled) and asked
// at completion (Keep) retains exactly the traces, ring overwrites and
// slow set of one that recorded every request tentatively. Latencies
// repeat, so slow-set ties break on the id.
func TestKeepMatchesBeginEnd(t *testing.T) {
	for _, cfg := range []Config{
		{SampleRate: 0.1, SlowestK: 8, RingCapacity: 16},
		{SampleRate: 0, SlowestK: 5},
		{SampleRate: 1, RingCapacity: 4},
		{SampleRate: 0.5},
	} {
		ref, got := newTestTracer(cfg, 9), newTestTracer(cfg, 9)
		lat := rand.New(rand.NewSource(2))
		for id := uint64(1); id <= 2000; id++ {
			start := des.Time(id) * des.Time(time.Millisecond)
			end := start + des.Time(lat.Intn(50)+1)*des.Time(time.Millisecond)
			if r := ref.Begin(id, "fn", start); r != nil {
				r.Mark(StageExec, end-start, end)
				ref.End(r, end, nil)
			}
			if r := got.Keep(id, "fn", start, end, got.Sampled()); r != nil {
				r.Mark(StageExec, end-start, end)
				got.End(r, end, nil)
			}
		}
		if ref.Dropped() != got.Dropped() {
			t.Errorf("%+v: dropped %d, want %d", cfg, got.Dropped(), ref.Dropped())
		}
		if want, have := ref.Drain(), got.Drain(); !reflect.DeepEqual(have, want) || len(want) == 0 {
			t.Errorf("%+v: Keep retained %d traces, Begin/End %d, or they differ", cfg, len(have), len(want))
		}
	}
}
