package experiments

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"github.com/stellar-repro/stellar/internal/trace"
)

func traceOpts(n uint64) TraceOptions {
	return TraceOptions{
		Provider:    "aws",
		Invocations: n,
		Shards:      4,
		Seed:        7,
		IAT:         20 * time.Millisecond,
		Burst:       2,
		Trace:       trace.Config{SampleRate: 1, SlowestK: 8},
	}
}

// TestTraceRunAttributionSumsToLatency pins the core tentpole invariant at
// the experiment level: with sample-everything tracing, every successful
// request comes back as a trace, every trace validates (top-level spans tile
// the request window exactly), and the traced totals match the latency
// sample one-for-one.
func TestTraceRunAttributionSumsToLatency(t *testing.T) {
	res, err := RunTrace(traceOpts(2_000))
	if err != nil {
		t.Fatal(err)
	}
	succeeded := res.Invocations - res.Errors
	if got := uint64(len(res.Traces)) + res.Dropped; got != succeeded {
		t.Fatalf("retained %d + dropped %d != %d succeeded", len(res.Traces), res.Dropped, succeeded)
	}
	// Multiset of trace totals must equal the multiset of recorded latencies
	// (when nothing was dropped, which holds here: default ring 8192/shard).
	if res.Dropped != 0 {
		t.Fatalf("ring dropped %d traces at this scale", res.Dropped)
	}
	lats := make(map[time.Duration]int)
	for _, v := range res.Latencies.Values() {
		lats[v]++
	}
	for _, r := range res.Traces {
		if err := r.Validate(); err != nil {
			t.Fatal(err)
		}
		tot := time.Duration(r.Total())
		if lats[tot] == 0 {
			t.Fatalf("trace total %v not present in the latency sample", tot)
		}
		lats[tot]--
	}
	a := res.Attribution(nil)
	if a == nil {
		t.Fatal("no attribution over a full sample")
	}
	for i := range a.Quantiles {
		var sum float64
		for _, st := range a.Stages {
			sum += st.Share[i]
		}
		if sum < 0.999 || sum > 1.001 {
			t.Fatalf("p%g stage shares sum to %f, want 1", a.Quantiles[i]*100, sum)
		}
	}
}

// TestTraceDeterministicAcrossWorkers: traces, counters, and attribution are
// byte-identical at Workers=1 and Workers=8 — the repo-wide determinism
// contract extended to the tracing path.
func TestTraceDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) *TraceResult {
		opts := traceOpts(1_600)
		opts.Workers = workers
		res, err := RunTrace(opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial, parallel := run(1), run(8)

	if serial.Colds != parallel.Colds || serial.Errors != parallel.Errors ||
		serial.Dropped != parallel.Dropped || serial.VirtualTime != parallel.VirtualTime {
		t.Fatalf("counters diverge across workers")
	}
	enc := func(r *TraceResult) string {
		b, err := json.Marshal(r.Traces)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if a, b := enc(serial), enc(parallel); a != b {
		t.Fatal("merged traces differ across workers")
	}
	var wa, wb strings.Builder
	serial.Attribution(nil).Write(&wa)
	parallel.Attribution(nil).Write(&wb)
	if wa.String() != wb.String() {
		t.Fatal("attribution reports differ across workers")
	}
}

// TestTraceSamplingReducesRetention: a 10% head-sampling run keeps roughly a
// tenth of the traces plus the slowest-K floor, never more than sampled-rate
// would plausibly allow.
func TestTraceSamplingReducesRetention(t *testing.T) {
	opts := traceOpts(4_000)
	opts.Trace = trace.Config{SampleRate: 0.1, SlowestK: 4}
	res, err := RunTrace(opts)
	if err != nil {
		t.Fatal(err)
	}
	n := len(res.Traces)
	if n < 200 || n > 800 {
		t.Fatalf("retained %d traces at 10%% over 4000, want roughly 400", n)
	}
	slow := 0
	for _, r := range res.Traces {
		if r.Slow {
			slow++
		}
	}
	if want := opts.Trace.SlowestK * opts.Shards; slow != want {
		t.Fatalf("retained %d slow-marked traces, want %d (K per shard)", slow, want)
	}
}

// TestTraceOptionValidation: nonsense configurations fail fast.
func TestTraceOptionValidation(t *testing.T) {
	for _, opts := range []TraceOptions{
		{Invocations: 100, Trace: trace.Config{SampleRate: 1}},                           // no provider
		{Provider: "aws", Trace: trace.Config{SampleRate: 1}},                            // no invocations
		{Provider: "aws", Invocations: 2, Shards: 4, Trace: trace.Config{SampleRate: 1}}, // more shards than work
		{Provider: "aws", Invocations: 100},                                              // sampler disabled
		{Provider: "aws", Invocations: 100, Trace: trace.Config{SampleRate: 2}},          // bad rate
		{Provider: "no-such-cloud", Invocations: 100, Trace: trace.Config{SampleRate: 1}},
		{Provider: "aws", Invocations: 100, Shards: -3, Trace: trace.Config{SampleRate: 1}},
		{Provider: "aws", Invocations: 100, IAT: -5 * time.Millisecond, Trace: trace.Config{SampleRate: 1}},
		{Provider: "aws", Invocations: 100, Burst: -5, Trace: trace.Config{SampleRate: 1}},
		{Provider: "aws", Invocations: 100, ExecTime: -time.Second, Trace: trace.Config{SampleRate: 1}},
	} {
		if _, err := RunTrace(opts); err == nil {
			t.Fatalf("RunTrace(%+v) accepted invalid options", opts)
		}
	}
}

// TestTraceReportOutput smoke-checks the writer over one small run.
func TestTraceReportOutput(t *testing.T) {
	res, err := RunTrace(traceOpts(800))
	if err != nil {
		t.Fatal(err)
	}
	var report strings.Builder
	WriteTraceReport(&report, res)
	for _, want := range []string{
		"provider=aws", "traces: retained=", "tail attribution",
		"queue-wait share", "service share", "p99",
	} {
		if !strings.Contains(report.String(), want) {
			t.Fatalf("report missing %q:\n%s", want, report.String())
		}
	}
}
