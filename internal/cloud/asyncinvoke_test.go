package cloud

import (
	"reflect"
	"testing"
	"time"

	"github.com/stellar-repro/stellar/internal/des"
	"github.com/stellar-repro/stellar/internal/dist"
	"github.com/stellar-repro/stellar/internal/trace"
)

// formTrace captures everything observable about one load run: successful
// latencies and errors in completion order, final metrics, the virtual
// clock at drain, and, when traced, every retained span trace. Two
// execution forms are equivalent iff their traces are deeply equal —
// including the completion order, which is sensitive to the engine's
// (timestamp, seq) tie-breaking and the RNG draw interleaving.
type formTrace struct {
	lats    []time.Duration
	errs    []string
	metrics Metrics
	virtual des.Time
	instSec float64
	billed  float64
	spans   []trace.RequestRecord
	dropped uint64
}

// formLoad is one load shape: n invocations in bursts of burst every iat,
// each executing for exec.
type formLoad struct {
	n, burst  int
	iat, exec time.Duration
	// maxConcurrent caps the function's in-flight requests (0 = unlimited).
	maxConcurrent int
	// tracer, when set, installs a span tracer with this config.
	tracer *trace.Config
}

type sliceRecorder struct{ lats []time.Duration }

func (r *sliceRecorder) Add(d time.Duration) { r.lats = append(r.lats, d) }

// invokeProc runs one invocation in the proc form: a goroutine proc through
// Invoke, delivering its outcome to done. It is the reference the callback
// form is compared against — what InvokeAsync does for a request that is
// not callback-eligible.
func invokeProc(c *Cloud, req *Request, done func(*Response, error)) {
	c.eng.Spawn("cloud/invoke", func(p *des.Proc) {
		done(c.Invoke(p, req))
	})
}

// invokeForms are the two execution forms the form tests run side by side,
// named as their subtests: the proc reference and InvokeAsync's choice.
var invokeForms = []struct {
	name   string
	invoke func(c *Cloud, req *Request, done func(*Response, error))
}{
	{"proc", invokeProc},
	{"auto", (*Cloud).InvokeAsync},
}

// runForm drives n invocations in bursts against a fresh cloud, using the
// proc form (a proc arrival loop spawning invokeProc) or the callback form
// (Call chain + InvokeAsync).
func runForm(t *testing.T, cfg Config, callback bool, load formLoad) formTrace {
	t.Helper()
	n, burst, iat := load.n, load.burst, load.iat
	eng := des.NewEngine()
	defer eng.Close()
	c, err := New(eng, cfg, dist.NewStreams(7))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Deploy(FunctionSpec{Name: "f", Runtime: RuntimePython, Method: DeployZIP,
		ExecTime: load.exec, MaxConcurrent: load.maxConcurrent}); err != nil {
		t.Fatal(err)
	}
	rec := &sliceRecorder{}
	c.SetLatencyRecorder(rec)
	var tr *trace.Tracer
	if load.tracer != nil {
		tr = newTestTracer(*load.tracer)
		c.SetTracer(tr)
	}
	out := formTrace{}
	req := &Request{Fn: "f"}
	done := func(resp *Response, err error) {
		if err != nil {
			out.errs = append(out.errs, err.Error())
		}
		if resp != nil {
			out.billed += resp.BilledGBSeconds
		}
	}

	if callback {
		remaining := n
		var arrive func()
		arrive = func() {
			b := burst
			if b > remaining {
				b = remaining
			}
			for j := 0; j < b; j++ {
				c.InvokeAsync(req, done)
			}
			remaining -= b
			if remaining > 0 {
				eng.CallAfter(iat, arrive)
			}
		}
		eng.Call(arrive)
	} else {
		eng.Spawn("arrivals", func(p *des.Proc) {
			remaining := n
			for remaining > 0 {
				b := burst
				if b > remaining {
					b = remaining
				}
				for j := 0; j < b; j++ {
					invokeProc(c, req, done)
				}
				remaining -= b
				if remaining > 0 {
					p.Sleep(iat)
				}
			}
		})
	}
	eng.Run(0)
	out.lats = rec.lats
	out.metrics = c.Metrics()
	out.virtual = eng.Now()
	tm, _ := c.FunctionMetrics("f")
	out.instSec = tm.InstanceSeconds
	out.spans = tr.Drain()
	out.dropped = tr.Dropped()
	return out
}

// diffForms asserts the two forms produce deeply equal traces for one load
// shape, and returns the callback form's.
func diffForms(t *testing.T, cfg Config, load formLoad) formTrace {
	t.Helper()
	proc := runForm(t, cfg, false, load)
	cb := runForm(t, cfg, true, load)
	if proc.virtual != cb.virtual {
		t.Errorf("virtual time diverged: proc=%v callback=%v", proc.virtual, cb.virtual)
	}
	if !reflect.DeepEqual(proc.metrics, cb.metrics) {
		t.Errorf("metrics diverged:\nproc     %+v\ncallback %+v", proc.metrics, cb.metrics)
	}
	if !reflect.DeepEqual(proc.errs, cb.errs) {
		t.Errorf("errors diverged:\nproc     %v\ncallback %v", proc.errs, cb.errs)
	}
	if proc.instSec != cb.instSec {
		t.Errorf("instance-seconds diverged: proc=%v callback=%v", proc.instSec, cb.instSec)
	}
	if proc.billed != cb.billed {
		t.Errorf("billed GB-s diverged: proc=%v callback=%v", proc.billed, cb.billed)
	}
	if proc.dropped != cb.dropped {
		t.Errorf("dropped traces diverged: proc=%d callback=%d", proc.dropped, cb.dropped)
	}
	if !reflect.DeepEqual(proc.spans, cb.spans) {
		if len(proc.spans) != len(cb.spans) {
			t.Errorf("retained trace count diverged: proc=%d callback=%d", len(proc.spans), len(cb.spans))
		} else {
			for i := range proc.spans {
				if !reflect.DeepEqual(proc.spans[i], cb.spans[i]) {
					t.Errorf("trace %d diverged:\nproc     %+v\ncallback %+v", i, proc.spans[i], cb.spans[i])
					break
				}
			}
		}
	}
	if !reflect.DeepEqual(proc.lats, cb.lats) {
		if len(proc.lats) != len(cb.lats) {
			t.Fatalf("latency count diverged: proc=%d callback=%d", len(proc.lats), len(cb.lats))
		}
		for i := range proc.lats {
			if proc.lats[i] != cb.lats[i] {
				t.Fatalf("latency %d diverged: proc=%v callback=%v", i, proc.lats[i], cb.lats[i])
			}
		}
	}
	return cb
}

// noisyConfig is testConfig with every stochastic pipeline feature armed:
// jittered component delays, ingestion congestion with slow-path lottery,
// short keep-alive (expiry churn), and a gateway queue timeout. Any
// event-schedule or RNG-draw mismatch between the forms desynchronizes the
// shared streams and shows up as diverging latencies within a few bursts.
func noisyConfig() Config {
	cfg := testConfig()
	cfg.FrontendDelay = dist.Uniform{Min: time.Millisecond, Max: 4 * time.Millisecond}
	cfg.RoutingDelay = dist.Uniform{Min: 200 * time.Microsecond, Max: 2 * time.Millisecond}
	cfg.WarmOverhead = dist.Uniform{Min: time.Millisecond, Max: 6 * time.Millisecond}
	cfg.ResponseDelay = dist.Uniform{Min: 300 * time.Microsecond, Max: 2 * time.Millisecond}
	cfg.CongestionThreshold = 2
	cfg.CongestionUnit = 400 * time.Microsecond
	cfg.CongestionCap = 20 * time.Millisecond
	cfg.SlowPathProbPerInflight = 0.04
	cfg.SlowPathMaxProb = 0.6
	cfg.SlowPathDelay = dist.Uniform{Min: 5 * time.Millisecond, Max: 30 * time.Millisecond}
	cfg.KeepAlive = KeepAlivePolicy{Fixed: 250 * time.Millisecond}
	return cfg
}

// formCase is one named (config, load) cell of the differential suite.
type formCase struct {
	name string
	cfg  Config
	load formLoad
}

// formCases are load shapes covering warm reuse, cold bursts, queue waits
// and grants, queue handoffs and timeouts, congestion slow paths, and
// keep-alive expiry.
func formCases() []formCase {
	handoff := noisyConfig()
	handoff.Policy = PolicyConfig{Kind: PolicyBoundedQueue, MaxQueuePerInstance: 4}
	handoff.QueueHandoffDelay = dist.Uniform{Min: 500 * time.Microsecond, Max: 3 * time.Millisecond}

	timeouts := noisyConfig()
	timeouts.Policy = PolicyConfig{Kind: PolicyRateLimited, MaxQueuePerInstance: 2,
		TokensPerSec: 2, MaxTokens: 3, InitialTokens: 1, EvalInterval: 40 * time.Millisecond}
	timeouts.QueueTimeout = 60 * time.Millisecond
	timeouts.QueueHandoffDelay = dist.Constant(time.Millisecond)

	// The same policy with a deadline past the cold start: some buffered
	// requests are served, the rest time out.
	mixed := timeouts
	mixed.QueueTimeout = 300 * time.Millisecond

	// All-constant delays align releases and queue deadlines on the same
	// virtual instants, reproducing the grant-race shape where the timeout
	// and a grant land at the same tick.
	race := testConfig()
	race.Policy = PolicyConfig{Kind: PolicyBoundedQueue, MaxQueuePerInstance: 8}
	race.QueueTimeout = 137 * time.Millisecond
	race.QueueHandoffDelay = dist.Constant(2 * time.Millisecond)

	return []formCase{
		{"warm-steady", testConfig(), formLoad{n: 64, burst: 1, iat: 50 * time.Millisecond}},
		{"noisy-bursts", noisyConfig(), formLoad{n: 200, burst: 16, iat: 20 * time.Millisecond, exec: 2 * time.Millisecond}},
		{"bounded-queue-handoff", handoff, formLoad{n: 200, burst: 24, iat: 15 * time.Millisecond, exec: 3 * time.Millisecond}},
		{"queue-timeouts", timeouts, formLoad{n: 240, burst: 32, iat: 25 * time.Millisecond, exec: 4 * time.Millisecond}},
		{"queue-timeouts-mixed", mixed, formLoad{n: 240, burst: 32, iat: 25 * time.Millisecond, exec: 4 * time.Millisecond}},
		{"grant-race-exact-deadline", race, formLoad{n: 160, burst: 20, iat: 10 * time.Millisecond, exec: 5 * time.Millisecond}},
	}
}

// TestInvokeAsyncMatchesInvoke is the cloud-level differential gate: the
// callback form must replay the proc form's virtual trace bit for bit
// across every formCases shape.
func TestInvokeAsyncMatchesInvoke(t *testing.T) {
	for _, fc := range formCases() {
		t.Run(fc.name, func(t *testing.T) { diffForms(t, fc.cfg, fc.load) })
	}
}

// TestInvokeAsyncTracedMatchesInvoke is the span-equivalence gate: with a
// tracer installed the callback form, which builds a kept request's spans
// only at finish, must retain exactly the spans the proc form marks as it
// runs — same stages, attempts, start instants and durations, same cold
// detail spans, same sampled and slowest-K retention — on every formCases
// shape plus a concurrency limit, at head-sampling rates 0 and 1, with and
// without a slowest-K set. Rejected and timed-out requests end in fail,
// which must retain nothing, as Invoke's error return does: at rate 1
// without a slow set, retained plus overwritten traces equal the
// successful requests. The concurrency-limit case's small ring also makes
// Dropped count overwrites.
func TestInvokeAsyncTracedMatchesInvoke(t *testing.T) {
	cases := append(formCases(), formCase{"concurrency-limit", noisyConfig(),
		formLoad{n: 200, burst: 16, iat: 100 * time.Millisecond, exec: 30 * time.Millisecond,
			maxConcurrent: 12}})
	samplers := []struct {
		name string
		cfg  trace.Config
	}{
		{"sampled", trace.Config{SampleRate: 1}},
		{"sampled+slowest", trace.Config{SampleRate: 1, SlowestK: 8}},
		{"slowest", trace.Config{SlowestK: 8}},
		{"off", trace.Config{}},
	}
	// Stages and outcomes the retained callback-form traces must cover
	// across the suite, so the comparison is not vacuous for any of them.
	seen := map[string]bool{}
	for _, fc := range cases {
		t.Run(fc.name, func(t *testing.T) {
			for _, sm := range samplers {
				cfg := sm.cfg
				if fc.load.maxConcurrent > 0 {
					cfg.RingCapacity = 32
				}
				load := fc.load
				load.tracer = &cfg
				t.Run(sm.name, func(t *testing.T) {
					proc := runForm(t, fc.cfg, false, load)
					switch {
					case cfg.SampleRate == 0 && cfg.SlowestK == 0:
						if len(proc.spans) != 0 {
							t.Fatalf("a tracer that samples nothing retained %d traces", len(proc.spans))
						}
					case len(proc.spans) == 0 && len(proc.lats) > 0:
						t.Fatal("tracer retained nothing; the comparison would be vacuous")
					}
					if cfg.SampleRate == 1 && cfg.SlowestK == 0 {
						if got := uint64(len(proc.spans)) + proc.dropped; got != uint64(len(proc.lats)) {
							t.Fatalf("retained+dropped %d traces for %d successful requests (%d errors)",
								got, len(proc.lats), len(proc.errs))
						}
					}
					if load.maxConcurrent > 0 && proc.metrics.ConcurrencyRejects == 0 {
						t.Fatal("concurrency-limit case exercised no rejects")
					}
					if load.maxConcurrent > 0 && cfg.SampleRate == 1 && proc.dropped == 0 {
						t.Fatal("concurrency-limit case exercised no ring overwrites")
					}
					cb := diffForms(t, fc.cfg, load)
					if len(cb.errs) > 0 {
						seen["errors"] = true
					}
					for _, rec := range cb.spans {
						if rec.Cold {
							seen["cold"] = true
						}
						if rec.Slow {
							seen["slow"] = true
						}
						for _, sp := range rec.Spans {
							seen[sp.Stage] = true
						}
					}
				})
			}
		})
	}
	for _, want := range []string{"errors", "cold", "slow", "congestion", "slow-path",
		"queue-wait", "queue-handoff", "cold/sandbox-boot"} {
		if !seen[want] {
			t.Errorf("no retained callback-form trace covered %q", want)
		}
	}
}

// TestInvokeAsyncProcModeFallback pins the ineligibility fallbacks: a
// chained function, an internal request, a crash-prone profile, and a
// request carrying a caller-owned span must all run the proc form through
// InvokeAsync (chains report proc-form responses with Timestamps
// populated). An installed tracer, by contrast, keeps a plain request
// callback-eligible.
func TestInvokeAsyncProcModeFallback(t *testing.T) {
	cfg := testConfig()
	eng := des.NewEngine()
	defer eng.Close()
	c, err := New(eng, cfg, dist.NewStreams(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Deploy(FunctionSpec{Name: "consumer", Runtime: RuntimePython, Method: DeployZIP}); err != nil {
		t.Fatal(err)
	}
	if err := c.Deploy(FunctionSpec{Name: "producer", Runtime: RuntimePython, Method: DeployZIP,
		Chain: &ChainSpec{Next: "consumer", Transfer: TransferInline, PayloadBytes: 1 << 10}}); err != nil {
		t.Fatal(err)
	}
	var got *Response
	c.InvokeAsync(&Request{Fn: "producer"}, func(r *Response, err error) {
		if err != nil {
			t.Errorf("chained InvokeAsync: %v", err)
		}
		got = r
	})
	eng.Run(0)
	if got == nil {
		t.Fatal("done callback never ran")
	}
	if _, ok := got.TransferTime("producer", "consumer"); !ok {
		t.Error("chain fallback lost intra-function timestamps")
	}

	if c.callbackEligible(&Request{Fn: "producer", Internal: true}, c.functions["producer"]) {
		t.Error("internal requests must not be callback-eligible")
	}
	if !c.callbackEligible(&Request{Fn: "consumer"}, c.functions["consumer"]) {
		t.Error("plain external request should be callback-eligible")
	}
	crash := c.cfg
	c.cfg.Faults.CrashProb = 0.5
	if c.callbackEligible(&Request{Fn: "consumer"}, c.functions["consumer"]) {
		t.Error("crash-prone profile must fall back to the proc form")
	}
	c.cfg = crash

	tr := newTestTracer(trace.Config{SampleRate: 1})
	c.SetTracer(tr)
	if !c.callbackEligible(&Request{Fn: "consumer"}, c.functions["consumer"]) {
		t.Error("an installed tracer must not disqualify the callback form")
	}
	span := tr.BeginAlways(1, "consumer", eng.Now())
	if c.callbackEligible(&Request{Fn: "consumer", Span: span}, c.functions["consumer"]) {
		t.Error("a request carrying a caller-owned span must fall back to the proc form")
	}
	c.SetTracer(nil)

	// Unknown functions surface the proc form's error through done.
	var unknownErr error
	c.InvokeAsync(&Request{Fn: "nope"}, func(_ *Response, err error) { unknownErr = err })
	eng.Run(0)
	if unknownErr == nil {
		t.Error("unknown function should surface an error via done")
	}
}

// TestAllocFreeCallbackChain is the zero-alloc gate for the callback fast
// path: after warm-up (cold start paid, free list primed, ring/heap grown)
// a warm InvokeAsync sequence must allocate nothing — also with a tracer
// recording every request, once its record pool and span buffers are
// primed and its ring wraps.
func TestAllocFreeCallbackChain(t *testing.T) {
	t.Run("untraced", func(t *testing.T) { allocFreeCallbackChain(t, nil) })
	t.Run("traced", func(t *testing.T) {
		allocFreeCallbackChain(t, newTestTracer(trace.Config{SampleRate: 1, SlowestK: 4, RingCapacity: 8}))
	})
}

func allocFreeCallbackChain(t *testing.T, tr *trace.Tracer) {
	eng := des.NewEngine()
	defer eng.Close()
	c, err := New(eng, testConfig(), dist.NewStreams(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Deploy(FunctionSpec{Name: "f", Runtime: RuntimePython, Method: DeployZIP}); err != nil {
		t.Fatal(err)
	}
	if tr != nil {
		c.SetTracer(tr)
	}
	req := &Request{Fn: "f"}
	done := func(_ *Response, err error) {
		if err != nil {
			t.Error(err)
		}
	}
	run := func() {
		for i := 0; i < 16; i++ {
			c.InvokeAsync(req, done)
		}
		// Run to a horizon short of the keep-alive deadline: draining the
		// whole schedule would expire the warm pool and turn every
		// measured run cold.
		eng.Run(eng.Now() + time.Second)
	}
	run()
	spawns := c.Metrics().Spawns
	if allocs := testing.AllocsPerRun(100, run); allocs > 0 {
		t.Fatalf("callback warm path allocates %.2f allocs per 16-invoke run; must be 0", allocs)
	}
	if got := c.Metrics().Spawns; got != spawns {
		t.Fatalf("measured runs were not warm: %d extra spawns", got-spawns)
	}
	if tr != nil && tr.Dropped() == 0 {
		t.Fatal("traced runs never wrapped the ring; the tracer was not recording")
	}
}
