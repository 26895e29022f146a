package cloud

import (
	"reflect"
	"testing"
	"time"

	"github.com/stellar-repro/stellar/internal/des"
	"github.com/stellar-repro/stellar/internal/dist"
)

// formTrace captures everything observable about one load run: successful
// latencies and errors in completion order, final metrics, and the virtual
// clock at drain. Two execution forms are equivalent iff their traces are
// deeply equal — including the completion order, which is sensitive to the
// engine's (timestamp, seq) tie-breaking and the RNG draw interleaving.
type formTrace struct {
	lats    []time.Duration
	errs    []string
	metrics Metrics
	virtual des.Time
	instSec float64
}

type sliceRecorder struct{ lats []time.Duration }

func (r *sliceRecorder) Add(d time.Duration) { r.lats = append(r.lats, d) }

// runForm drives n invocations in bursts against a fresh cloud, using the
// proc form (Spawn+Invoke, exactly the scale experiment's arrival loop) or
// the callback form (Call chain + InvokeAsync).
func runForm(t *testing.T, cfg Config, callback bool, n, burst int, iat, exec time.Duration) formTrace {
	t.Helper()
	eng := des.NewEngine()
	defer eng.Close()
	c, err := New(eng, cfg, dist.NewStreams(7))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Deploy(FunctionSpec{Name: "f", Runtime: RuntimePython, Method: DeployZIP, ExecTime: exec}); err != nil {
		t.Fatal(err)
	}
	rec := &sliceRecorder{}
	c.SetLatencyRecorder(rec)
	out := formTrace{}
	req := &Request{Fn: "f"}

	if callback {
		c.SetEngineMode(EngineAuto)
		done := func(_ *Response, err error) {
			if err != nil {
				out.errs = append(out.errs, err.Error())
			}
		}
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
		c.SetEngineMode(EngineProc)
		invoke := func(p *des.Proc) {
			if _, err := c.Invoke(p, req); err != nil {
				out.errs = append(out.errs, err.Error())
			}
		}
		eng.Spawn("arrivals", func(p *des.Proc) {
			remaining := n
			for remaining > 0 {
				b := burst
				if b > remaining {
					b = remaining
				}
				for j := 0; j < b; j++ {
					eng.Spawn("req", invoke)
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
	out.instSec = c.InstanceSeconds()
	return out
}

// diffForms asserts the two forms produce deeply equal traces for one load
// shape.
func diffForms(t *testing.T, cfg Config, n, burst int, iat, exec time.Duration) {
	t.Helper()
	proc := runForm(t, cfg, false, n, burst, iat, exec)
	cb := runForm(t, cfg, true, n, burst, iat, exec)
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

// TestInvokeAsyncMatchesInvoke is the cloud-level differential gate: the
// callback form must replay the proc form's virtual trace bit for bit
// across load shapes covering warm reuse, cold bursts, queue waits and
// grants, congestion slow paths, and keep-alive expiry.
func TestInvokeAsyncMatchesInvoke(t *testing.T) {
	t.Run("warm-steady", func(t *testing.T) {
		diffForms(t, testConfig(), 64, 1, 50*time.Millisecond, 0)
	})
	t.Run("noisy-bursts", func(t *testing.T) {
		diffForms(t, noisyConfig(), 200, 16, 20*time.Millisecond, 2*time.Millisecond)
	})
	t.Run("bounded-queue-handoff", func(t *testing.T) {
		cfg := noisyConfig()
		cfg.Policy = PolicyConfig{Kind: PolicyBoundedQueue, MaxQueuePerInstance: 4}
		cfg.QueueHandoffDelay = dist.Uniform{Min: 500 * time.Microsecond, Max: 3 * time.Millisecond}
		diffForms(t, cfg, 200, 24, 15*time.Millisecond, 3*time.Millisecond)
	})
	t.Run("queue-timeouts", func(t *testing.T) {
		cfg := noisyConfig()
		cfg.Policy = PolicyConfig{Kind: PolicyRateLimited, MaxQueuePerInstance: 2,
			TokensPerSec: 2, MaxTokens: 3, InitialTokens: 1, EvalInterval: 40 * time.Millisecond}
		cfg.QueueTimeout = 60 * time.Millisecond
		cfg.QueueHandoffDelay = dist.Constant(time.Millisecond)
		diffForms(t, cfg, 240, 32, 25*time.Millisecond, 4*time.Millisecond)
	})
	t.Run("grant-race-exact-deadline", func(t *testing.T) {
		// All-constant delays align releases and queue deadlines on the
		// same virtual instants, reproducing the PR 4 grant-race shape
		// where the timeout and a grant land at the same tick.
		cfg := testConfig()
		cfg.Policy = PolicyConfig{Kind: PolicyBoundedQueue, MaxQueuePerInstance: 8}
		cfg.QueueTimeout = 137 * time.Millisecond
		cfg.QueueHandoffDelay = dist.Constant(2 * time.Millisecond)
		diffForms(t, cfg, 160, 20, 10*time.Millisecond, 5*time.Millisecond)
	})
}

// TestInvokeAsyncProcModeFallback pins the EngineProc knob and the
// ineligibility fallbacks: a chained function, a crash-prone profile, and
// a cloud with a tracer installed must all run the proc form through
// InvokeAsync and report proc-form responses (Timestamps populated for
// chains).
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
// a warm InvokeAsync sequence must allocate nothing.
func TestAllocFreeCallbackChain(t *testing.T) {
	eng := des.NewEngine()
	defer eng.Close()
	c, err := New(eng, testConfig(), dist.NewStreams(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Deploy(FunctionSpec{Name: "f", Runtime: RuntimePython, Method: DeployZIP}); err != nil {
		t.Fatal(err)
	}
	c.SetEngineMode(EngineAuto)
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
}
