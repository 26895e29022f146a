package cloud

import (
	"testing"
	"time"

	"github.com/stellar-repro/stellar/internal/des"
	"github.com/stellar-repro/stellar/internal/dist"
	"github.com/stellar-repro/stellar/internal/trace"
)

// BenchmarkWarmInvoke measures the simulator's cost per warm invocation —
// the throughput bound for large virtual experiments.
func BenchmarkWarmInvoke(b *testing.B) {
	eng := des.NewEngine()
	defer eng.Close()
	c, err := New(eng, testConfig(), dist.NewStreams(1))
	if err != nil {
		b.Fatal(err)
	}
	if err := c.Deploy(FunctionSpec{Name: "f", Runtime: RuntimePython, Method: DeployZIP}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	eng.Spawn("bench", func(p *des.Proc) {
		for i := 0; i < b.N; i++ {
			if _, err := c.Invoke(p, &Request{Fn: "f"}); err != nil {
				b.Error(err)
				return
			}
		}
	})
	eng.Run(0)
}

// BenchmarkColdInvoke measures cost per cold invocation (spawn pipeline,
// keep-alive timers, storage fetch).
func BenchmarkColdInvoke(b *testing.B) {
	cfg := testConfig()
	cfg.KeepAlive = KeepAlivePolicy{Fixed: time.Millisecond} // reap instantly
	eng := des.NewEngine()
	defer eng.Close()
	c, err := New(eng, cfg, dist.NewStreams(1))
	if err != nil {
		b.Fatal(err)
	}
	if err := c.Deploy(FunctionSpec{Name: "f", Runtime: RuntimePython, Method: DeployZIP}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	eng.Spawn("bench", func(p *des.Proc) {
		for i := 0; i < b.N; i++ {
			if _, err := c.Invoke(p, &Request{Fn: "f"}); err != nil {
				b.Error(err)
				return
			}
			p.Sleep(10 * time.Millisecond) // let the keep-alive reap
		}
	})
	eng.Run(0)
}

// benchKeepAliveChurn measures a warm invocation against a realistic timer
// population: a fleet of idle instances (each holding a pending expiry
// timer) sits in the background while one hot function serves request
// after request on its warm instance. Keep-alive expiry is lazy (reuse
// moves the instance's deadline, not its timer), so the hot instance
// re-arms at most once per keep-alive window. The fleet's timers deepen
// the heap every request's events sift through.
func benchKeepAliveChurn(b *testing.B) {
	const fleet = 2000
	cfg := testConfig()
	cfg.KeepAlive = KeepAlivePolicy{Fixed: 30 * time.Minute}
	eng := des.NewEngine()
	defer eng.Close()
	c, err := New(eng, cfg, dist.NewStreams(1))
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range []string{"fleet", "f"} {
		if err := c.Deploy(FunctionSpec{Name: name, Runtime: RuntimePython, Method: DeployZIP}); err != nil {
			b.Fatal(err)
		}
	}
	// Build the idle fleet: concurrent overlapping invocations force one
	// instance each; afterwards all park idle with pending expiry timers.
	for i := 0; i < fleet; i++ {
		eng.Spawn("fleet", func(p *des.Proc) {
			if _, err := c.Invoke(p, &Request{Fn: "fleet", ExecTime: time.Second}); err != nil {
				b.Error(err)
			}
		})
	}
	eng.Run(0)
	// Warm the hot function's instance outside the timer.
	eng.Spawn("warm", func(p *des.Proc) {
		if _, err := c.Invoke(p, &Request{Fn: "f"}); err != nil {
			b.Error(err)
		}
	})
	eng.Run(0)
	b.ResetTimer()
	eng.Spawn("bench", func(p *des.Proc) {
		for i := 0; i < b.N; i++ {
			if _, err := c.Invoke(p, &Request{Fn: "f"}); err != nil {
				b.Error(err)
				return
			}
		}
	})
	eng.Run(0)
}

// BenchmarkKeepAliveChurn measures per-invocation keep-alive timer churn
// with 2000 idle-fleet timers live. The "heap" sub-benchmark name keeps
// its BENCH_BASELINE.txt rows comparable.
func BenchmarkKeepAliveChurn(b *testing.B) {
	b.Run("heap", benchKeepAliveChurn)
}

// BenchmarkBurst100 measures a full 100-request cold burst round.
func BenchmarkBurst100(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eng := des.NewEngine()
		c, err := New(eng, testConfig(), dist.NewStreams(int64(i)))
		if err != nil {
			b.Fatal(err)
		}
		if err := c.Deploy(FunctionSpec{Name: "f", Runtime: RuntimePython, Method: DeployZIP}); err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 100; j++ {
			eng.Spawn("client", func(p *des.Proc) {
				if _, err := c.Invoke(p, &Request{Fn: "f", ExecTime: time.Second}); err != nil {
					b.Error(err)
				}
			})
		}
		eng.Run(time.Minute)
		eng.Close()
	}
}

// BenchmarkWarmInvokeCallback measures the callback fast path per warm
// invocation: the straight-line Call chain with zero goroutine switches
// and, in steady state, zero allocations.
func BenchmarkWarmInvokeCallback(b *testing.B) { benchWarmInvokeCallback(b, nil) }

// BenchmarkWarmInvokeCallbackTraced is the same chain with a tracer that
// records every request's spans, retains the four slowest, and wraps an
// eight-slot ring: the tracer's whole per-request cost on the fast path,
// which must stay allocation-free once its record pool is primed.
func BenchmarkWarmInvokeCallbackTraced(b *testing.B) {
	benchWarmInvokeCallback(b, newTestTracer(trace.Config{SampleRate: 1, SlowestK: 4, RingCapacity: 8}))
}

func benchWarmInvokeCallback(b *testing.B, tr *trace.Tracer) {
	eng := des.NewEngine()
	defer eng.Close()
	c, err := New(eng, testConfig(), dist.NewStreams(1))
	if err != nil {
		b.Fatal(err)
	}
	if err := c.Deploy(FunctionSpec{Name: "f", Runtime: RuntimePython, Method: DeployZIP}); err != nil {
		b.Fatal(err)
	}
	if tr != nil {
		c.SetTracer(tr)
	}
	req := &Request{Fn: "f"}
	var remaining int
	var done func(*Response, error)
	done = func(_ *Response, err error) {
		if err != nil {
			b.Error(err)
			return
		}
		remaining--
		if remaining > 0 {
			c.InvokeAsync(req, done)
		}
	}
	// Warm-up outside the timer: pay the cold start and prime the pools,
	// the tracer's record pool and span buffers included.
	remaining = 64
	c.InvokeAsync(req, done)
	eng.Run(0)
	b.ReportAllocs()
	b.ResetTimer()
	remaining = b.N
	c.InvokeAsync(req, done)
	eng.Run(0)
}
