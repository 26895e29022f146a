package cloud

import (
	"testing"
	"time"

	"github.com/stellar-repro/stellar/internal/des"
	"github.com/stellar-repro/stellar/internal/dist"
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

// benchKeepAliveChurn measures the keep-alive cancel/refresh cost of a warm
// invocation against a realistic timer population: a fleet of idle instances
// (each holding a pending expiry timer) sits in the background while one hot
// function churns claim-cancel / release-re-arm per request. In heap mode
// every churn op pays an indexed removal and push against the whole fleet's
// timers; with slack > 0 the expiries live on the timer wheel instead.
func benchKeepAliveChurn(b *testing.B, slack time.Duration) {
	const fleet = 2000
	cfg := testConfig()
	cfg.KeepAlive = KeepAlivePolicy{Fixed: 30 * time.Minute}
	cfg.KeepAliveSlack = slack
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

// BenchmarkKeepAliveChurn compares per-invocation keep-alive timer churn on
// the exact heap against the slack wheel, with 2000 idle-fleet timers live.
func BenchmarkKeepAliveChurn(b *testing.B) {
	b.Run("heap", func(b *testing.B) { benchKeepAliveChurn(b, 0) })
	b.Run("wheel", func(b *testing.B) { benchKeepAliveChurn(b, 500*time.Millisecond) })
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
func BenchmarkWarmInvokeCallback(b *testing.B) {
	eng := des.NewEngine()
	defer eng.Close()
	c, err := New(eng, testConfig(), dist.NewStreams(1))
	if err != nil {
		b.Fatal(err)
	}
	if err := c.Deploy(FunctionSpec{Name: "f", Runtime: RuntimePython, Method: DeployZIP}); err != nil {
		b.Fatal(err)
	}
	c.SetEngineMode(EngineAuto)
	req := &Request{Fn: "f"}
	remaining := b.N
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
	// Warm-up outside the timer: pay the cold start and prime the pools.
	warm := make(chan struct{})
	c.InvokeAsync(req, func(_ *Response, err error) {
		if err != nil {
			b.Error(err)
		}
		close(warm)
	})
	eng.Run(0)
	<-warm
	b.ReportAllocs()
	b.ResetTimer()
	c.InvokeAsync(req, done)
	eng.Run(0)
}
