package des

import (
	"math/rand/v2"
	"testing"
	"time"
)

// BenchmarkEventThroughput measures raw event dispatch rate (callbacks, no
// process switches) — the floor cost of a simulation step.
func BenchmarkEventThroughput(b *testing.B) {
	e := NewEngine()
	defer e.Close()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < b.N {
			e.After(time.Microsecond, tick)
		}
	}
	b.ResetTimer()
	e.After(time.Microsecond, tick)
	e.Run(0)
	if count != b.N {
		b.Fatalf("fired %d of %d", count, b.N)
	}
}

// BenchmarkProcessSwitch measures a process sleep/resume round trip — the
// unit cost of every delay in the cloud model.
func BenchmarkProcessSwitch(b *testing.B) {
	e := NewEngine()
	defer e.Close()
	e.Spawn("switcher", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(time.Microsecond)
		}
	})
	b.ResetTimer()
	e.Run(0)
}

// BenchmarkTimerCancel measures the schedule + cancel round trip of a heap
// timer: an O(log n) push, an O(1) lazy cancel, and a share of the
// compaction that drops the dead entries once they outnumber the live ones.
func BenchmarkTimerCancel(b *testing.B) {
	e := NewEngine()
	defer e.Close()
	fn := func() {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := e.After(time.Hour, fn)
		t.Cancel()
	}
}

// BenchmarkSpawnExit measures process spawn/exit with goroutine reuse — the
// cloud model's process-per-request pattern.
func BenchmarkSpawnExit(b *testing.B) {
	e := NewEngine()
	defer e.Close()
	body := func(p *Proc) {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Spawn("s", body)
		e.Run(0)
	}
}

// BenchmarkWaitTimeoutChurn measures WaitTimeout where the signal wins —
// the gateway queue-timeout pattern. Every iteration leaves a dead
// far-future timer in the heap, so this bench also exercises compaction,
// which keeps those entries from piling up.
func BenchmarkWaitTimeoutChurn(b *testing.B) {
	e := NewEngine()
	defer e.Close()
	e.Spawn("churn", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			sig := NewSignal(e)
			e.After(time.Microsecond, sig.Fire)
			if !p.WaitTimeout(sig, time.Hour) {
				b.Error("signal should win")
				return
			}
		}
	})
	b.ResetTimer()
	e.Run(0)
}

// BenchmarkSignalBroadcast measures fan-out wake-ups: one firer releasing
// 16 waiters per round, the scatter-gather join pattern.
func BenchmarkSignalBroadcast(b *testing.B) {
	e := NewEngine()
	defer e.Close()
	const waiters = 16
	rounds := b.N/waiters + 1
	b.ResetTimer()
	for r := 0; r < rounds; r++ {
		sig := NewSignal(e)
		for i := 0; i < waiters; i++ {
			e.Spawn("w", func(p *Proc) { p.Wait(sig) })
		}
		e.Spawn("firer", func(p *Proc) {
			p.Sleep(time.Microsecond)
			sig.Fire()
		})
		e.Run(0)
	}
}

// BenchmarkQueuePutGet measures the producer/consumer handoff through a
// blocking queue — the request-buffer pattern.
func BenchmarkQueuePutGet(b *testing.B) {
	e := NewEngine()
	defer e.Close()
	q := NewQueue[int](e)
	e.Spawn("consumer", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			q.Get(p)
		}
	})
	e.Spawn("producer", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			q.Put(i)
			p.Sleep(time.Microsecond)
		}
	})
	b.ResetTimer()
	e.Run(0)
}

// BenchmarkResourceContention measures acquire/release under a contended
// FIFO resource with 64 concurrent processes.
func BenchmarkResourceContention(b *testing.B) {
	e := NewEngine()
	defer e.Close()
	r := NewResource(e, 4)
	per := b.N/64 + 1
	for i := 0; i < 64; i++ {
		e.Spawn("worker", func(p *Proc) {
			for j := 0; j < per; j++ {
				p.Acquire(r)
				p.Sleep(time.Microsecond)
				r.Release()
			}
		})
	}
	b.ResetTimer()
	e.Run(0)
}

// BenchmarkKeepAliveTimersHeap is the provider-scale keep-alive regime:
// 100k live timers (one per idle instance across thousands of tenants)
// while a steady arrival stream cancels one and re-arms it per operation,
// plus the natural trickle of expiries. The driver tick is a cancelable
// heap timer on purpose: cancelable events are never front-cached, so every
// operation pays two O(log n) pushes against the full 100k-event heap (the
// re-armed keep-alive fills the root hole the tick leaves, the next tick
// sifts up), and the canceled keep-alives ride along as dead entries until
// compaction.
func BenchmarkKeepAliveTimersHeap(b *testing.B) {
	const live = 100_000
	const life = 10 * time.Minute
	e := NewEngine()
	defer e.Close()
	timers := make([]Timer, live)
	fns := make([]func(), live)
	for i := range fns {
		i := i
		fns[i] = func() { timers[i] = e.After(life, fns[i]) }
	}
	for i := range timers {
		timers[i] = e.After(time.Duration(i+1)*(life/live), fns[i])
	}
	n, stop, next := 0, 0, 0
	var tick func()
	tick = func() {
		i := next
		next++
		if next == live {
			next = 0
		}
		if timers[i].Cancel() {
			timers[i] = e.After(life, fns[i])
		}
		n++
		if n < stop {
			e.After(time.Millisecond, tick)
		}
	}
	// Warm-up: grow the heap and handle table to their high-water marks so
	// the timed region measures steady state. Canceled timers stay behind as
	// dead entries until they outnumber the live ones, so the heap array
	// peaks only after one full round of cancels.
	stop = live + 200
	e.After(time.Millisecond, tick)
	e.Run(e.Now() + time.Duration(stop+1)*time.Millisecond)
	n, stop = 0, b.N
	e.After(time.Millisecond, tick)
	b.ReportAllocs()
	b.ResetTimer()
	e.Run(e.Now() + time.Duration(b.N+1)*time.Millisecond)
	b.StopTimer()
	if n != b.N {
		b.Fatalf("ran %d of %d churn ops", n, b.N)
	}
}

// BenchmarkCallbackChain measures a self-rescheduling callback chain — the
// execution form of the warm-invoke fast path: one reused callback value,
// no timer handle, no process switch, front-cache hit on every hop.
func BenchmarkCallbackChain(b *testing.B) {
	e := NewEngine()
	defer e.Close()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < b.N {
			e.CallAfter(time.Microsecond, tick)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Call(tick)
	e.Run(0)
	if count != b.N {
		b.Fatalf("fired %d of %d", count, b.N)
	}
}

// popChain is one arrival's callback chain in BenchmarkPopulationQueue,
// recycled through a free list so the timed region allocates nothing.
type popChain struct {
	hop  int
	step func()
}

// popKeeper is one keep-alive timer in BenchmarkPopulationQueue: reuse
// moves the deadline, and the timer re-arms at it when it fires early.
type popKeeper struct {
	deadline Time
	armed    bool
	fire     func()
}

// BenchmarkPopulationQueue is the tenants replay's event queue in miniature:
// about 2k far-future events — self-rescheduling arrival streams with seeded
// exponential gaps, plus a few hundred keep-alive timers re-armed lazily at
// a stored deadline — under a 5-hop, millisecond-scale callback chain per
// arrival. One op is one arrival with its chain.
func BenchmarkPopulationQueue(b *testing.B) {
	const (
		streams   = 1800
		keepers   = 300
		meanGap   = 2 * time.Second
		keepAlive = 10 * time.Second
		hops      = 5
	)
	e := NewEngine()
	defer e.Close()
	rng := rand.New(rand.NewPCG(1, 2))
	arrivals, target := 0, -1
	stopped := false

	var free []*popChain
	newChain := func() *popChain {
		c := &popChain{}
		c.step = func() {
			c.hop++
			if c.hop < hops {
				e.CallAfter(time.Duration(1+rng.IntN(2000))*time.Microsecond, c.step)
				return
			}
			free = append(free, c)
		}
		return c
	}

	keep := make([]popKeeper, keepers)
	for i := range keep {
		k := &keep[i]
		k.fire = func() {
			if !stopped && k.deadline > e.Now() {
				e.At(k.deadline, k.fire)
				return
			}
			k.armed = false
		}
	}

	fns := make([]func(), streams)
	for s := range fns {
		k := &keep[s%keepers]
		fns[s] = func() {
			arrivals++
			if arrivals == target {
				b.StopTimer()
				stopped = true
			}
			if stopped {
				return
			}
			e.CallAfter(time.Duration(rng.ExpFloat64()*float64(meanGap)), fns[s])
			k.deadline = e.Now() + keepAlive
			if !k.armed {
				k.armed = true
				e.At(k.deadline, k.fire)
			}
			var c *popChain
			if n := len(free); n > 0 {
				c = free[n-1]
				free = free[:n-1]
			} else {
				c = newChain()
			}
			c.hop = 0
			e.CallAfter(time.Duration(1+rng.IntN(2000))*time.Microsecond, c.step)
		}
		e.CallAfter(time.Duration(rng.ExpFloat64()*float64(meanGap)), fns[s])
	}
	// Warm-up: reach the steady-state heap, handle table and chain pool.
	e.Run(30 * time.Second)
	target = arrivals + b.N
	b.ReportAllocs()
	b.ResetTimer()
	e.Run(0)
	if arrivals < target {
		b.Fatalf("ran %d of %d arrivals", arrivals-(target-b.N), b.N)
	}
}
