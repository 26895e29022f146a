package des

import (
	"testing"
	"time"
)

// TestPendingEventsBoundedUnderTimeoutChurn is the observable fix for the
// canceled-timer heap leak: under the seed engine's lazy cancellation, every
// WaitTimeout whose signal won left a dead one-hour timer in the heap until
// its distant deadline popped, so churning cancel/fire cycles grew the heap
// without bound (and real-time engines carried the garbage forever).
// Cancellation is lazy again, but compaction rebuilds the heap once dead
// entries outnumber 64 and half of it, so the live count stays a handful and
// the heap array stays within twice the live high-water mark plus 65 entries
// no matter how many cycles run.
func TestPendingEventsBoundedUnderTimeoutChurn(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	const rounds = 5000
	maxPending, maxHeap := 0, 0
	e.Spawn("churn", func(p *Proc) {
		for i := 0; i < rounds; i++ {
			sig := NewSignal(e)
			e.After(time.Millisecond, sig.Fire)
			if !p.WaitTimeout(sig, time.Hour) {
				t.Error("signal should win every round")
				return
			}
			maxPending = max(maxPending, e.PendingEvents())
			maxHeap = max(maxHeap, len(e.events))
		}
	})
	e.Run(0)
	if maxPending > 8 {
		t.Fatalf("canceled timers counted as pending: max PendingEvents = %d over %d cancel/fire cycles",
			maxPending, rounds)
	}
	if limit := 2*e.Stats().PeakPending + 65; maxHeap > limit {
		t.Fatalf("canceled timers leaked into the heap: its array reached %d entries over %d cancel/fire cycles, above 2·PeakPending+65 = %d",
			maxHeap, rounds, limit)
	}
	if e.PendingEvents() != 0 || len(e.events) != 0 {
		t.Fatalf("%d events (%d heap entries) left after drain", e.PendingEvents(), len(e.events))
	}
}

// TestTimerCancelReusedHandleIsInert pins the generation-counter contract:
// a Timer from a previous schedule must not cancel an unrelated timer that
// recycled its handle slot.
func TestTimerCancelReusedHandleIsInert(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	stale := e.At(time.Second, func() {})
	if !stale.Cancel() {
		t.Fatal("first cancel should succeed")
	}
	// The next timer reuses the freed handle slot.
	fired := false
	fresh := e.At(2*time.Second, func() { fired = true })
	if stale.Cancel() {
		t.Fatal("stale Timer canceled a recycled handle")
	}
	if !fresh.Pending() {
		t.Fatal("fresh timer should still be pending")
	}
	e.Run(0)
	if !fired {
		t.Fatal("fresh timer did not fire")
	}
	if fresh.Pending() {
		t.Fatal("fired timer still reports pending")
	}
}

// --- Allocation-regression gate ---------------------------------------------
//
// The scheduling core promises allocation-free steady state: once the heap
// array, handle table, goroutine pool, and wait-queue rings have grown to
// their high-water marks, firing events, switching processes, canceling
// timers, and spawning pooled processes must not allocate. These tests are
// the gate that keeps future changes from quietly reintroducing per-event
// garbage — the regression that motivated the PR 2 engine rewrite.

// TestAllocFreeEventScheduling: schedule-and-fire of plain callbacks.
func TestAllocFreeEventScheduling(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n%100 != 0 {
			e.After(time.Microsecond, tick)
		}
	}
	run := func() {
		n = 0
		e.After(time.Microsecond, tick)
		e.Run(0)
	}
	run() // warm: grow heap and handle table
	if avg := testing.AllocsPerRun(50, run); avg != 0 {
		t.Fatalf("steady-state event scheduling allocates %.1f allocs per 100 events, want 0", avg)
	}
}

// TestAllocFreeProcessSwitch: the Sleep/resume round trip.
func TestAllocFreeProcessSwitch(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	e.Spawn("sleeper", func(p *Proc) {
		for {
			p.Sleep(time.Microsecond)
			if p.eng.stopped {
				return
			}
		}
	})
	e.Run(time.Millisecond) // warm: start the goroutine, grow the heap
	if avg := testing.AllocsPerRun(50, func() { e.Run(e.Now() + time.Millisecond) }); avg != 0 {
		t.Fatalf("process switching allocates %.1f allocs per run, want 0", avg)
	}
}

// TestAllocFreeTimerCancel: schedule + lazy cancel churn.
func TestAllocFreeTimerCancel(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	fn := func() {}
	churn := func() {
		timers := [8]Timer{}
		for i := range timers {
			timers[i] = e.After(time.Duration(i+1)*time.Second, fn)
		}
		for i := range timers {
			if !timers[i].Cancel() {
				t.Fatal("cancel failed")
			}
		}
	}
	churn() // warm: grow handle table and free list
	if avg := testing.AllocsPerRun(100, churn); avg != 0 {
		t.Fatalf("timer cancel churn allocates %.1f allocs per run, want 0", avg)
	}
}

// TestAllocFreeSpawnReuse: pooled process records, wake channels, and
// goroutines make process-per-request spawning garbage-free after warm-up.
func TestAllocFreeSpawnReuse(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	body := func(p *Proc) { p.Sleep(time.Microsecond) }
	round := func() {
		for i := 0; i < 8; i++ {
			e.Spawn("pooled", body)
		}
		e.Run(0)
	}
	for i := 0; i < 4; i++ {
		round() // warm: populate the pool and grow the procs map
	}
	if avg := testing.AllocsPerRun(50, round); avg > 0.5 {
		t.Fatalf("pooled spawn allocates %.2f allocs per 8-proc round, want ~0", avg)
	}
}

// TestAllocFreeWaitQueues: Signal, Resource, and Queue ring buffers stop
// allocating once they reach their high-water capacity.
func TestAllocFreeWaitQueues(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	r := NewResource(e, 1)
	q := NewQueue[int](e)
	var workers []*Proc
	for i := 0; i < 4; i++ {
		workers = append(workers, e.Spawn("worker", func(p *Proc) {
			for {
				p.Acquire(r)
				q.Put(1)
				r.Release()
				p.Sleep(time.Microsecond)
				if p.eng.stopped {
					return
				}
			}
		}))
	}
	e.Spawn("drain", func(p *Proc) {
		for {
			q.Get(p)
			if p.eng.stopped {
				return
			}
		}
	})
	_ = workers
	e.Run(time.Millisecond) // warm: grow rings to their high-water marks
	if avg := testing.AllocsPerRun(20, func() { e.Run(e.Now() + time.Millisecond) }); avg != 0 {
		t.Fatalf("wait-queue churn allocates %.1f allocs per run, want 0", avg)
	}
}
