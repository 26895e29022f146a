package cloud

import (
	"testing"
	"time"
)

// TestWarmRequestEventBudget pins the engine work of a warm callback-form
// invocation through des.Engine.Stats: n spaced requests reuse one idle
// instance under a fixed keep-alive, and the counters are read around them,
// minus the test's own n arrival events. Events, cancels, armed timers and
// spawned procs are deterministic, so a pipeline change that adds a hop, a
// timer or a goroutine fails here on any machine; lowering a pin is a
// deliberate, recorded change.
func TestWarmRequestEventBudget(t *testing.T) {
	const (
		n         = 100
		gap       = 700 * time.Millisecond
		keepAlive = 25 * time.Second
		warmAt    = 10 * time.Second
	)
	cfg := testConfig()
	cfg.KeepAlive = KeepAlivePolicy{Fixed: keepAlive}
	eng, c := newTestCloud(t, cfg)
	deploy(t, c, FunctionSpec{Name: "f", ExecTime: 5 * time.Millisecond})

	served, cold := 0, 0
	done := func(resp *Response, err error) {
		if err != nil {
			t.Fatal(err)
		}
		served++
		if resp.Cold {
			cold++
		}
	}
	eng.Call(func() { c.InvokeAsync(&Request{Fn: "f"}, done) })
	eng.Run(warmAt) // the cold request has returned; its instance idles
	before := eng.Stats()
	for i := 0; i < n; i++ {
		eng.CallAt(warmAt+time.Duration(i)*gap, func() { c.InvokeAsync(&Request{Fn: "f"}, done) })
	}
	end := warmAt + n*gap
	eng.Run(end) // stop before the last keep-alive deadline
	after := eng.Stats()

	if served != n+1 || cold != 1 {
		t.Fatalf("served %d (%d cold), want %d (1 cold)", served, cold, n+1)
	}
	// Each request takes 6 events: begin, frontend, admit, acquire, execDone
	// (overhead and exec folded) and finish (response path and return leg
	// folded). Reuse cancels nothing; the one keep-alive timer re-arms at
	// most once per keep-alive window, and each re-arm is one more event.
	// A warm request runs as callbacks and spawns no proc.
	events := after.Events - before.Events - n
	canceled := after.TimersCanceled - before.TimersCanceled
	armed := after.TimersArmed - before.TimersArmed
	procs := after.ProcsSpawned - before.ProcsSpawned
	windows := uint64((end - warmAt + keepAlive - 1) / keepAlive)
	if events != 6*n+armed || canceled != 0 || armed > windows || procs != 0 {
		t.Fatalf("per %d warm requests: %d events, %d cancels, %d timers armed, %d procs spawned; want 6 per request plus one per re-arm, 0 cancels, at most %d re-arms and 0 procs",
			n, events, canceled, armed, procs, windows)
	}
}
