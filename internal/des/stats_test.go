package des

import (
	"testing"
	"time"
)

// TestStatsCounts pins every Stats counter on a small schedule whose
// dispatch path is known hop by hop: a two-hop callback chain that stays in
// the front cache, one heap timer that fires and one that is canceled.
func TestStatsCounts(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	e.Call(func() { e.CallAfter(time.Millisecond, func() {}) })
	e.At(5*time.Millisecond, func() {})
	e.At(6*time.Millisecond, func() {}).Cancel()
	e.Run(0)
	want := Stats{Events: 3, FrontHits: 2, HeapPushes: 2, TimersArmed: 2, TimersCanceled: 1, PeakPending: 3}
	if got := e.Stats(); got != want {
		t.Fatalf("Stats = %+v, want %+v", got, want)
	}
}

// TestStatsSlackWheel counts a slack timer twice, once on insert and once
// for the wheel alarm that carries it, and dispatches both the alarm and
// the timer it fires.
func TestStatsSlackWheel(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	e.SetTimerSlack(10 * time.Millisecond)
	fired := false
	e.AfterSlack(25*time.Millisecond, func() { fired = true })
	e.Run(0)
	want := Stats{Events: 2, HeapPushes: 1, TimersArmed: 2, SlackTimersArmed: 1, PeakPending: 2}
	if got := e.Stats(); !fired || got != want {
		t.Fatalf("fired=%v Stats = %+v, want %+v", fired, got, want)
	}
}

// TestStatsProcsAndSlackSplit pins the two counters that split the work by
// facility: every Spawn counts once, and only AfterSlack timers that land
// on the wheel count as slack timers. A deadline beyond the wheel's
// horizon falls back to the heap and counts in TimersArmed alone, as do
// the wheel's alarm and plain After timers.
func TestStatsProcsAndSlackSplit(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	e.SetTimerSlack(time.Millisecond)
	e.Spawn("a", func(p *Proc) {
		p.Sleep(time.Millisecond)
		e.Spawn("b", func(*Proc) {})
	})
	e.AfterSlack(5*time.Millisecond, func() {})
	e.AfterSlack(time.Hour, func() {}) // beyond the 16128-tick horizon
	e.After(2*time.Millisecond, func() {})
	e.Run(0)
	got := e.Stats()
	if got.ProcsSpawned != 2 || got.SlackTimersArmed != 1 || got.TimersArmed != 4 {
		t.Fatalf("Stats = %+v, want ProcsSpawned 2, SlackTimersArmed 1, TimersArmed 4", got)
	}
}

// TestStatsAllocFree: reading the counters never allocates.
func TestStatsAllocFree(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	var s Stats
	if a := testing.AllocsPerRun(100, func() { s = e.Stats() }); a != 0 {
		t.Fatalf("Stats allocates %v per call", a)
	}
	_ = s
}
