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

// TestStatsProcsAndSlackSplit pins the counters that split the work by
// kind: every Spawn counts once in ProcsSpawned, and every After timer,
// near or far, counts once in TimersArmed.
func TestStatsProcsAndSlackSplit(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	e.Spawn("a", func(p *Proc) {
		p.Sleep(time.Millisecond)
		e.Spawn("b", func(*Proc) {})
	})
	e.After(5*time.Millisecond, func() {})
	e.After(time.Hour, func() {})
	e.After(2*time.Millisecond, func() {})
	e.Run(0)
	got := e.Stats()
	if got.ProcsSpawned != 2 || got.TimersArmed != 3 {
		t.Fatalf("Stats = %+v, want ProcsSpawned 2, TimersArmed 3", got)
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
