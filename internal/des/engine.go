// Package des implements a deterministic discrete-event simulation engine.
//
// The engine advances a virtual clock over a 4-ary min-heap of scheduled
// events stored by value and keyed by (at, seq): events at equal times are
// tie-broken by scheduling sequence number, so every run with the same
// inputs produces the same event ordering. Concurrent activities are
// modeled as cooperative processes: each process is a goroutine, but a
// single control token guarantees that at most one process (or event
// callback) runs at any instant, so state shared between processes needs no
// locking.
//
// The scheduling core is built for throughput and is allocation-free in
// steady state:
//
//   - Events are values in a reusable heap array — no per-event heap
//     allocation. Process-resume events carry the *Proc directly instead of
//     a closure, so Sleep/Wait/Acquire wake-ups allocate nothing.
//   - Dispatch leaves a hole at the heap root instead of refilling it, and
//     the next push fills the hole with one sift down from the root. A
//     callback that schedules its successor therefore costs one sift, not
//     a sift down (pop) plus a sift up (push). Whatever needs the true
//     minimum first settles the hole: tail to root, then sift down.
//   - Cancelable timers (At/After) draw a generation-counted handle from a
//     free list, and a heap timer event carries the generation it was armed
//     with. Cancel bumps the generation in O(1) and leaves the event in the
//     heap as a dead entry, discarded when it reaches the root. Once dead
//     entries outnumber 64 and half the heap, the heap is rebuilt without
//     them, so the array never holds more than twice the live high-water
//     mark plus 65 entries. A Timer from a previous generation can never
//     cancel a reused handle.
//   - The control token travels with the goroutines themselves: a parking
//     process drives the dispatch loop inline, so a process that pops its
//     own resume event (the ubiquitous Sleep path) switches with zero
//     channel operations, and a process handing off to another process costs
//     one. The engine's Run goroutine regains the token only when the run
//     terminates or a process exits.
//   - Spawn recycles process records, wake channels, and parked goroutines
//     through a pool, so the cloud model's process-per-request pattern does
//     not start a goroutine per request.
//
// The engine also supports a real-time mode in which virtual delays are
// slept on the wall clock (optionally scaled) and external goroutines may
// inject work with Engine.Inject; this mode backs the live-HTTP serving of
// the simulated cloud. In real-time mode processes never dispatch inline:
// the token always returns to the run loop, which owns wall-clock pacing.
package des

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Time is a virtual timestamp, measured as a duration since the start of the
// simulation. Using time.Duration gives nanosecond resolution and convenient
// formatting.
type Time = time.Duration

// event is a scheduled occurrence, stored by value in the heap array.
// Exactly one of fn and proc is set: fn events invoke a callback, proc
// events transfer control to a parked process.
type event struct {
	at   Time
	seq  uint64
	fn   func()
	proc *Proc
	// hid is the timer-handle slot of a cancelable event, or -1 for events
	// that can never be canceled (process resumes, plain callbacks, injected
	// work). gen is the handle generation the timer was armed with: the
	// event is dead, and is skipped, once the handle's generation moves on.
	hid int32
	gen uint32
}

// timerHandle is one slot of the engine's cancelable-timer table. Slots are
// recycled through a free list; gen increments on every fire/cancel so stale
// Timer copies referring to a recycled slot are inert, and a Timer is
// pending exactly while its generation matches. A canceled timer keeps its
// slot until its dead event leaves the heap, so the slot's generation
// cannot move on while an event still carries it.
type timerHandle struct {
	gen uint32
}

// Timer is a handle to a scheduled callback that can be canceled. The zero
// Timer is valid and inert: Cancel reports false, Pending reports false.
type Timer struct {
	eng *Engine
	id  int32
	gen uint32
}

// Cancel prevents the timer's callback from firing, in O(1): the timer's
// event stays behind as a dead entry that the heap discards when it reaches
// the root or at the next compaction. Canceling an already fired, canceled,
// or zero Timer is a no-op. Cancel reports whether the callback was
// prevented.
func (t Timer) Cancel() bool {
	e := t.eng
	if e == nil {
		return false
	}
	h := &e.handles[t.id]
	if h.gen != t.gen {
		return false
	}
	h.gen++
	e.stats.TimersCanceled++
	e.dead++
	if e.dead > compactMin && 2*e.dead > len(e.events) {
		e.compact()
	}
	return true
}

// Pending reports whether the timer's callback is still scheduled.
func (t Timer) Pending() bool {
	return t.eng != nil && t.eng.handles[t.id].gen == t.gen
}

// Engine is a discrete-event simulation engine. The zero value is not usable;
// call NewEngine.
type Engine struct {
	now    Time
	events []event // 4-ary min-heap by (at, seq); see vacant and dead
	seq    uint64
	until  Time // horizon of the active Run, 0 = unbounded

	// vacant marks events[0] as a hole left by pop: the rest of the array
	// is up to four valid sub-heaps, which the next push joins by writing
	// into the hole and sifting down, and settle joins otherwise.
	vacant bool
	// dead counts canceled timer events still in the heap array.
	dead int

	handles     []timerHandle
	freeHandles []int32

	// next is a one-event front cache: when a virtual-time event schedules
	// its successor and that successor precedes everything in the heap, it
	// parks here and the dispatch loop takes it back without any heap
	// traffic. Straight-line event chains — a callback-form warm invocation,
	// a process sleeping through consecutive pipeline stages — are exactly
	// this pattern, so the cache removes a push/sift/pop/sift round per
	// chain hop. Invariant: when hasNext is set, next precedes every live
	// heap event in (at, seq) order. Only uncancelable events are cached, so
	// the cached event is never dead; real-time mode bypasses the cache
	// because its run loop peeks the heap root for wall pacing.
	next    event
	hasNext bool

	// stats counts the engine's work; see Stats.
	stats Stats

	// mainWake returns the control token to the run loop (Run, RunRealTime,
	// or Close) when a process exits, is killed, or parks at the horizon.
	mainWake chan struct{}

	procs   map[*Proc]struct{}
	pool    []*Proc // exited process records with parked goroutines
	stopped bool

	// Real-time mode.
	realTime      bool
	timeScale     float64 // virtual seconds per wall second multiplier (1 = real time)
	injectMu      sync.Mutex
	injected      []func()
	injectCh      chan struct{} // signaled when something is injected
	injectPending atomic.Bool   // fast-path check before taking injectMu
	started       time.Time
}

// NewEngine returns an engine with the virtual clock at zero.
//
// The heap and timer-handle arrays start with room for 64 entries, so a
// small simulation never grows them from deep inside a process goroutine's
// call chain, where the growth would also force that goroutine's stack to
// be copied.
func NewEngine() *Engine {
	return &Engine{
		events:      make([]event, 0, 64),
		handles:     make([]timerHandle, 0, 64),
		freeHandles: make([]int32, 0, 64),
		mainWake:    make(chan struct{}),
		procs:       make(map[*Proc]struct{}),
		injectCh:    make(chan struct{}, 1),
	}
}

// NewRealTimeEngine returns an engine that, when run, paces event delivery on
// the wall clock. timeScale compresses virtual time: with timeScale 10, ten
// virtual seconds elapse per wall-clock second. A time scale that is NaN,
// infinite, or <= 0 panics (callers with user-supplied scales validate
// first, e.g. httpfaas.NewServer).
func NewRealTimeEngine(timeScale float64) *Engine {
	if math.IsNaN(timeScale) || math.IsInf(timeScale, 0) || timeScale <= 0 {
		panic(fmt.Sprintf("des: invalid time scale %v", timeScale))
	}
	e := NewEngine()
	e.realTime = true
	e.timeScale = timeScale
	return e
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// --- 4-ary heap with a root hole and lazy deletion ---------------------------
//
// The heap stores events by value; children of slot i live at 4i+1..4i+4.
// A 4-ary layout halves tree depth versus binary, trading slightly wider
// sibling scans (cache-friendly: four 40-byte events span two or three cache
// lines) for fewer swap levels. Sifts move events only: no side table tracks
// heap positions, because canceled timers are deleted lazily (dead entries).

// compactMin is the number of dead entries the heap tolerates before a
// Cancel considers compaction; above it, compaction runs once dead entries
// also make up more than half the array.
const compactMin = 64

// eventBefore orders two events by (at, seq).
func eventBefore(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// live reports whether a heap event is still scheduled: uncancelable, or a
// timer whose handle has not moved to a later generation.
func (e *Engine) live(ev *event) bool {
	return ev.hid < 0 || e.handles[ev.hid].gen == ev.gen
}

// siftUp places ev at slot i and moves it toward the root until ordered.
func (e *Engine) siftUp(i int, ev event) {
	h := e.events
	for i > 0 {
		parent := int(uint(i-1) / 4)
		p := &h[parent]
		if p.at < ev.at || (p.at == ev.at && p.seq < ev.seq) {
			break
		}
		h[i] = *p
		i = parent
	}
	h[i] = ev
}

// siftDown places ev at slot i and moves it toward the leaves until
// ordered. The running minimum child's key stays in locals, so each level
// reads every child's (at, seq) once.
func (e *Engine) siftDown(i int, ev event) {
	h := e.events
	n := len(h)
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		end := c + 4
		if end > n {
			end = n
		}
		m, mat, mseq := c, h[c].at, h[c].seq
		for c++; c < end; c++ {
			if at := h[c].at; at < mat || (at == mat && h[c].seq < mseq) {
				m, mat, mseq = c, at, h[c].seq
			}
		}
		if ev.at < mat || (ev.at == mat && ev.seq < mseq) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = ev
}

// push inserts an event: into the root hole when one is open (one sift
// down from the root), else appended at the tail and sifted up.
func (e *Engine) push(ev event) {
	e.stats.HeapPushes++
	if e.vacant {
		e.vacant = false
		e.siftDown(0, ev)
		return
	}
	e.events = append(e.events, ev)
	e.siftUp(len(e.events)-1, ev)
}

// settle closes the root hole: the tail event moves to the root and sifts
// down. The vacated tail slot is cleared so recycled array capacity does
// not retain closures or processes.
func (e *Engine) settle() {
	e.vacant = false
	n := len(e.events) - 1
	tail := e.events[n]
	e.events[n] = event{}
	e.events = e.events[:n]
	if n > 0 {
		e.siftDown(0, tail)
	}
}

// top makes events[0] the live heap minimum: it settles an open hole and
// discards dead entries that surface at the root, returning their handle
// slots to the free list. It reports false when no live heap event remains.
func (e *Engine) top() bool {
	for {
		if e.vacant {
			e.settle()
		}
		if len(e.events) == 0 {
			return false
		}
		ev := &e.events[0]
		if e.live(ev) {
			return true
		}
		e.dead--
		e.freeHandles = append(e.freeHandles, ev.hid)
		e.vacant = true
	}
}

// pop removes and returns the heap minimum, leaving a hole at the root for
// the next push or settle. The caller has made events[0] the live minimum
// with top. A fired timer's handle moves to the next generation, which
// makes its Timer values stale.
func (e *Engine) pop() event {
	ev := e.events[0]
	e.vacant = true
	if ev.hid >= 0 {
		e.handles[ev.hid].gen++
		e.freeHandles = append(e.freeHandles, ev.hid)
	}
	return ev
}

// compact rebuilds the heap without its dead entries (and without an open
// hole) in O(n). Cancel runs it only once dead entries outnumber
// compactMin and half the array, so its cost is amortized O(1) per Cancel.
func (e *Engine) compact() {
	h := e.events
	i := 0
	if e.vacant {
		i, e.vacant = 1, false
	}
	n := 0
	for ; i < len(h); i++ {
		ev := &h[i]
		if !e.live(ev) {
			e.freeHandles = append(e.freeHandles, ev.hid)
			continue
		}
		h[n] = *ev
		n++
	}
	clear(h[n:])
	e.events = h[:n]
	e.dead = 0
	if n > 1 {
		for k := (n - 2) / 4; k >= 0; k-- {
			e.siftDown(k, h[k])
		}
	}
}

// precedesHeap reports whether ev precedes every live heap event. While a
// hole is open the heap minimum is the least of the root's children. A dead
// entry in front is discarded with top and the test repeated, so the answer,
// and with it the front cache's admissions, depends on live events alone.
func (e *Engine) precedesHeap(ev *event) bool {
	for {
		h := e.events
		m := 0
		if e.vacant {
			end := len(h)
			if end > 5 {
				end = 5
			}
			if end < 2 {
				return true
			}
			m = 1
			for c := 2; c < end; c++ {
				if eventBefore(&h[c], &h[m]) {
					m = c
				}
			}
		} else if len(h) == 0 {
			return true
		}
		if eventBefore(ev, &h[m]) {
			return true
		}
		if e.live(&h[m]) {
			return false
		}
		e.top()
	}
}

// --- scheduling -------------------------------------------------------------

// enqueue places a freshly sequenced event into the schedule: the front
// cache when it precedes everything pending, the heap otherwise. Cancelable
// timers always live in the heap, which may require evicting a cached event
// that no longer holds the minimum.
func (e *Engine) enqueue(ev event) {
	switch {
	case e.realTime || ev.hid >= 0:
		if e.hasNext && eventBefore(&ev, &e.next) {
			e.push(e.next)
			e.next = event{}
			e.hasNext = false
		}
		e.push(ev)
	case !e.hasNext:
		if len(e.events) == 0 || e.precedesHeap(&ev) {
			e.next, e.hasNext = ev, true
		} else {
			e.push(ev)
		}
	case eventBefore(&ev, &e.next):
		e.push(e.next)
		e.next = ev
	default:
		e.push(ev)
	}
	e.notePending()
}

// notePending folds the current schedule size into the peak-pending count.
func (e *Engine) notePending() {
	if n := e.PendingEvents(); n > e.stats.PeakPending {
		e.stats.PeakPending = n
	}
}

// popNext removes and returns the minimum pending event: the front cache
// when occupied (the invariant makes it the minimum), else the heap root,
// which atHorizon has made the live minimum.
func (e *Engine) popNext() event {
	e.stats.Events++
	if e.hasNext {
		e.stats.FrontHits++
		ev := e.next
		e.next = event{}
		e.hasNext = false
		return ev
	}
	return e.pop()
}

// schedule registers fn to run at time at (>= now).
func (e *Engine) schedule(at Time, fn func()) {
	if at < e.now {
		at = e.now
	}
	e.seq++
	e.enqueue(event{at: at, seq: e.seq, fn: fn, hid: -1})
}

// scheduleProc registers a process resume at time at (>= now). This is the
// allocation-free hot path behind Sleep, Signal.Fire, and Resource.Release.
func (e *Engine) scheduleProc(at Time, p *Proc) {
	if at < e.now {
		at = e.now
	}
	e.seq++
	e.enqueue(event{at: at, seq: e.seq, proc: p, hid: -1})
}

// scheduleTimer registers a cancelable callback under a fresh handle.
func (e *Engine) scheduleTimer(at Time, fn func()) Timer {
	if at < e.now {
		at = e.now
	}
	id := e.newHandle()
	gen := e.handles[id].gen
	e.seq++
	e.stats.TimersArmed++
	e.enqueue(event{at: at, seq: e.seq, fn: fn, hid: id, gen: gen})
	return Timer{eng: e, id: id, gen: gen}
}

// newHandle draws a timer-handle slot from the free list, growing the table
// only on first use at each depth.
func (e *Engine) newHandle() int32 {
	if n := len(e.freeHandles); n > 0 {
		id := e.freeHandles[n-1]
		e.freeHandles = e.freeHandles[:n-1]
		return id
	}
	e.handles = append(e.handles, timerHandle{})
	return int32(len(e.handles) - 1)
}

// At schedules fn to run at the given virtual time and returns a cancelable
// Timer. Must be called from simulation context (a process or event callback).
func (e *Engine) At(at Time, fn func()) Timer {
	return e.scheduleTimer(at, fn)
}

// After schedules fn to run d from now.
func (e *Engine) After(d time.Duration, fn func()) Timer {
	return e.scheduleTimer(e.now+d, fn)
}

// Call schedules fn to run at the current virtual instant, after events
// already scheduled for this instant. It is the uncancelable, zero-
// bookkeeping counterpart of After(0, fn): no timer handle is drawn, and a
// reused fn value (a stored method value or pre-built closure) makes the
// call allocation-free. Callback events share the engine's sequence counter
// with process resumes, so a callback chain and a process performing the
// same schedule drain in the identical order, including at timestamp ties.
// Must be called from simulation context.
func (e *Engine) Call(fn func()) { e.schedule(e.now, fn) }

// CallAt schedules fn as an uncancelable callback at the given virtual
// time (clamped to now). See Call for the ordering and allocation contract.
func (e *Engine) CallAt(at Time, fn func()) { e.schedule(at, fn) }

// CallAfter schedules fn as an uncancelable callback d from now. Negative
// durations are treated as zero. See Call for the ordering and allocation
// contract; this is the primitive behind the callback-form warm-invoke
// fast path, where each pipeline stage schedules its successor.
func (e *Engine) CallAfter(d time.Duration, fn func()) { e.schedule(e.now+d, fn) }

// errKilled is the sentinel used to unwind killed processes.
var errKilled = errors.New("des: process killed")

// atHorizon reports whether dispatch must stop: no events remain, or the
// next event lies beyond the active run's bound. The front cache, when
// occupied, holds the minimum pending event, so it alone decides; otherwise
// top settles the heap so that its root is the live minimum.
func (e *Engine) atHorizon() bool {
	if e.hasNext {
		return e.until != 0 && e.next.at > e.until
	}
	return !e.top() || (e.until != 0 && e.events[0].at > e.until)
}

// Run drains events until the heap is empty or the virtual clock would pass
// until. A zero until means run until no events remain. Processes blocked on
// resources or signals when Run returns remain parked; use Close to release
// them.
//
// The calling goroutine holds the control token between events, but hands it
// to processes it resumes; a process chain dispatches events among itself
// and returns the token here only when the horizon is reached or a process
// exits.
func (e *Engine) Run(until Time) {
	e.until = until
	for !e.atHorizon() {
		ev := e.popNext()
		if e.realTime {
			e.waitWall(ev.at)
			e.drainInjected()
		}
		e.now = ev.at
		if ev.proc != nil {
			ev.proc.wake <- struct{}{}
			<-e.mainWake
			continue
		}
		ev.fn()
	}
	if until != 0 && until > e.now {
		e.now = until
	}
	e.until = 0
}

// dispatchFrom drives the event loop from a parking process p until p's own
// resume event surfaces (return true: p regains control with zero channel
// operations) or the token leaves this goroutine (return false: p must wait
// on its wake channel). Virtual-time mode only.
func (e *Engine) dispatchFrom(p *Proc) bool {
	for {
		if e.atHorizon() {
			e.mainWake <- struct{}{}
			return false
		}
		ev := e.popNext()
		e.now = ev.at
		if ev.proc == nil {
			ev.fn()
			continue
		}
		if ev.proc == p {
			return true
		}
		ev.proc.wake <- struct{}{}
		return false
	}
}

// dispatchOnExit hands the token onward when a process finishes: it keeps
// firing callback events, transfers to the next resumed process, or returns
// the token to Run at the horizon. A callback it fires may Spawn and reuse
// the exiting record, and the loop could then pop that record's fresh
// first-resume on its own goroutine. Sending to the own wake channel would
// deadlock, so dispatchOnExit reports true instead and the goroutine starts
// the new assignment directly.
func (e *Engine) dispatchOnExit(exited *Proc) bool {
	for {
		if e.atHorizon() {
			e.mainWake <- struct{}{}
			return false
		}
		ev := e.popNext()
		e.now = ev.at
		if ev.proc == nil {
			ev.fn()
			continue
		}
		if ev.proc == exited {
			return true
		}
		ev.proc.wake <- struct{}{}
		return false
	}
}

// RunRealTime services events forever in real-time mode, blocking the calling
// goroutine. It returns when stop is closed. Injected work (via Inject) wakes
// the loop immediately.
func (e *Engine) RunRealTime(stop <-chan struct{}) {
	if !e.realTime {
		panic("des: RunRealTime on a virtual-time engine")
	}
	e.started = time.Now()
	for {
		select {
		case <-stop:
			return
		default:
		}
		e.syncVirtualClock()
		e.drainInjected()
		if !e.top() {
			// Idle: wait for injection or stop.
			select {
			case <-stop:
				return
			case <-e.injectCh:
				continue
			}
		}
		next := e.events[0]
		if !e.sleepUntil(next.at, stop) {
			return
		}
		e.syncVirtualClock()
		e.drainInjected()
		if !e.top() || e.events[0].seq != next.seq {
			continue // an injection scheduled something earlier
		}
		ev := e.pop()
		e.stats.Events++
		if ev.at > e.now {
			e.now = ev.at
		}
		if ev.proc != nil {
			ev.proc.wake <- struct{}{}
			<-e.mainWake
			continue
		}
		ev.fn()
	}
}

// syncVirtualClock advances the virtual clock to the wall-clock-equivalent
// instant in real-time mode, so work injected after an idle period is
// scheduled relative to "now" rather than to the last fired event. The
// clock never moves backwards.
func (e *Engine) syncVirtualClock() {
	if !e.realTime || e.started.IsZero() {
		return
	}
	v := Time(float64(time.Since(e.started)) * e.timeScale)
	if v > e.now {
		e.now = v
	}
}

// sleepUntil waits on the wall clock until virtual time at is due. It returns
// false if stop fired, true otherwise (including when an injection arrived,
// in which case the caller re-evaluates the heap). To keep pacing error from
// being amplified by the time scale, the final stretch before the deadline
// is spin-waited: OS timers overshoot by around a millisecond, which a 10x
// time scale would turn into 10ms of virtual error per event.
//
// The spin window shrinks as the time scale grows. At high compression the
// virtual-time error from timer overshoot dwarfs what spinning can recover
// (at 1000x even a perfectly timed wake-up is ~100 virtual milliseconds
// coarse), while a fixed 2ms of busy-waiting per far-future event starves
// the serve path of CPU — at scale the engine fires thousands of lifecycle
// events per second, each of which would otherwise spin.
func (e *Engine) sleepUntil(at Time, stop <-chan struct{}) bool {
	const spinWindow = 2 * time.Millisecond
	const minSpinWindow = 100 * time.Microsecond
	spin := spinWindow
	if e.timeScale > 1 {
		spin = time.Duration(float64(spinWindow) / e.timeScale)
		if spin < minSpinWindow {
			spin = minSpinWindow
		}
	}
	wall := e.wallDeadline(at)
	if d := time.Until(wall) - spin; d > 0 {
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-stop:
			return false
		case <-e.injectCh:
			return true
		case <-t.C:
		}
	}
	for time.Now().Before(wall) {
		select {
		case <-stop:
			return false
		case <-e.injectCh:
			return true
		default:
			runtime.Gosched()
		}
	}
	return true
}

func (e *Engine) wallDeadline(at Time) time.Time {
	return e.started.Add(time.Duration(float64(at) / e.timeScale))
}

// waitWall is used by Run in real-time mode (tests); it busy-sleeps to the
// wall deadline without injection wake-ups.
func (e *Engine) waitWall(at Time) {
	if e.started.IsZero() {
		e.started = time.Now()
	}
	if d := time.Until(e.wallDeadline(at)); d > 0 {
		time.Sleep(d)
	}
}

// Inject schedules fn to run inside the simulation as soon as possible. It is
// the only Engine method safe to call from outside simulation context and is
// intended for real-time mode (e.g., an HTTP handler submitting a request).
func (e *Engine) Inject(fn func()) {
	e.injectMu.Lock()
	e.injected = append(e.injected, fn)
	e.injectMu.Unlock()
	e.injectPending.Store(true)
	select {
	case e.injectCh <- struct{}{}:
	default:
	}
}

func (e *Engine) drainInjected() {
	// The run loop calls this on every event; skip the mutex when nothing
	// arrived. An Inject racing the Swap is not lost: its append
	// happens-before its Store, so either this drain's critical section
	// sees the item or the flag stays set for the next pass.
	if !e.injectPending.Swap(false) {
		return
	}
	e.injectMu.Lock()
	pending := e.injected
	e.injected = nil
	e.injectMu.Unlock()
	for _, fn := range pending {
		// Schedule at the current instant; runs in heap order.
		e.schedule(e.now, fn)
	}
}

// Close kills all live processes and releases the pooled goroutines. The
// engine must not be used afterwards.
func (e *Engine) Close() {
	e.stopped = true
	for p := range e.procs {
		p.kill()
	}
	for _, p := range e.pool {
		p.fn = nil
		p.wake <- struct{}{} // pooled runner sees nil fn and exits
	}
	e.pool = nil
	e.events = nil
	e.vacant = false
	e.dead = 0
	e.next = event{}
	e.hasNext = false
	e.handles = nil
	e.freeHandles = nil
}

// Stats is a snapshot of the engine's work counters since NewEngine. Every
// field is deterministic for a given schedule, so counts taken from two
// runs of the same seed are equal and can be pinned exactly, unlike host
// time.
type Stats struct {
	// Events counts dispatched events: callbacks, process resumes and
	// fired timers.
	Events uint64
	// FrontHits counts events dispatched from the one-event front cache,
	// i.e. without any heap traffic.
	FrontHits uint64
	// HeapPushes counts insertions into the heap, including front-cache
	// evictions.
	HeapPushes uint64
	// TimersArmed counts cancelable timers scheduled with At or After.
	TimersArmed uint64
	// TimersCanceled counts Cancel calls that prevented a callback.
	TimersCanceled uint64
	// PeakPending is the largest PendingEvents value reached.
	PeakPending int
	// ProcsSpawned counts Spawn calls.
	ProcsSpawned uint64
}

// Stats returns the engine's work counters. It does not allocate.
func (e *Engine) Stats() Stats { return e.stats }

// PendingEvents reports the number of scheduled live events (including the
// front-cached one). Canceled timers leave the count at Cancel, even while
// their dead entries wait in the heap array; compaction bounds those
// entries, so the array stays bounded under timer churn (WaitTimeout
// cancel/fire cycles) as well.
func (e *Engine) PendingEvents() int {
	n := len(e.events) - e.dead
	if e.vacant {
		n--
	}
	if e.hasNext {
		n++
	}
	return n
}
