package des

import (
	mbits "math/bits"
	"time"
)

// This file implements the engine's second timer facility: a hierarchical
// timing wheel for timers that tolerate tick-granularity slack.
//
// The exact 4-ary heap (engine.go) charges O(log n) per insert, with the
// constant dominated by cache-missing sifts once the heap holds hundreds of
// thousands of events, and a canceled heap timer stays behind as a dead
// entry until the root or a compaction removes it. Provider-scale
// multi-tenant replay is exactly that regime: every idle instance of every
// tenant holds a live keep-alive timer. Expiry is lazy (reuse moves the
// instance's deadline, not its timer), so each instance arms about one
// timer per keep-alive window rather than one per warm invocation, but the
// timers stay many.
// They do not need nanosecond placement — a keep-alive of minutes is
// semantically unchanged by firing up to one tick late — so they can live
// on a classic two-level timing wheel instead:
//
//   - Level 0: 256 slots of one tick each (the next 255 ticks).
//   - Level 1: 64 slots of 256 ticks each (up to ~16k ticks out).
//
// Insert hashes the quantized deadline to a slot and head-inserts into a
// doubly-linked, index-addressed, free-listed node list: O(1), zero
// allocations in steady state. Cancel unlinks the node: O(1). Deadlines
// beyond the wheel's horizon fall back to the exact heap (still correct,
// merely not O(1)); they are rare by construction when the tick is chosen
// so that horizon = 16128 ticks covers the keep-alive range.
//
// The wheel is driven by the engine itself: a single cancelable heap event
// (the "alarm") is armed at the earliest quantized deadline the wheel
// holds. When it fires, the wheel advances to that tick, cascades any
// level-1 slot whose ticks now fit level 0, fires the due slot, and
// re-arms. Cancels leave the alarm in place (lazy): a stale alarm finds an
// empty slot, re-arms, and costs one heap pop — cheaper than re-scanning
// the wheel on every cancel.
//
// Determinism: the engine's clock only ever stops on exact tick multiples
// for wheel work, slot lists fire in a fixed (LIFO-of-insert) order, and
// the alarm shares the engine's sequence counter, so runs replay
// byte-identically. Timers never fire early: a deadline is rounded UP to
// the next tick boundary, so the callback runs in [deadline, deadline+tick].

const (
	wheelL0Bits = 8
	wheelL0Size = 1 << wheelL0Bits // ticks per level-0 revolution
	wheelL0Mask = wheelL0Size - 1
	wheelL1Size = 64 // level-1 slots of wheelL0Size ticks each

	// wheelMaxTicks is the farthest quantized offset the wheel accepts.
	// Bounding it to 63 level-0 revolutions keeps every reachable deadline's
	// level-1 slot unaliased (no two distinct 256-tick bases share a slot),
	// which is what lets cascade move whole slots without inspecting ticks.
	wheelMaxTicks = wheelL0Size * (wheelL1Size - 1)
)

// wheelNode is one pending slack timer, stored by value in a reusable
// array and linked by index, so churn recycles nodes without allocating.
type wheelNode struct {
	fn   func()
	tick int64 // quantized deadline, in ticks
	hid  int32 // the engine timer-handle slot owning this node
	prev int32 // previous node in the slot list, -1 at head
	next int32 // next node in the slot list, -1 at tail
	slot int32 // 0..wheelL0Size-1 = L0 slot, wheelL0Size+j = L1 slot j, -1 = free
}

// wheel is the two-level timing wheel. At most one exists per engine,
// created by SetTimerSlack and fed by AfterSlack.
type wheel struct {
	eng  *Engine
	tick Time  // tick duration (the slack granularity)
	cur  int64 // all ticks <= cur have fired

	nodes []wheelNode
	free  []int32 // recycled node indices
	count int     // live nodes across both levels

	l0     [wheelL0Size]int32 // head node index per L0 slot, -1 empty
	l1     [wheelL1Size]int32 // head node index per L1 slot, -1 empty
	l0bits [wheelL0Size / 64]uint64
	l1bits uint64

	// alarm is the single heap event driving the wheel; alarmTick is the
	// tick it is armed for, -1 when unarmed. alarmFn is bound once so
	// re-arming never allocates a closure.
	alarm     Timer
	alarmTick int64
	alarmFn   func()
}

func newWheel(e *Engine, tick Time) *wheel {
	w := &wheel{eng: e, tick: tick, cur: int64(e.now / tick), alarmTick: -1}
	for i := range w.l0 {
		w.l0[i] = -1
	}
	for i := range w.l1 {
		w.l1[i] = -1
	}
	w.alarmFn = w.onAlarm
	return w
}

// schedule registers fn at deadline at, rounded up to the next tick.
// Deadlines beyond the wheel's horizon use the exact heap instead; both
// paths return an ordinary cancelable Timer.
func (w *wheel) schedule(at Time, fn func()) Timer {
	e := w.eng
	// An empty, unarmed wheel has nothing anchored to cur; resync it to the
	// clock so an idle gap longer than the horizon cannot push every later
	// deadline onto the heap-fallback path. With an alarm still armed (a
	// stale one after the last cancel) cur must stay put: onAlarm assumes
	// the clock never passes an armed alarm's tick.
	if w.count == 0 && w.alarmTick < 0 {
		w.cur = int64(e.now / w.tick)
	}
	qt := int64((at + w.tick - 1) / w.tick)
	if qt <= w.cur {
		qt = w.cur + 1
	}
	if qt-w.cur > wheelMaxTicks {
		return e.scheduleTimer(at, fn)
	}

	var ni int32
	if n := len(w.free); n > 0 {
		ni = w.free[n-1]
		w.free = w.free[:n-1]
	} else {
		ni = int32(len(w.nodes))
		w.nodes = append(w.nodes, wheelNode{})
	}
	id := e.newHandle()
	h := &e.handles[id]
	h.node = ni

	nd := &w.nodes[ni]
	nd.fn, nd.tick, nd.hid = fn, qt, id
	w.place(ni, qt)
	w.count++
	e.stats.TimersArmed++
	e.stats.SlackTimersArmed++
	e.notePending()
	if w.alarmTick < 0 || qt < w.alarmTick {
		w.arm(qt)
	}
	return Timer{eng: e, id: id, gen: h.gen}
}

// place links node ni into the slot for tick qt. Ticks within one level-0
// revolution of cur go to level 0 (each maps to a distinct slot); farther
// ticks go to level 1, where a slot holds one whole 256-tick base.
func (w *wheel) place(ni int32, qt int64) {
	nd := &w.nodes[ni]
	var head *int32
	var slot int32
	if qt-w.cur < wheelL0Size {
		s := int32(qt & wheelL0Mask)
		slot = s
		head = &w.l0[s]
		w.l0bits[s>>6] |= 1 << (uint(s) & 63)
	} else {
		j := int32((qt >> wheelL0Bits) & (wheelL1Size - 1))
		slot = wheelL0Size + j
		head = &w.l1[j]
		w.l1bits |= 1 << uint(j)
	}
	nd.slot = slot
	nd.prev = -1
	nd.next = *head
	if *head >= 0 {
		w.nodes[*head].prev = ni
	}
	*head = ni
}

// unlink removes node ni from its slot list and recycles it. The alarm is
// left armed even if this was the earliest node: a stale alarm fires, finds
// nothing due, and re-arms (lazy cancellation).
func (w *wheel) unlink(ni int32) {
	nd := &w.nodes[ni]
	if nd.prev >= 0 {
		w.nodes[nd.prev].next = nd.next
	} else if nd.slot < wheelL0Size {
		s := nd.slot
		w.l0[s] = nd.next
		if nd.next < 0 {
			w.l0bits[s>>6] &^= 1 << (uint(s) & 63)
		}
	} else {
		j := nd.slot - wheelL0Size
		w.l1[j] = nd.next
		if nd.next < 0 {
			w.l1bits &^= 1 << uint(j)
		}
	}
	if nd.next >= 0 {
		w.nodes[nd.next].prev = nd.prev
	}
	nd.fn = nil
	nd.prev, nd.next, nd.slot = -1, -1, -1
	w.free = append(w.free, ni)
	w.count--
}

// onAlarm advances the wheel to the armed tick, cascades ripe level-1
// slots down, fires everything due at this tick, and re-arms for the next
// occupied slot.
func (w *wheel) onAlarm() {
	t := w.alarmTick
	w.alarmTick = -1
	w.cur = t
	w.cascade(t)
	w.fireSlot(t)
	w.armNext()
}

// cascade moves every level-1 slot whose 256-tick base has come within the
// level-0 window down into level 0. All nodes in one L1 slot share a base
// (see wheelMaxTicks), so ripeness is decided by the head node alone.
func (w *wheel) cascade(t int64) {
	for bits := w.l1bits; bits != 0; bits &= bits - 1 {
		j := mbits.TrailingZeros64(bits)
		head := w.l1[j]
		if w.nodes[head].tick&^int64(wheelL0Mask) > t {
			continue
		}
		w.l1[j] = -1
		w.l1bits &^= 1 << uint(j)
		for ni := head; ni >= 0; {
			nxt := w.nodes[ni].next
			w.place(ni, w.nodes[ni].tick)
			ni = nxt
		}
	}
}

// fireSlot drains the level-0 slot due at tick t. Nodes are popped one at
// a time through the normal unlink path before their callback runs: a
// callback may cancel a sibling timer in this same slot, and detaching the
// whole list up front would corrupt the links it needs. Termination: a
// callback cannot insert into this slot (fresh deadlines quantize to
// >= t+1, and t+256 maps to level 1), so the list only shrinks.
func (w *wheel) fireSlot(t int64) {
	e := w.eng
	s := int32(t & wheelL0Mask)
	for w.l0[s] >= 0 {
		ni := w.l0[s]
		nd := &w.nodes[ni]
		fn, hid := nd.fn, nd.hid
		w.unlink(ni)
		h := &e.handles[hid]
		h.node = -1
		h.gen++
		e.freeHandles = append(e.freeHandles, hid)
		e.stats.Events++
		fn()
	}
}

// armNext scans the occupancy bitmaps for the earliest pending tick and
// arms the alarm there. Level-0 slot s within the current window holds
// exactly tick cur+1+((s-cur-1) mod 256); a level-1 slot's earliest
// possible tick is its head's 256-tick base.
func (w *wheel) armNext() {
	if w.count == 0 {
		return
	}
	base := w.cur + 1
	best := int64(-1)
	for wi, word := range w.l0bits {
		for ; word != 0; word &= word - 1 {
			s := int64(wi*64 + mbits.TrailingZeros64(word))
			t := base + ((s - base) & wheelL0Mask)
			if best < 0 || t < best {
				best = t
			}
		}
	}
	for bits := w.l1bits; bits != 0; bits &= bits - 1 {
		j := mbits.TrailingZeros64(bits)
		b := w.nodes[w.l1[j]].tick &^ int64(wheelL0Mask)
		if b < base {
			b = base
		}
		if best < 0 || b < best {
			best = b
		}
	}
	if best >= 0 && best != w.alarmTick {
		w.arm(best)
	}
}

// arm points the alarm at tick qt, canceling any later-armed alarm. The
// alarm is an ordinary cancelable heap timer with a pre-bound callback,
// so re-arming is allocation-free.
func (w *wheel) arm(qt int64) {
	if w.alarmTick >= 0 {
		w.alarm.Cancel()
	}
	w.alarmTick = qt
	w.alarm = w.eng.At(Time(qt)*w.tick, w.alarmFn)
}

// SetTimerSlack installs (tick > 0) or removes (tick == 0) the engine's
// coarse timer wheel. With a wheel installed, AfterSlack timers are
// quantized to the tick and fire up to one tick late — never early — at
// O(1) amortized insert/cancel cost; without one, AfterSlack is exactly
// After. The slack cannot change while slack timers are pending. Negative
// ticks panic.
func (e *Engine) SetTimerSlack(tick time.Duration) {
	if tick < 0 {
		panic("des: negative timer slack")
	}
	if tick == 0 {
		if e.wheel != nil && e.wheel.count > 0 {
			panic("des: SetTimerSlack(0) with slack timers pending")
		}
		e.wheel = nil
		return
	}
	if e.wheel != nil {
		if e.wheel.tick == tick {
			return
		}
		if e.wheel.count > 0 {
			panic("des: changing timer slack with slack timers pending")
		}
	}
	e.wheel = newWheel(e, tick)
}

// TimerSlack returns the configured slack tick, 0 when the wheel is off.
func (e *Engine) TimerSlack() time.Duration {
	if e.wheel == nil {
		return 0
	}
	return e.wheel.tick
}

// AfterSlack schedules fn to run d from now with tick-granularity slack:
// when a timer wheel is installed (SetTimerSlack), the deadline rounds up
// to the next tick and insert/cancel cost O(1) amortized with zero
// steady-state allocations; when no wheel is installed this is exactly
// After. Use it for timers whose semantics tolerate firing up to one tick
// late — keep-alive expiries, idle reaping — and keep latency-critical
// events on At/After.
func (e *Engine) AfterSlack(d time.Duration, fn func()) Timer {
	if e.wheel == nil {
		return e.scheduleTimer(e.now+d, fn)
	}
	return e.wheel.schedule(e.now+d, fn)
}

// SlackTimers reports how many timers currently live on the wheel
// (excluding beyond-horizon fallbacks, which live on the heap).
func (e *Engine) SlackTimers() int {
	if e.wheel == nil {
		return 0
	}
	return e.wheel.count
}
