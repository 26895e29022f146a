package des

import (
	"testing"
	"time"
)

// FuzzEventQueue drives the event queue with a byte program of random
// Call, CallAt, CallAfter, At and After calls and random Cancel calls, and
// checks it against a reference model after every operation and on every
// dispatch:
//
//   - each event dispatches at its instant, and only when it is the least
//     live event by (at, seq), so the dispatch order equals the live events
//     sorted by (at, seq);
//   - canceled timers never fire, and Cancel reports true only for a live
//     timer;
//   - PendingEvents equals the live count, and the heap array never holds
//     more than 2·PeakPending+65 entries;
//   - fired and canceled Timer values report Pending false and Cancel false.
//
// Operations run both before Run and inside dispatched callbacks, where the
// heap root is typically a hole, so cancels, double cancels, cancels of
// fired timers and bulk cancels across the compaction threshold all happen
// with and without an open hole.
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{0, 3, 1, 4, 3, 5, 6, 2, 2, 1, 6, 0})
	f.Add([]byte{1, 3, 5, 2, 5, 3, 5, 0xe4, 2, 6, 1, 6, 1, 3, 3, 9, 8, 0})
	f.Add([]byte{0, 3, 7, 0, 7, 1, 7, 2, 3, 7, 3, 7, 4, 7, 5})
	f.Add([]byte{0, 2, 3, 0xf0, 8, 0, 2, 3, 0xf1, 8, 0, 2, 3, 0xf2, 8, 0, 3, 0, 0, 1, 2, 6, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			t.Skip()
		}
		if len(data) > 1024 {
			data = data[:1024] // keep each run within milliseconds
		}
		runQueueProgram(t, data)
	})
}

// queueEntry is the reference model's record of one scheduled callback.
type queueEntry struct {
	at     Time
	seq    uint64
	t      Timer // zero for uncancelable events
	live   bool
	ignore bool // fired or canceled; its Timer value is stale
	pos    int  // index in queueModel.live while live
}

type queueModel struct {
	t       *testing.T
	e       *Engine
	prog    []byte
	pc      int
	entries []queueEntry
	timers  []int // entry indices of every timer ever armed
	live    []int // entry indices of the live events
}

// runQueueProgram runs a byte program. Its first byte is skipped, which
// keeps the committed corpus entries' operations aligned.
func runQueueProgram(t *testing.T, data []byte) {
	e := NewEngine()
	defer e.Close()
	m := &queueModel{t: t, e: e, prog: data[1:]}
	for m.pc < len(m.prog) {
		m.step()
		e.Run(0)
		m.check()
	}
	if len(m.live) != 0 || e.PendingEvents() != 0 {
		t.Fatalf("after drain: model holds %d live events, PendingEvents = %d", len(m.live), e.PendingEvents())
	}
	for _, i := range m.timers {
		if tm := m.entries[i].t; tm.Pending() || tm.Cancel() {
			t.Fatalf("stale timer %d still pending or cancelable after drain", i)
		}
	}
}

// next returns the next program byte, 0 past the end.
func (m *queueModel) next() byte {
	if m.pc >= len(m.prog) {
		return 0
	}
	b := m.prog[m.pc]
	m.pc++
	return b
}

// delay maps a byte to a delay: 0–31ms mostly, so instants tie often, and
// 0–31s for bytes with the top three bits set.
func queueDelay(b byte) time.Duration {
	d := time.Duration(b&0x1f) * time.Millisecond
	if b&0xe0 == 0xe0 {
		d *= 1000
	}
	return d
}

// step runs the next group of zero to three operations.
func (m *queueModel) step() {
	for n := m.next() % 4; n > 0 && m.pc < len(m.prog); n-- {
		m.op(m.next(), m.next())
		m.check()
	}
}

func (m *queueModel) op(code, arg byte) {
	e := m.e
	now := e.Now()
	d := queueDelay(arg)
	switch code % 9 {
	case 0:
		m.exact(now, func(fn func()) { e.Call(fn) })
	case 1:
		m.exact(now+d, func(fn func()) { e.CallAfter(d, fn) })
	case 2:
		// A past instant clamps to now.
		at := now + d - 2*time.Millisecond
		m.exact(max(at, now), func(fn func()) { e.CallAt(at, fn) })
	case 3, 5:
		m.timer(now+d, func(fn func()) Timer { return e.After(d, fn) })
	case 4:
		m.timer(now+d, func(fn func()) Timer { return e.At(now+d, fn) })
	case 6:
		if len(m.timers) > 0 {
			m.cancel(m.timers[int(arg)%len(m.timers)])
		}
	case 7:
		// Bulk: arm far-future timers and cancel all of them, or all but
		// one, so dead entries pile past the compaction threshold.
		n := 70 + int(arg%64)
		first := len(m.timers)
		for i := 0; i < n; i++ {
			at := now + time.Hour + time.Duration(i)*time.Millisecond
			m.timer(at, func(fn func()) Timer { return e.At(at, fn) })
		}
		for i := first + int(arg&1); i < len(m.timers); i++ {
			m.cancel(m.timers[i])
		}
	case 8:
		// Cancel the newest timer, typically one armed moments ago.
		if len(m.timers) > 0 {
			m.cancel(m.timers[len(m.timers)-1])
		}
	}
}

// add records a new live entry and returns its index.
func (m *queueModel) add(at Time) int {
	id := len(m.entries)
	m.entries = append(m.entries, queueEntry{at: at, live: true, pos: len(m.live)})
	m.live = append(m.live, id)
	return id
}

// retire marks a live entry fired or canceled.
func (m *queueModel) retire(id int) {
	en := &m.entries[id]
	en.live, en.ignore = false, true
	last := m.live[len(m.live)-1]
	m.live[en.pos] = last
	m.entries[last].pos = en.pos
	m.live = m.live[:len(m.live)-1]
}

// exact schedules an uncancelable callback through sched and records it.
func (m *queueModel) exact(at Time, sched func(func())) {
	id := m.add(at)
	sched(func() { m.fire(id) })
	m.entries[id].seq = m.e.seq
}

// timer arms a cancelable callback through sched and records it.
func (m *queueModel) timer(at Time, sched func(func()) Timer) {
	id := m.add(at)
	en := &m.entries[id]
	en.t = sched(func() { m.fire(id) })
	en.seq = m.e.seq
	m.timers = append(m.timers, id)
}

func (m *queueModel) cancel(id int) {
	en := &m.entries[id]
	if got := en.t.Cancel(); got != en.live {
		m.t.Fatalf("Cancel of entry %d = %v, model says live = %v", id, got, en.live)
	}
	if en.live {
		m.retire(id)
	}
}

// fire checks a dispatch against the model, then runs the next operations.
func (m *queueModel) fire(id int) {
	t, e := m.t, m.e
	en := &m.entries[id]
	now := e.Now()
	if !en.live {
		t.Fatalf("entry %d fired but is not live (fired or canceled before)", id)
	}
	if now != en.at {
		t.Fatalf("entry %d due %v fired at %v", id, en.at, now)
	}
	for _, j := range m.live {
		o := &m.entries[j]
		if j == id {
			continue
		}
		if o.at < now || (o.at == now && o.seq < en.seq) {
			t.Fatalf("entry %d (at %v seq %d) dispatched before entry %d (at %v seq %d)",
				id, en.at, en.seq, j, o.at, o.seq)
		}
	}
	m.retire(id)
	m.check()
	m.step()
}

// check compares the engine's counts with the model and probes stale and
// live timers.
func (m *queueModel) check() {
	t, e := m.t, m.e
	want := len(m.live)
	if got := e.PendingEvents(); got != want {
		t.Fatalf("PendingEvents = %d, model has %d live events", got, want)
	}
	if limit := 2*e.Stats().PeakPending + 65; len(e.events) > limit {
		t.Fatalf("heap array holds %d entries, above 2·PeakPending+65 = %d (dead %d)", len(e.events), limit, e.dead)
	}
	probed := 0
	for k := len(m.timers) - 1; k >= 0 && probed < 16; k-- {
		en := &m.entries[m.timers[k]]
		if en.ignore {
			probed++
			if en.t.Pending() || en.t.Cancel() {
				t.Fatalf("stale timer %d reports pending or cancels", m.timers[k])
			}
		} else if !en.t.Pending() {
			t.Fatalf("live timer %d reports not pending", m.timers[k])
		}
	}
}
