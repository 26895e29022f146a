package des

// Signal is a one-shot broadcast event in virtual time. Processes that Wait
// before Fire are resumed at the instant Fire is called; waits after Fire
// return immediately. The zero value is NOT usable; create with NewSignal.
type Signal struct {
	eng     *Engine
	fired   bool
	waiters ring[*Proc]
}

// NewSignal returns an unfired signal bound to the engine.
func NewSignal(e *Engine) *Signal { return &Signal{eng: e} }

// Fired reports whether the signal has fired.
func (s *Signal) Fired() bool { return s.fired }

// Fire wakes all current waiters at the present virtual instant, in the
// order they started waiting. Firing an already fired signal is a no-op.
func (s *Signal) Fire() {
	if s.fired {
		return
	}
	s.fired = true
	for i := 0; i < s.waiters.len(); i++ {
		s.eng.scheduleProc(s.eng.now, s.waiters.at(i))
	}
	s.waiters.clear()
}

// Wait blocks the process until the signal fires.
func (p *Proc) Wait(s *Signal) {
	if s.fired {
		return
	}
	s.waiters.push(p)
	p.park()
}

// remove drops a waiter, reporting whether it was registered. Fire clears
// the waiter list, so a timed-out waiter and a fired signal can never both
// resume the same process.
func (s *Signal) remove(p *Proc) bool {
	return s.waiters.removeFunc(func(cand *Proc) bool { return cand == p })
}

// WaitTimeout blocks until the signal fires or d elapses, reporting true
// when the signal fired. A signal that fires at exactly the deadline wins
// or loses by event order; either way the process resumes exactly once.
// When the signal wins, the timeout timer is canceled; its dead heap entry
// is dropped by compaction, so churning WaitTimeout calls cannot grow the
// heap without bound.
func (p *Proc) WaitTimeout(s *Signal, d Time) bool {
	if s.fired {
		return true
	}
	timedOut := false
	timer := p.eng.After(d, func() {
		if !s.remove(p) {
			return // the signal fired first at this same instant
		}
		timedOut = true
		p.eng.scheduleProc(p.eng.now, p)
	})
	s.waiters.push(p)
	p.park()
	if timedOut {
		return false
	}
	timer.Cancel()
	return true
}

// Resource is a counted resource (semaphore) with a FIFO wait queue, used to
// model contended servers such as a front-end fleet or a cluster scheduler.
type Resource struct {
	eng      *Engine
	capacity int
	inUse    int
	queue    ring[*Proc]

	// Metrics.
	totalAcquires uint64
	maxQueue      int
}

// NewResource returns a resource with the given capacity (>= 1).
func NewResource(e *Engine, capacity int) *Resource {
	if capacity < 1 {
		panic("des: resource capacity must be >= 1")
	}
	return &Resource{eng: e, capacity: capacity}
}

// Acquire obtains one unit of the resource, blocking in FIFO order while the
// resource is exhausted.
func (p *Proc) Acquire(r *Resource) {
	r.totalAcquires++
	if r.inUse < r.capacity {
		r.inUse++
		return
	}
	r.queue.push(p)
	if r.queue.len() > r.maxQueue {
		r.maxQueue = r.queue.len()
	}
	p.park()
	// Ownership was transferred by Release; inUse already accounts for us.
}

// Release returns one unit. If processes are queued, ownership passes
// directly to the oldest waiter, which is resumed at the current instant.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic("des: release of idle resource")
	}
	if r.queue.len() > 0 {
		next := r.queue.popFront()
		r.eng.scheduleProc(r.eng.now, next)
		return // inUse unchanged: unit transferred
	}
	r.inUse--
}

// InUse reports the units currently held.
func (r *Resource) InUse() int { return r.inUse }

// QueueLen reports the number of processes waiting.
func (r *Resource) QueueLen() int { return r.queue.len() }

// MaxQueueLen reports the high-water mark of the wait queue.
func (r *Resource) MaxQueueLen() int { return r.maxQueue }

// TotalAcquires reports the number of Acquire calls so far.
func (r *Resource) TotalAcquires() uint64 { return r.totalAcquires }

// Queue is an unbounded FIFO queue of items with blocking receive, used to
// model request buffers in virtual time. Items and waiters both live in
// reusable ring buffers, so a queue that oscillates between empty and its
// high-water mark allocates nothing in steady state.
type Queue[T any] struct {
	eng     *Engine
	items   ring[T]
	waiters ring[*Proc]
	maxLen  int
}

// NewQueue returns an empty queue bound to the engine.
func NewQueue[T any](e *Engine) *Queue[T] { return &Queue[T]{eng: e} }

// Put appends an item and wakes the oldest waiting receiver, if any.
func (q *Queue[T]) Put(item T) {
	q.items.push(item)
	if q.items.len() > q.maxLen {
		q.maxLen = q.items.len()
	}
	if q.waiters.len() > 0 {
		q.eng.scheduleProc(q.eng.now, q.waiters.popFront())
	}
}

// Get removes and returns the oldest item, blocking while the queue is empty.
func (q *Queue[T]) Get(p *Proc) T {
	for q.items.len() == 0 {
		q.waiters.push(p)
		p.park()
	}
	return q.items.popFront()
}

// TryGet removes and returns the oldest item without blocking.
func (q *Queue[T]) TryGet() (T, bool) {
	if q.items.len() == 0 {
		var zero T
		return zero, false
	}
	return q.items.popFront(), true
}

// Len reports the number of queued items.
func (q *Queue[T]) Len() int { return q.items.len() }

// MaxLen reports the queue's high-water mark.
func (q *Queue[T]) MaxLen() int { return q.maxLen }
