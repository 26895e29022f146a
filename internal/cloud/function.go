package cloud

import (
	"github.com/stellar-repro/stellar/internal/des"
	"github.com/stellar-repro/stellar/internal/dist"
	"github.com/stellar-repro/stellar/internal/econ"
)

type instanceState int

const (
	stateBusy instanceState = iota
	stateIdle
	// stateSuspended is the third lifecycle state between warm and evicted
	// (Config.Autoscaler with Suspend): the instance's memory leaves its
	// worker but its initialized state is retained, so resuming costs
	// ResumeDelay instead of a cold boot and bills at a reduced rate.
	stateSuspended
	stateGone
)

// Instance is one function instance (an HTTP server sandbox on a worker).
type Instance struct {
	id            int
	fn            *Function
	worker        *Worker
	state         instanceState
	served        uint64
	createdAt     des.Time
	coldBreakdown ColdBreakdown
	// stateSince is when the instance entered its current state; the usage
	// meters integrate (now - stateSince) per state at every transition.
	stateSince des.Time
	// Keep-alive expiry is lazy: idleUntil is the instant the current (or
	// last) idle period ends, and keepAlive is the one pending timer, armed
	// for keepAliveAt <= idleUntil. Reuse only moves idleUntil; the timer
	// re-arms itself when it fires early (see keepAliveDue).
	idleUntil   des.Time
	keepAlive   des.Timer
	keepAliveAt des.Time
	// keepAliveFn is the keep-alive timer's closure, bound once at record
	// creation so parking an instance idle never allocates. It reads
	// inst.fn at fire time, so the record can recycle across functions.
	keepAliveFn func()
	// freeNext links recycled records on the Cloud's instance free list.
	freeNext *Instance
}

// getInstance draws a recycled instance record from the free list (or
// allocates one) and initializes it for a fresh spawn. Identity stays
// unique across recycling: every spawn gets a new id from instanceSeq.
func (c *Cloud) getInstance(fn *Function, w *Worker, createdAt des.Time, cb ColdBreakdown) *Instance {
	inst := c.instFree
	if inst == nil {
		inst = &Instance{}
		inst.keepAliveFn = func() { inst.fn.keepAliveDue(inst) }
	} else {
		c.instFree = inst.freeNext
		inst.freeNext = nil
	}
	c.instanceSeq++
	inst.id = c.instanceSeq
	inst.fn = fn
	inst.worker = w
	inst.state = stateBusy
	inst.served = 0
	inst.keepAlive = des.Timer{}
	inst.createdAt = createdAt
	inst.coldBreakdown = cb
	inst.stateSince = createdAt
	return inst
}

// putInstance returns a reaped instance record to the free list. Callers
// must have canceled (or consumed) its keep-alive timer and removed it
// from all function state; busy records with in-flight references are
// never pooled.
func (c *Cloud) putInstance(inst *Instance) {
	inst.fn = nil
	inst.worker = nil
	inst.state = stateGone
	inst.keepAlive = des.Timer{}
	inst.stateSince = 0
	inst.freeNext = c.instFree
	c.instFree = inst
}

// ID returns the instance's unique identifier.
func (i *Instance) ID() int { return i.id }

// Served returns the number of invocations this instance has processed.
func (i *Instance) Served() uint64 { return i.served }

// pendingReq is a buffered invocation waiting for an instance grant. The
// waiting party is either a parked proc (sig) or a callback-form record
// (wc); exactly one is set.
type pendingReq struct {
	sig      *des.Signal
	wc       *warmCall
	inst     *Instance
	handoff  bool // granted a recycled instance (queue dispatch)
	enqueued des.Time
}

// notify wakes the buffered request's owner after a grant: the callback
// record when the request came in through the fast path, the waiting proc
// otherwise. Both schedule exactly one resume event at the present
// instant, so the two forms stay schedule-identical.
func (pr *pendingReq) notify() {
	if pr.wc != nil {
		pr.wc.grantNotify()
		return
	}
	pr.sig.Fire()
}

// Function is the load balancer's and scheduler's view of one deployed
// function: its live instances, idle pool, buffered requests, and scale-out
// state.
type Function struct {
	c          *Cloud
	spec       FunctionSpec
	imageKey   string
	imageBytes int64
	initDelay  dist.Dist
	chunkReads int

	live   map[int]*Instance
	idle   []*Instance
	buffer []*pendingReq
	// susp holds suspended instances (not live: no worker slot, no cluster
	// capacity). Resume pops LIFO, so the most recently parked state — the
	// most likely to still be cache-warm on a real provider — returns first.
	susp []*Instance

	pending  int // spawns and resumes in flight
	inflight int // requests admitted and not yet responded

	// snapshotReady marks that a MicroVM snapshot of this function exists
	// (captured on the first full cold boot when snapshotting is enabled).
	snapshotReady bool

	// Token bucket for the rate-limited (Azure-style) scale controller.
	tokens        float64
	lastRefill    des.Time
	evalScheduled bool

	// Per-tenant overrides resolved at Deploy: the keep-alive policy this
	// function's instances park with (the provider-wide one unless the
	// spec overrides it) and the live+pending instance cap (0 = uncapped).
	keepAlive    KeepAlivePolicy
	maxInstances int
	// maxConcurrent, when positive, caps admitted-and-unfinished external
	// requests; excess admissions are rejected with ErrConcurrencyLimit.
	maxConcurrent int

	// as is the per-function autoscaler (nil unless Config.Autoscaler is
	// set); tickFn is its evaluation closure, bound once at record creation
	// like inst.expireFn, so arming the control loop never allocates.
	as        *econ.Autoscaler
	tickFn    func()
	tickTimer des.Timer
	tickArmed bool
	// meter accumulates this tenant's usage (always on; pure arithmetic).
	meter econ.Meter

	// rec, when set, receives this function's successful external
	// invocation latencies (SetFunctionRecorder).
	rec LatencyRecorder
	// tm aggregates this tenant's counters.
	tm TenantMetrics

	// chain is the continuation built from spec.Chain (nil without one).
	chain Downstream

	// freeNext links recycled records on the Cloud's function free list.
	freeNext *Function
}

// atCapacity reports whether the tenant's instance cap is exhausted.
func (fn *Function) atCapacity() bool {
	return fn.maxInstances > 0 && len(fn.live)+fn.pending >= fn.maxInstances
}

// claimIdle pops the most-recently-used idle instance. Its keep-alive
// timer stays armed: a timer that fires on a busy instance is ignored.
// MRU reuse keeps hot instances hot, matching provider behavior of routing
// to recently-active instances.
func (fn *Function) claimIdle() *Instance {
	for len(fn.idle) > 0 {
		inst := fn.idle[len(fn.idle)-1]
		fn.idle = fn.idle[:len(fn.idle)-1]
		if inst.state != stateIdle {
			continue // raced with expiry bookkeeping; skip
		}
		fn.noteUsage(inst)
		inst.state = stateBusy
		return inst
	}
	return nil
}

// release returns an instance after serving a request. Under queueing
// policies the oldest buffered request (if any) is granted the instance
// directly; under the no-queue policy every buffered request is bound to a
// dedicated pending instance (the paper observes AWS and Google burst
// latencies never drop into the warm range, §VI-D2), so freed instances
// always park idle.
func (fn *Function) release(inst *Instance) {
	if inst.state == stateGone {
		return
	}
	if len(fn.buffer) > 0 {
		// Under the autoscaler, freed instances always absorb the backlog:
		// capacity is the controller's decision, not the queue's, so a
		// buffered request never waits for a dedicated instance.
		if fn.as != nil || fn.c.cfg.Policy.Kind != PolicyNoQueue {
			fn.grant(inst, true)
			return
		}
		// Saturation exception: when the cluster is at capacity and
		// spawns are blocked waiting for slots, even a no-queue provider
		// routes buffered requests to freed warm instances — the
		// dedicated-instance policy is physically unavailable. The same
		// holds when the tenant's own concurrency cap is exhausted: no
		// dedicated instance can ever come up, so freed instances must
		// absorb the backlog.
		if (fn.c.capRes != nil && fn.c.capRes.QueueLen() > 0) || fn.atCapacity() {
			fn.grant(inst, true)
			return
		}
	}
	fn.parkIdle(inst)
}

// grant hands an instance to the oldest buffered request. handoff marks
// grants of recycled instances to queued requests, which pay the provider's
// queue-dispatch overhead.
func (fn *Function) grant(inst *Instance, handoff bool) {
	pr := fn.buffer[0]
	copy(fn.buffer, fn.buffer[1:])
	fn.buffer[len(fn.buffer)-1] = nil
	fn.buffer = fn.buffer[:len(fn.buffer)-1]
	inst.state = stateBusy
	pr.inst = inst
	pr.handoff = handoff
	pr.notify()
}

// dropBuffered removes a timed-out request from the buffer. A no-op when
// the request was already granted an instance.
func (fn *Function) dropBuffered(pr *pendingReq) {
	for i, cand := range fn.buffer {
		if cand == pr {
			fn.buffer = append(fn.buffer[:i], fn.buffer[i+1:]...)
			return
		}
	}
}

// parkIdle moves an instance to the idle pool and sets its keep-alive
// deadline under the function's (possibly per-tenant) policy. A timer is
// armed only when none is pending, or when the pending one is later than
// the new deadline (a Dist policy can draw a shorter life).
func (fn *Function) parkIdle(inst *Instance) {
	fn.noteUsage(inst)
	inst.state = stateIdle
	fn.idle = append(fn.idle, inst)
	// Under the autoscaler the control loop owns reaping (suspend/evict on
	// scale-down ticks); idle instances hold no keep-alive timers at all.
	if fn.as != nil {
		return
	}
	life := fn.keepAlive.Fixed
	if life <= 0 {
		life = fn.keepAlive.Dist.Sample(fn.c.rngSched)
	}
	inst.idleUntil = fn.c.eng.Now() + life
	if inst.keepAlive.Pending() {
		if inst.keepAliveAt <= inst.idleUntil {
			return
		}
		inst.keepAlive.Cancel()
	}
	fn.armKeepAlive(inst)
}

// armKeepAlive arms inst's keep-alive timer for its idle deadline.
func (fn *Function) armKeepAlive(inst *Instance) {
	inst.keepAliveAt = inst.idleUntil
	inst.keepAlive = fn.c.eng.After(inst.idleUntil-fn.c.eng.Now(), inst.keepAliveFn)
}

// keepAliveDue runs when inst's keep-alive timer fires. A busy instance
// ignores it (its next parkIdle arms a fresh timer); an idle one that was
// reused since the timer was armed re-arms at its stored deadline, so the
// expiry lands exactly where a timer re-armed on every park would.
// Suspended, crashed and removed instances never get here: those paths
// cancel the timer before the record can be recycled.
func (fn *Function) keepAliveDue(inst *Instance) {
	if inst.state != stateIdle {
		return
	}
	if fn.c.eng.Now() < inst.idleUntil {
		fn.armKeepAlive(inst)
		return
	}
	fn.expire(inst)
}

// destroy removes a crashed instance immediately.
func (fn *Function) destroy(inst *Instance) {
	if inst.state == stateGone {
		return
	}
	wasIdle := inst.state == stateIdle
	inst.keepAlive.Cancel()
	inst.keepAlive = des.Timer{}
	fn.noteUsage(inst)
	inst.state = stateGone
	delete(fn.live, inst.id)
	inst.worker.Instances--
	fn.c.releaseClusterSlot()
	if wasIdle {
		// Busy records still have in-flight references (the serving proc /
		// callback chain); only quiesced ones are safe to recycle.
		fn.c.putInstance(inst)
	}
}

// expire reaps an idle instance whose keep-alive elapsed (or that the
// autoscaler evicts).
func (fn *Function) expire(inst *Instance) {
	if inst.state != stateIdle {
		return
	}
	fn.noteUsage(inst)
	inst.state = stateGone
	for i, cand := range fn.idle {
		if cand == inst {
			fn.idle = append(fn.idle[:i], fn.idle[i+1:]...)
			break
		}
	}
	delete(fn.live, inst.id)
	inst.worker.Instances--
	fn.c.releaseClusterSlot()
	fn.c.metrics.Expirations++
	fn.c.putInstance(inst)
}

// maybeScale applies the provider's scheduling policy to the current buffer,
// spawning however many instances the policy allows (§VI-D3).
func (fn *Function) maybeScale() {
	// Autoscaler mode routes all capacity decisions through the
	// concurrency controller; the buffer-driven policies below are the
	// legacy (fixed keep-alive) control plane.
	if fn.as != nil {
		fn.autoscaleAdmit()
		return
	}
	buffered := len(fn.buffer)
	if buffered == 0 {
		return
	}
	var need int
	policy := fn.c.cfg.Policy
	switch policy.Kind {
	case PolicyNoQueue:
		// One dedicated instance per buffered request.
		need = buffered - fn.pending
	case PolicyBoundedQueue:
		// Each pending instance will absorb up to MaxQueuePerInstance
		// buffered requests when it comes up.
		need = ceilDiv(buffered, policy.MaxQueuePerInstance) - fn.pending
	case PolicyRateLimited:
		fn.refillTokens()
		need = ceilDiv(buffered, policy.MaxQueuePerInstance) - fn.pending
		if allowed := int(fn.tokens); need > allowed {
			need = allowed
		}
		if need > 0 {
			fn.tokens -= float64(need)
		}
		// The scale controller re-evaluates periodically while demand
		// remains, mimicking Azure's gradual scale-out.
		fn.scheduleEval()
	}
	// Per-tenant concurrency cap: never scale past the tenant's limit.
	// Requests beyond it stay buffered until a freed instance absorbs them.
	if fn.maxInstances > 0 {
		if room := fn.maxInstances - len(fn.live) - fn.pending; need > room {
			need = room
		}
	}
	for i := 0; i < need; i++ {
		fn.spawnOne()
	}
}

// refillTokens lazily accrues scale-out tokens.
func (fn *Function) refillTokens() {
	now := fn.c.eng.Now()
	elapsed := now - fn.lastRefill
	if elapsed > 0 {
		fn.tokens += elapsed.Seconds() * fn.c.cfg.Policy.TokensPerSec
		if fn.tokens > fn.c.cfg.Policy.MaxTokens {
			fn.tokens = fn.c.cfg.Policy.MaxTokens
		}
	}
	fn.lastRefill = now
}

// scheduleEval arms one pending re-evaluation of the scale controller.
func (fn *Function) scheduleEval() {
	if fn.evalScheduled {
		return
	}
	interval := fn.c.cfg.Policy.EvalInterval
	if interval <= 0 {
		return
	}
	fn.evalScheduled = true
	fn.c.eng.CallAfter(interval, func() {
		fn.evalScheduled = false
		fn.maybeScale()
	})
}

// spawnOne launches the cold-start pipeline for a new instance: cluster
// scheduler placement (3)-(4), sandbox boot, image fetch from storage (5),
// and runtime initialization (8).
func (fn *Function) spawnOne() {
	c := fn.c
	fn.pending++
	c.metrics.Spawns++
	c.eng.Spawn("spawn/"+fn.spec.Name, func(p *des.Proc) {
		var cb ColdBreakdown
		var w *Worker
		// Bounded cluster capacity: wait for a free instance slot before
		// placement (the saturation regime of a full cluster).
		if c.capRes != nil {
			capStart := p.Now()
			p.Acquire(c.capRes)
			cb.SchedulerQueue += p.Now() - capStart
		}
		for {
			// Cluster scheduler: placement decisions contend on a shared
			// resource, so mass cold starts queue (§VI-D2).
			acquireStart := p.Now()
			p.Acquire(c.schedRes)
			cb.SchedulerQueue += p.Now() - acquireStart
			placement := c.cfg.PlacementDelay.Sample(c.rngSched)
			cb.Placement += placement
			p.Sleep(placement)
			c.schedRes.Release()

			// Reserve the chosen worker's slot immediately so concurrent
			// placements see each other's choices (least-loaded correctness).
			w = c.pickWorker()
			w.Instances++

			// Snapshot fast path: restore a previously captured MicroVM
			// image instead of booting and initializing from scratch.
			if c.cfg.Snapshots.Enabled && fn.snapshotReady {
				restore := c.cfg.Snapshots.RestoreDelay.Sample(c.rngSched)
				cb.SnapshotRestore += restore
				p.Sleep(restore)
				c.metrics.SnapshotRestores++
				break
			}

			// Instance manager on the chosen worker: boot the sandbox.
			boot := c.cfg.SandboxBoot.Sample(c.rngSched)
			cb.SandboxBoot += boot
			p.Sleep(boot)

			// Retrieve the function image from the image store
			// (cost-optimized, possibly cached under load).
			_, fetchLat, err := c.imageStore.Get(p, fn.imageKey)
			if err != nil {
				// Image was seeded at deploy time; missing means a
				// programming error in the simulator itself.
				panic(err)
			}
			cb.ImageFetch += fetchLat

			// Interpreted runtimes in splintered container images perform
			// on-demand chunk loads against the image store (§VI-B3).
			for i := 0; i < fn.chunkReads; i++ {
				d := c.cfg.ChunkReadLatency.Sample(c.rngSched)
				cb.ChunkReads += d
				p.Sleep(d)
			}

			// Language runtime initialization.
			initD := fn.initDelay.Sample(c.rngSched)
			cb.RuntimeInit += initD
			p.Sleep(initD)

			// Injected spawn failure: release the reservation and repeat
			// the pipeline from placement.
			if f := c.cfg.Faults.SpawnFailureProb; f > 0 && c.rngSched.Float64() < f {
				c.metrics.SpawnFailures++
				w.Instances--
				continue
			}
			// Same failure injected by the faults layer, from its own
			// stream so enabling it never shifts scheduler randomness.
			if c.inj != nil && c.inj.SpawnFail() {
				c.metrics.SpawnFailures++
				w.Instances--
				continue
			}

			// First full boot with snapshotting enabled: capture a
			// snapshot for future restores.
			if c.cfg.Snapshots.Enabled && !fn.snapshotReady {
				capture := c.cfg.Snapshots.CaptureOverhead.Sample(c.rngSched)
				cb.SnapshotCapture += capture
				p.Sleep(capture)
				fn.snapshotReady = true
				c.metrics.SnapshotCaptures++
			}
			break
		}

		fn.pending--
		inst := c.getInstance(fn, w, p.Now(), cb)
		fn.live[inst.id] = inst
		w.Spawned++
		// A fresh instance serves the oldest buffered request; if every
		// buffered request was already granted (or none remain), it parks.
		if len(fn.buffer) > 0 {
			fn.grant(inst, false)
		} else {
			fn.parkIdle(inst)
		}
	})
}

// ceilDiv returns ceil(a/b) for positive b.
func ceilDiv(a, b int) int {
	if b <= 0 {
		return a
	}
	return (a + b - 1) / b
}
