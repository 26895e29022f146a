package cloud

import (
	"github.com/stellar-repro/stellar/internal/des"
	"github.com/stellar-repro/stellar/internal/econ"
)

// This file wires the econ control plane into the instance lifecycle: the
// target-concurrency autoscaler (Config.Autoscaler) replaces the buffer-
// driven scale policies with Knative-style concurrency tracking, suspend/
// resume adds a third lifecycle state between warm and evicted, and the
// usage meters integrate busy/idle/suspended GB-time in virtual time.
//
// Metering is always on: it is pure arithmetic at state transitions the
// simulator already performs — no RNG draws, no events — so a cloud without
// an autoscaler stays byte-identical to all prior behavior. The autoscaler
// and suspend/resume activate only when Config.Autoscaler is set.

// noteUsage folds the instance's elapsed time in its current state into the
// tenant's and the fleet's usage meters, and restarts the window. Must run
// immediately before every state transition (and at usage-read time). The
// same amount lands in both meters, so per-tenant usage sums to the fleet
// total exactly (billing conservation).
func (fn *Function) noteUsage(inst *Instance) {
	now := fn.c.eng.Now()
	elapsed := now - inst.stateSince
	if elapsed <= 0 {
		inst.stateSince = now
		return
	}
	inst.stateSince = now
	gbms := float64(elapsed) / 1e6 * fn.c.cfg.memoryGB(fn.spec.MemoryMB)
	switch inst.state {
	case stateBusy:
		fn.meter.Busy(gbms)
		fn.c.meter.Busy(gbms)
	case stateIdle:
		fn.meter.Idle(gbms)
		fn.c.meter.Idle(gbms)
	case stateSuspended:
		fn.meter.Suspended(gbms)
		fn.c.meter.Suspended(gbms)
	}
}

// foldUsage brings every held instance's usage up to the present instant.
func (fn *Function) foldUsage() {
	for _, inst := range fn.live {
		fn.noteUsage(inst)
	}
	for _, inst := range fn.susp {
		fn.noteUsage(inst)
	}
}

// Usage reports the fleet-wide resource usage accumulated so far, brought
// up to the present instant.
func (c *Cloud) Usage() econ.Usage {
	for _, fn := range c.functions {
		fn.foldUsage()
	}
	return c.meter.Usage()
}

// FunctionUsage reports one function's (one tenant's) usage, brought up to
// the present instant.
func (c *Cloud) FunctionUsage(name string) (econ.Usage, bool) {
	fn, ok := c.functions[name]
	if !ok {
		return econ.Usage{}, false
	}
	fn.foldUsage()
	return fn.meter.Usage(), true
}

// Bill prices the fleet's usage under the provider's configured billing
// plan. The second return is false when Config.Billing is unset.
func (c *Cloud) Bill() (econ.Cost, bool) {
	if c.cfg.Billing == nil {
		return econ.Cost{}, false
	}
	return c.cfg.Billing.Price(c.Usage()), true
}

// SuspendedInstances reports a function's suspended instance count.
func (c *Cloud) SuspendedInstances(name string) int {
	fn, ok := c.functions[name]
	if !ok {
		return 0
	}
	return len(fn.susp)
}

// autoscaleAdmit folds one admitted request into the autoscaler's demand
// window and scales up toward the decision. Scale-up applies immediately on
// demand; scale-down is reserved for the periodic tick.
func (fn *Function) autoscaleAdmit() {
	now := fn.c.eng.Now()
	d := fn.as.Observe(int64(now), fn.inflight, len(fn.live)+fn.pending)
	if d.Desired > len(fn.live)+fn.pending {
		fn.scaleUpTo(d.Desired)
	}
	fn.armTick()
}

// armTick schedules the next autoscaler evaluation unless one is already
// pending. The tick self-disarms when the function quiesces (autoscaleTick
// re-arms only while there is anything left to manage), so a simulation
// running to exhaustion terminates.
func (fn *Function) armTick() {
	if fn.tickArmed {
		return
	}
	fn.tickArmed = true
	fn.tickTimer = fn.c.eng.After(fn.as.Config().TickInterval, fn.tickFn)
}

// autoscaleTick is the periodic control-plane evaluation: it samples
// current concurrency into the demand window, scales up if a burst outran
// the demand path, and — uniquely to the tick — scales down once the
// scale-down window has drained.
func (fn *Function) autoscaleTick() {
	fn.tickArmed = false
	fn.tickTimer = des.Timer{}
	now := fn.c.eng.Now()
	current := len(fn.live) + fn.pending
	d := fn.as.Tick(int64(now), fn.inflight, current)
	switch {
	case d.Desired > current:
		fn.scaleUpTo(d.Desired)
	case d.Desired < current:
		fn.scaleDownTo(d.Desired)
	}
	// Re-arm only while the function has instances or work; a fully
	// quiesced (or fully suspended) function needs no control loop until
	// the next admission arms it again.
	if len(fn.live)+fn.pending+fn.inflight+len(fn.buffer) > 0 {
		fn.armTick()
	}
}

// scaleUpTo grows capacity toward desired, preferring to resume suspended
// instances (cheap) over cold spawns, and never exceeding the tenant's
// instance cap.
func (fn *Function) scaleUpTo(desired int) {
	if fn.maxInstances > 0 && desired > fn.maxInstances {
		desired = fn.maxInstances
	}
	for len(fn.live)+fn.pending < desired {
		if len(fn.susp) > 0 {
			fn.resumeOne()
		} else {
			fn.spawnOne()
		}
	}
}

// scaleDownTo sheds surplus capacity down toward desired by suspending or
// evicting idle instances, oldest first. Busy instances and pending spawns
// are never interrupted; if the surplus is all busy, the next tick retries.
func (fn *Function) scaleDownTo(desired int) {
	for len(fn.live)+fn.pending > desired {
		inst := fn.popOldestIdle()
		if inst == nil {
			return
		}
		if fn.as.Config().Suspend {
			fn.suspend(inst)
		} else {
			fn.expire(inst)
		}
	}
}

// popOldestIdle removes and returns the least-recently-used idle instance
// (the opposite end from claimIdle's MRU reuse), skipping records whose
// state moved on since they were appended.
func (fn *Function) popOldestIdle() *Instance {
	for len(fn.idle) > 0 {
		inst := fn.idle[0]
		copy(fn.idle, fn.idle[1:])
		fn.idle[len(fn.idle)-1] = nil
		fn.idle = fn.idle[:len(fn.idle)-1]
		if inst.state != stateIdle {
			continue
		}
		return inst
	}
	return nil
}

// suspend parks an idle instance in the suspended state: its memory leaves
// the worker (the slot and cluster capacity free up) but its initialized
// state is retained, so a later resume skips the cold-start pipeline. The
// caller has already removed inst from the idle pool.
func (fn *Function) suspend(inst *Instance) {
	c := fn.c
	inst.keepAlive.Cancel()
	inst.keepAlive = des.Timer{}
	fn.noteUsage(inst)
	inst.state = stateSuspended
	delete(fn.live, inst.id)
	inst.worker.Instances--
	inst.worker = nil
	c.releaseClusterSlot()
	c.metrics.Suspends++
	fn.susp = append(fn.susp, inst)
}

// resumeOne brings the most recently suspended instance back: it re-acquires
// cluster capacity and a worker slot, pays ResumeDelay (well below a cold
// boot), and rejoins the live fleet warm — its served count survives, so the
// next invocation is a warm serve.
func (fn *Function) resumeOne() {
	c := fn.c
	inst := fn.susp[len(fn.susp)-1]
	fn.susp[len(fn.susp)-1] = nil
	fn.susp = fn.susp[:len(fn.susp)-1]
	fn.pending++
	c.metrics.Resumes++
	c.eng.Spawn("resume/"+fn.spec.Name, func(p *des.Proc) {
		if c.capRes != nil {
			p.Acquire(c.capRes)
		}
		p.Sleep(c.cfg.ResumeDelay.Sample(c.rngSched))
		w := c.pickWorker()
		w.Instances++
		fn.pending--
		fn.noteUsage(inst) // close the suspended window
		inst.state = stateBusy
		inst.worker = w
		fn.live[inst.id] = inst
		if len(fn.buffer) > 0 {
			fn.grant(inst, false)
		} else {
			fn.parkIdle(inst)
		}
	})
}
