package cloud

import (
	"fmt"
	"math"
	"time"

	"github.com/stellar-repro/stellar/internal/des"
)

// This file is the callback execution form of the invocation pipeline: a
// warm external request runs as a straight-line chain of engine event
// callbacks with zero goroutine context switches, while Invoke's
// goroutine-proc form remains the general path (chains, faults, tracing,
// retries). The two forms are event-for-event equivalent: every p.Sleep(d)
// in Invoke maps to exactly one CallAfter(d, step) here, every Signal
// fire/timeout to exactly one Call, and all side effects (RNG draws,
// metrics, instance pool transitions) happen at the same virtual instant
// and the same scheduling sequence position. That parity is what makes the
// two forms byte-identical under any interleaving — equal-timestamp events
// tie-break on sequence number, which decides the order concurrent
// requests draw from the shared ingress/instance RNG streams — and it is
// pinned by TestEngineFormsEquivalent and FuzzCallbackSchedule.

// warmCall is one in-flight callback-form invocation. Records are
// free-listed on the Cloud and every step closure is bound once at record
// creation, so the steady-state fast path allocates nothing.
type warmCall struct {
	c    *Cloud
	fn   *Function
	req  *Request
	done func(*Response, error)

	start     des.Time // arrival instant: latency epoch (Invoke's entry)
	busyStart des.Time // serve-window start, for billing
	inst      *Instance
	cold      bool
	congQ     int // congestion queue depth captured before the sleep

	// Buffered-wait state, mirroring WaitTimeout + Signal semantics: the
	// embedded pendingReq sits in Function.buffer; granted/timedOut
	// replicate Signal.remove's fired-vs-timed-out race resolution.
	pr       pendingReq
	timer    des.Timer
	granted  bool
	timedOut bool

	bd   Breakdown
	resp Response

	next *warmCall // Cloud free list

	// Step closures, bound once in newWarmCall so scheduling them is
	// allocation-free.
	beginFn        func()
	frontendFn     func()
	admitFn        func()
	slowProbFn     func()
	slowDoneFn     func()
	acquireFn      func()
	queueResumeFn  func()
	handoffDoneFn  func()
	overheadDoneFn func()
	execDoneFn     func()
	respDoneFn     func()
	finishFn       func()
	timeoutFn      func()
}

func newWarmCall(c *Cloud) *warmCall {
	wc := &warmCall{c: c}
	wc.pr.wc = wc
	wc.beginFn = wc.begin
	wc.frontendFn = wc.frontend
	wc.admitFn = wc.admit
	wc.slowProbFn = wc.slowProb
	wc.slowDoneFn = wc.slowDone
	wc.acquireFn = wc.acquire
	wc.queueResumeFn = wc.queueResume
	wc.handoffDoneFn = wc.handoffDone
	wc.overheadDoneFn = wc.overheadDone
	wc.execDoneFn = wc.execDone
	wc.respDoneFn = wc.respDone
	wc.finishFn = wc.finish
	wc.timeoutFn = wc.timeout
	return wc
}

func (c *Cloud) getWarmCall() *warmCall {
	wc := c.wcFree
	if wc == nil {
		return newWarmCall(c)
	}
	c.wcFree = wc.next
	return wc
}

func (c *Cloud) putWarmCall(wc *warmCall) {
	wc.fn, wc.req, wc.done, wc.inst = nil, nil, nil, nil
	wc.cold, wc.granted, wc.timedOut = false, false, false
	wc.congQ = 0
	wc.pr = pendingReq{wc: wc}
	wc.timer = des.Timer{}
	wc.bd = Breakdown{}
	wc.resp = Response{}
	wc.next = c.wcFree
	c.wcFree = wc
}

// callbackEligible reports whether a request can take the callback fast
// path. Anything that needs the general machinery — chains, storage
// payloads, fault injection, crash retries, span tracing — falls back to
// the proc form.
func (c *Cloud) callbackEligible(req *Request, fn *Function) bool {
	return !req.Internal &&
		fn.spec.Chain == nil &&
		req.Cont == nil && req.Span == nil &&
		req.storageKey == "" && req.wireDelay == 0 &&
		c.tr == nil && c.inj == nil &&
		c.cfg.Faults.CrashProb == 0
}

// InvokeAsync executes one invocation and delivers the outcome to done
// exactly once, at the virtual instant the response reaches the client.
// The request begins at the current instant (like Spawn, execution starts
// when the engine reaches it). Under EngineAuto, eligible
// warm-path requests run as a callback chain with zero goroutine switches
// and zero steady-state allocations; everything else — and every request
// under EngineProc — runs the classic Invoke proc, so both forms produce
// identical schedules (see TestEngineFormsEquivalent).
//
// The *Response passed to done is only valid for the duration of the call:
// the fast path recycles it, and its Timestamps map is nil (intra-function
// timestamps exist only for chains, which always take the proc form).
func (c *Cloud) InvokeAsync(req *Request, done func(*Response, error)) {
	fn, ok := c.functions[req.Fn]
	if !ok || c.mode == EngineProc || !c.callbackEligible(req, fn) {
		c.eng.Spawn("cloud/invoke", func(p *des.Proc) {
			done(c.Invoke(p, req))
		})
		return
	}
	wc := c.getWarmCall()
	wc.fn, wc.req, wc.done = fn, req, done
	c.eng.Call(wc.beginFn)
}

// begin runs at the arrival instant: admission bookkeeping and the
// client→provider propagation leg (Invoke's entry through its first
// Sleep).
func (wc *warmCall) begin() {
	c, fn := wc.c, wc.fn
	c.metrics.Invocations++
	fn.tm.Invocations++
	fn.inflight++
	wc.start = c.eng.Now()
	fn.meter.Request()
	c.meter.Request()
	if fn.maxConcurrent > 0 && fn.inflight > fn.maxConcurrent {
		c.metrics.ConcurrencyRejects++
		wc.fail(fmt.Errorf("cloud %s: %s over concurrency limit %d: %w",
			c.cfg.Name, fn.spec.Name, fn.maxConcurrent, ErrConcurrencyLimit))
		return
	}
	if fn.as != nil {
		fn.autoscaleAdmit()
	}
	wc.bd.Propagation = c.cfg.PropagationRTT
	c.eng.CallAfter(c.cfg.PropagationRTT/2, wc.frontendFn)
}

// frontend samples front-end admission and sleeps through it.
func (wc *warmCall) frontend() {
	c := wc.c
	wc.bd.Frontend = c.cfg.FrontendDelay.Sample(c.rngIngress)
	c.eng.CallAfter(wc.bd.Frontend, wc.admitFn)
}

// admit applies ingestion congestion under concurrent load, exactly as
// Invoke does: the queue depth is captured before the congestion sleep and
// reused for the slow-path probability after it.
func (wc *warmCall) admit() {
	c := wc.c
	if q := wc.fn.inflight - 1 - c.cfg.CongestionThreshold; q > 0 {
		exp := c.cfg.CongestionExponent
		if exp == 0 {
			exp = 1
		}
		extra := time.Duration(float64(c.cfg.CongestionUnit) * math.Pow(float64(q), exp))
		if c.cfg.CongestionCap > 0 && extra > c.cfg.CongestionCap {
			extra = c.cfg.CongestionCap
		}
		wc.bd.Congestion = extra
		wc.congQ = q
		c.eng.CallAfter(extra, wc.slowProbFn)
		return
	}
	wc.route()
}

// slowProb draws the slow-path lottery after the congestion delay.
func (wc *warmCall) slowProb() {
	c := wc.c
	prob := float64(wc.congQ) * c.cfg.SlowPathProbPerInflight
	if prob > c.cfg.SlowPathMaxProb {
		prob = c.cfg.SlowPathMaxProb
	}
	if prob > 0 && c.rngIngress.Float64() < prob {
		wc.bd.SlowPath = c.cfg.SlowPathDelay.Sample(c.rngIngress)
		c.eng.CallAfter(wc.bd.SlowPath, wc.slowDoneFn)
		return
	}
	wc.route()
}

func (wc *warmCall) slowDone() {
	wc.c.metrics.SlowPaths++
	wc.route()
}

// route samples load-balancer routing and moves on to acquisition.
func (wc *warmCall) route() {
	c := wc.c
	wc.bd.Routing = c.cfg.RoutingDelay.Sample(c.rngIngress)
	c.eng.CallAfter(wc.bd.Routing, wc.acquireFn)
}

// acquire claims an idle instance or buffers the request, arming the
// gateway queue timeout exactly where Invoke's WaitTimeout would.
func (wc *warmCall) acquire() {
	c, fn := wc.c, wc.fn
	if inst := fn.claimIdle(); inst != nil {
		wc.serveOn(inst)
		return
	}
	wc.pr.inst, wc.pr.handoff = nil, false
	wc.pr.enqueued = c.eng.Now()
	fn.buffer = append(fn.buffer, &wc.pr)
	fn.maybeScale()
	if c.cfg.QueueTimeout > 0 {
		wc.timer = c.eng.After(c.cfg.QueueTimeout, wc.timeoutFn)
	}
}

// grantNotify is Signal.Fire's counterpart, called by Function.grant when
// this buffered request is handed an instance. A grant landing after the
// timeout already fired schedules nothing — the timed-out resume finds
// pr.inst and returns the instance, the PR 4 grant-race contract.
func (wc *warmCall) grantNotify() {
	if wc.timedOut {
		return
	}
	wc.granted = true
	wc.c.eng.Call(wc.queueResumeFn)
}

// timeout is the queue deadline firing; mirrors WaitTimeout's timer
// closure, where a grant at this same instant that was dispatched first
// wins and the timer backs off.
func (wc *warmCall) timeout() {
	if wc.granted {
		return
	}
	wc.timedOut = true
	wc.c.eng.Call(wc.queueResumeFn)
}

// queueResume runs when the buffered wait ends, by grant or by timeout.
func (wc *warmCall) queueResume() {
	c, fn := wc.c, wc.fn
	if wc.timedOut {
		fn.dropBuffered(&wc.pr)
		if wc.pr.inst != nil {
			fn.release(wc.pr.inst)
		}
		c.metrics.QueueTimeouts++
		wc.fail(fmt.Errorf("cloud %s: %s buffered for %v: %w",
			c.cfg.Name, fn.spec.Name, c.cfg.QueueTimeout, ErrQueueTimeout))
		return
	}
	if c.cfg.QueueTimeout > 0 {
		wc.timer.Cancel()
		wc.timer = des.Timer{}
	}
	inst := wc.pr.inst
	wc.bd.QueueWait = c.eng.Now() - wc.pr.enqueued
	if wc.pr.handoff {
		wc.inst = inst
		wc.bd.QueueHandoff = c.cfg.QueueHandoffDelay.Sample(c.rngInstance)
		c.eng.CallAfter(wc.bd.QueueHandoff, wc.handoffDoneFn)
		return
	}
	wc.serveOn(inst)
}

func (wc *warmCall) handoffDone() { wc.serveOn(wc.inst) }

// serveOn is serve's fast form: per-invocation overhead, then execution.
// A freshly spawned instance granted to this request still counts as a
// cold serve — the spawn pipeline itself ran as a proc; only the serving
// is callback-form.
func (wc *warmCall) serveOn(inst *Instance) {
	c := wc.c
	wc.inst = inst
	wc.cold = inst.served == 0
	inst.served++
	if wc.cold {
		c.metrics.ColdServed++
		wc.fn.tm.ColdServed++
		wc.bd.ColdStart = inst.coldBreakdown
	} else {
		c.metrics.WarmServed++
		wc.fn.tm.WarmServed++
	}
	wc.busyStart = c.eng.Now()
	wc.bd.Overhead = c.cfg.WarmOverhead.Sample(c.rngInstance)
	c.eng.CallAfter(wc.bd.Overhead, wc.overheadDoneFn)
}

// overheadDone starts the busy-spin execution; an instant handler falls
// straight through with no event, as Invoke's exec==0 path sleeps nothing.
func (wc *warmCall) overheadDone() {
	c, fn := wc.c, wc.fn
	exec := wc.req.ExecTime
	if exec == 0 {
		exec = fn.spec.ExecTime
	}
	if exec > 0 {
		exec = time.Duration(float64(exec) * c.cfg.throttleFactor(fn.spec.MemoryMB))
		wc.bd.Exec = exec
		c.eng.CallAfter(exec, wc.execDoneFn)
		return
	}
	wc.execDone()
}

// execDone closes the serve window: billing, instance release (before the
// response path, as Invoke releases), and the response-path delay.
func (wc *warmCall) execDone() {
	c, fn := wc.c, wc.fn
	gbs := (c.eng.Now() - wc.busyStart).Seconds() * c.cfg.memoryGB(fn.spec.MemoryMB)
	wc.resp.BilledGBSeconds = gbs
	c.metrics.BilledGBSeconds += gbs
	// Capture the instance id before release: instance records are pooled,
	// and a short keep-alive can expire and recycle this one while the
	// response path is still in flight.
	wc.resp.InstanceID = wc.inst.id
	fn.release(wc.inst)
	wc.bd.ResponsePath = c.cfg.ResponseDelay.Sample(c.rngIngress)
	c.eng.CallAfter(wc.bd.ResponsePath, wc.respDoneFn)
}

// respDone is the provider→client propagation leg.
func (wc *warmCall) respDone() {
	wc.c.eng.CallAfter(wc.c.cfg.PropagationRTT/2, wc.finishFn)
}

// finish delivers the response at the instant it reaches the client and
// recycles the record.
func (wc *warmCall) finish() {
	c, fn := wc.c, wc.fn
	resp := &wc.resp
	resp.Fn = fn.spec.Name
	resp.Cold = wc.cold
	resp.QueueWait = wc.bd.QueueWait
	resp.Attempts = 1
	resp.Breakdown = wc.bd
	fn.inflight--
	if c.latRec != nil {
		c.latRec.Add(c.eng.Now() - wc.start)
	}
	if fn.rec != nil {
		fn.rec.Add(c.eng.Now() - wc.start)
	}
	wc.done(resp, nil)
	c.putWarmCall(wc)
}

// fail delivers an error outcome (gateway queue timeout is the only one
// the fast path can produce) and recycles the record. As in Invoke's error
// return, no egress legs run and no latency is recorded.
func (wc *warmCall) fail(err error) {
	wc.fn.tm.Errors++
	wc.fn.inflight--
	wc.done(nil, err)
	wc.c.putWarmCall(wc)
}
