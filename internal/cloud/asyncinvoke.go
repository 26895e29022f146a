package cloud

import (
	"fmt"
	"math"
	"time"

	"github.com/stellar-repro/stellar/internal/des"
	"github.com/stellar-repro/stellar/internal/trace"
)

// This file is the callback execution form of the invocation pipeline: a
// warm external request runs as a straight-line chain of engine event
// callbacks with zero goroutine context switches. Invoke's goroutine-proc
// form serves every request that is not callback-eligible (continuations,
// faults, retries, workflow-owned spans) and is the reference the cloud tests
// compare this form against. The two forms are event-for-event equivalent:
// every p.Sleep(d) in Invoke maps to exactly one CallAfter(d, step) here,
// every Signal fire/timeout to exactly one Call, and all side effects (RNG
// draws, metrics, instance pool transitions, tracer spans) happen at the
// same virtual instant and the same scheduling sequence position.
//
// Both forms fold the hops that draw nothing and touch no shared state:
// overhead plus execution is one event (serveOn → execDone; one p.Sleep in
// serve when no storage payload is fetched), and the response path plus
// the return propagation leg is another (execDone → finish; one p.Sleep in
// Invoke's egress). A warm request thus costs six events: begin, frontend,
// admit, acquire, execDone and finish. The spans and the ".recv" timestamp
// inside a folded hop are computed from its start (busyStart+Overhead,
// now-RTT/2), so each keeps its exact instant. frontend, admit and acquire
// stay separate: they draw from rngIngress or read inflight. That
// parity is what makes the two forms byte-identical under any interleaving
// — equal-timestamp events tie-break on sequence number, which decides the
// order concurrent requests draw from the shared ingress/instance RNG
// streams — and it is pinned by TestInvokeAsyncMatchesInvoke,
// FuzzCallbackSchedule and the proc-generated report goldens in
// internal/experiments. Tracing rides along without touching the steps:
// begin takes the request's id and head-sampling draw at the arrival
// instant, and finish, only when the tracer keeps the request, rebuilds
// the spans Invoke would have marked from the breakdown and the step
// instants (see traceSpans). A trace-sampled request the tracer discards
// thus costs one draw and one comparison, and a traced run measures the
// same code path as an untraced one (TestInvokeAsyncTracedMatchesInvoke).

// warmCall is one in-flight callback-form invocation. Records are
// free-listed on the Cloud and every step closure is bound once at record
// creation, so the steady-state fast path allocates nothing.
type warmCall struct {
	c    *Cloud
	fn   *Function
	req  Request // the caller's request, copied: InvokeAsync retains no pointer
	done func(*Response, error)

	// Tracer state, set in begin when a tracer is installed: the request's
	// trace id and head-sampling draw. createdAt is a cold serving
	// instance's creation instant, captured in serveOn because the
	// instance record may be recycled before finish builds the spans.
	traceID   uint64
	sampled   bool
	createdAt des.Time

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
	beginFn       func()
	frontendFn    func()
	admitFn       func()
	slowProbFn    func()
	slowDoneFn    func()
	acquireFn     func()
	queueResumeFn func()
	handoffDoneFn func()
	execDoneFn    func()
	finishFn      func()
	timeoutFn     func()
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
	wc.execDoneFn = wc.execDone
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
	wc.fn, wc.done, wc.inst = nil, nil, nil
	wc.req = Request{}
	wc.traceID, wc.sampled, wc.createdAt = 0, false, 0
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
// path; it alone picks InvokeAsync's execution form. Anything that needs the
// general machinery — a continuation (the request's Cont or the function's
// chain), storage payloads, fault injection, crash retries, a caller-owned
// span — falls back to the proc form. An installed tracer does not: the
// callback steps record the same spans Invoke does.
func (c *Cloud) callbackEligible(req *Request, fn *Function) bool {
	return !req.Internal &&
		req.Cont == nil && fn.chain == nil && req.Span == nil &&
		req.storageKey == "" && req.wireDelay == 0 &&
		c.inj == nil &&
		c.cfg.Faults.CrashProb == 0
}

// InvokeAsync executes one invocation and delivers the outcome to done
// exactly once, at the virtual instant the response reaches the client.
// The request begins at the current instant (like Spawn, execution starts
// when the engine reaches it). Callback-eligible requests run as a callback
// chain of six events with zero goroutine switches and zero steady-state
// allocations; every other request runs the Invoke proc. Both forms
// produce identical schedules, and Invoke is the reference the cloud tests
// compare the callback form against (see TestInvokeAsyncMatchesInvoke).
//
// req is copied before InvokeAsync returns and is not retained, so the
// caller may reuse it or keep it on its stack.
//
// The *Response passed to done is only valid for the duration of the call:
// the fast path recycles it, and its Timestamps map is nil (intra-function
// timestamps exist only where a continuation runs — a request's Cont or a
// function's chain — and those always take the proc form).
func (c *Cloud) InvokeAsync(req *Request, done func(*Response, error)) {
	fn, ok := c.functions[req.Fn]
	if !ok || !c.callbackEligible(req, fn) {
		r := *req
		c.eng.Spawn("cloud/invoke", func(p *des.Proc) {
			done(c.Invoke(p, &r))
		})
		return
	}
	wc := c.getWarmCall()
	wc.fn, wc.req, wc.done = fn, *req, done
	c.eng.Call(wc.beginFn)
}

// begin runs at the arrival instant: admission bookkeeping, the tracer's
// request id and sampling draw (Begin's, in Invoke), and the
// client→provider propagation leg (Invoke's entry through its first
// Sleep).
func (wc *warmCall) begin() {
	c, fn := wc.c, wc.fn
	wc.start = c.eng.Now()
	c.metrics.Invocations++
	fn.tm.Invocations++
	if c.tr != nil {
		c.reqSeq++
		wc.traceID = c.reqSeq
		wc.sampled = c.tr.Sampled()
	}
	fn.inflight++
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

func (wc *warmCall) handoffDone() {
	wc.serveOn(wc.inst)
}

// serveOn is serve's fast form. Overhead and execution draw nothing and
// touch no shared state between them, so one event covers both, as
// serve's single sleep does. A freshly spawned instance granted to this
// request still counts as a cold serve — the spawn pipeline itself ran as
// a proc; only the serving is callback-form.
func (wc *warmCall) serveOn(inst *Instance) {
	c, fn := wc.c, wc.fn
	wc.inst = inst
	wc.cold = inst.served == 0
	inst.served++
	if wc.cold {
		c.metrics.ColdServed++
		fn.tm.ColdServed++
		wc.bd.ColdStart = inst.coldBreakdown
		wc.createdAt = inst.createdAt
	} else {
		c.metrics.WarmServed++
		fn.tm.WarmServed++
	}
	wc.busyStart = c.eng.Now()
	wc.bd.Overhead = c.cfg.WarmOverhead.Sample(c.rngInstance)
	wc.bd.Exec = c.execTime(&wc.req, fn)
	c.eng.CallAfter(wc.bd.Overhead+wc.bd.Exec, wc.execDoneFn)
}

// execDone closes the serve window: billing, instance release (before the
// response path, as Invoke releases), and the response-path draw. The
// response path and the return propagation leg draw nothing after it, so
// one event covers both.
func (wc *warmCall) execDone() {
	c, fn := wc.c, wc.fn
	now := c.eng.Now()
	wc.resp.BilledGBSeconds = (now - wc.busyStart).Seconds() * c.cfg.memoryGB(fn.spec.MemoryMB)
	// Capture the instance id before release: instance records are pooled,
	// and a short keep-alive can expire and recycle this one while the
	// response path is still in flight.
	wc.resp.InstanceID = wc.inst.id
	fn.release(wc.inst)
	wc.bd.ResponsePath = c.cfg.ResponseDelay.Sample(c.rngIngress)
	c.eng.CallAfter(wc.bd.ResponsePath+c.cfg.PropagationRTT/2, wc.finishFn)
}

// finish delivers the response at the instant it reaches the client,
// closing the trace first as Invoke's deferred End does, and recycles the
// record.
func (wc *warmCall) finish() {
	c, fn := wc.c, wc.fn
	now := c.eng.Now()
	resp := &wc.resp
	resp.Fn = fn.spec.Name
	resp.Cold = wc.cold
	resp.QueueWait = wc.bd.QueueWait
	resp.Attempts = 1
	resp.Breakdown = wc.bd
	fn.inflight--
	if c.tr != nil {
		wc.traceSpans(now)
	}
	if c.latRec != nil {
		c.latRec.Add(now - wc.start)
	}
	if fn.rec != nil {
		fn.rec.Add(now - wc.start)
	}
	wc.done(resp, nil)
	c.putWarmCall(wc)
}

// traceSpans hands the completed request to the tracer and, only when the
// tracer keeps it, records the spans Invoke marks along the way, in
// Invoke's order. Every step began the instant its predecessor's sleep
// ended, and the engine clamps a negative delay to zero, so each span's
// end is the arrival instant plus the clamped breakdown components before
// it; the serve window and the egress legs are anchored at busyStart and
// now, as the stepwise marks were.
func (wc *warmCall) traceSpans(now des.Time) {
	c, bd := wc.c, &wc.bd
	r := c.tr.Keep(wc.traceID, wc.req.Fn, wc.start, now, wc.sampled)
	if r == nil {
		return
	}
	half := c.cfg.PropagationRTT / 2
	at := wc.start
	mark := func(st trace.Stage, d time.Duration) {
		at += max(d, 0)
		r.Mark(st, d, at)
	}
	mark(trace.StagePropagation, half)
	mark(trace.StageFrontend, bd.Frontend)
	mark(trace.StageCongestion, bd.Congestion)
	mark(trace.StageSlowPath, bd.SlowPath)
	mark(trace.StageRouting, bd.Routing)
	r.Attempt(1)
	mark(trace.StageQueueWait, bd.QueueWait)
	mark(trace.StageQueueHandoff, bd.QueueHandoff)
	r.SetCold(wc.cold)
	if wc.cold {
		coldSpans(r, wc.createdAt, bd.ColdStart)
	}
	r.Mark(trace.StageOverhead, bd.Overhead, wc.busyStart+bd.Overhead)
	r.Mark(trace.StageExec, bd.Exec, wc.busyStart+max(bd.Overhead+bd.Exec, 0))
	r.Attempt(0)
	r.Mark(trace.StageResponse, bd.ResponsePath, now-half)
	r.Mark(trace.StagePropagation, half, now)
	c.tr.End(r, now, nil)
}

// fail delivers an error outcome (a concurrency reject or a gateway queue
// timeout, the only ones the fast path can produce) and recycles the
// record. As in Invoke's error return, no egress legs run, no latency is
// recorded, and no trace is retained.
func (wc *warmCall) fail(err error) {
	wc.fn.tm.Errors++
	wc.fn.inflight--
	wc.done(nil, err)
	wc.c.putWarmCall(wc)
}
