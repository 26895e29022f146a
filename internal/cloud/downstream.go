package cloud

import (
	"fmt"
	"maps"
	"time"

	"github.com/stellar-repro/stellar/internal/des"
	"github.com/stellar-repro/stellar/internal/trace"
)

// This file is the continuation seam: the one place where a serving
// instance invokes other functions. After the handler body, serve runs the
// request's Cont (the workflow executor's DAG edges) or else the function's
// static chain, which Deploy turns into a chainCont. Both compose through
// the same primitives — producer send timestamp, per-edge transfer
// preparation, scatter-gather of downstream invocations — so a chain-shaped
// workflow is byte-identical to a static chain
// (TestWorkflowChainMatchesHandRolledChain).

// Downstream is a continuation executed inside the serving instance after
// the handler body (Request.Cont, or a FunctionSpec.Chain). Its virtual
// time is part of the instance's busy window: billing, release, and the
// parent's Downstream breakdown all see it.
type Downstream interface {
	// Run performs the downstream work through env. Returning an error fails
	// the invocation; continuations that manage their own failure semantics
	// (the workflow executor classifies branch failures at join barriers)
	// return nil.
	Run(p *des.Proc, env *DownstreamEnv) error
}

// chainCont runs a FunctionSpec.Chain: one send-side transfer of the
// payload, then Fanout copies of the downstream request gathered before the
// producer returns (a plain sequential hop when Fanout is 0 or 1).
type chainCont struct{ ChainSpec }

func (ch *chainCont) Run(_ *des.Proc, env *DownstreamEnv) error {
	payload := ch.PayloadBytes
	if n := env.req.ChainPayloadBytes; n > 0 {
		payload = n
	}
	env.MarkSend()
	next, err := env.Prepare(DownstreamCall{Fn: ch.Next, Transfer: ch.Transfer, PayloadBytes: payload})
	if err == nil {
		reqs := []*Request{next}
		for range ch.Fanout - 1 {
			r := *next
			reqs = append(reqs, &r)
		}
		err = env.Gather(reqs, nil)
	}
	if err != nil {
		return fmt.Errorf("chain %s->%s: %w", env.Fn(), ch.Next, err)
	}
	return nil
}

// DownstreamCall describes one downstream invocation to prepare: the target
// function and the edge's data-passing mode.
type DownstreamCall struct {
	// Fn is the downstream function.
	Fn string
	// Transfer selects the data-passing mode (TransferInline or
	// TransferStorage).
	Transfer TransferKind
	// PayloadBytes is the payload handed to the downstream function.
	PayloadBytes int64
	// ExecTime optionally overrides the downstream function's busy-spin.
	ExecTime time.Duration
	// Cont is the downstream invocation's own continuation (nil for leaves).
	Cont Downstream
	// Span optionally records the downstream invocation's pipeline spans.
	Span *trace.Req
}

// GatherFunc observes one gathered downstream completion in virtual-time
// completion order, at the instant the branch's response reached its
// invoker. It runs in simulation context and must not block.
type GatherFunc func(i int, resp *Response, err error, at des.Time)

// DownstreamEnv gives a Downstream continuation controlled access to the
// serving invocation: the producer-side response under construction, the
// attempt breakdown, and the cloud's transfer machinery. It is valid only
// for the duration of Downstream.Run.
type DownstreamEnv struct {
	c    *Cloud
	p    *des.Proc
	req  *Request
	fn   *Function
	bd   *Breakdown
	tr   *trace.Req
	resp *Response
}

// Now returns the current virtual time.
func (e *DownstreamEnv) Now() des.Time { return e.p.Now() }

// Fn returns the serving function's name.
func (e *DownstreamEnv) Fn() string { return e.fn.spec.Name }

// MarkSend records the producer timestamp ("<fn>.send") before the payload
// is saved or sent (§IV).
func (e *DownstreamEnv) MarkSend() {
	e.resp.Timestamps[e.fn.spec.Name+".send"] = e.p.Now()
}

// Prepare builds one downstream request, performing the edge's send-side
// transfer work in place: inline payloads draw their wire time (and respect
// the provider's inline size limit), storage payloads are written to the
// payload store on the producer's clock. A negative payload is rejected.
func (e *DownstreamEnv) Prepare(call DownstreamCall) (*Request, error) {
	if call.PayloadBytes < 0 {
		return nil, fmt.Errorf("cloud %s: negative payload %dB for %s", e.c.cfg.Name, call.PayloadBytes, call.Fn)
	}
	next := &Request{
		Fn:                call.Fn,
		Internal:          true,
		ExecTime:          call.ExecTime,
		ChainPayloadBytes: call.PayloadBytes,
		Cont:              call.Cont,
		Span:              call.Span,
		depth:             e.req.depth + 1,
	}
	switch call.Transfer {
	case TransferInline:
		if e.c.cfg.InlineLimitBytes > 0 && call.PayloadBytes > e.c.cfg.InlineLimitBytes {
			return nil, fmt.Errorf("cloud %s: inline payload %dB exceeds provider limit %dB",
				e.c.cfg.Name, call.PayloadBytes, e.c.cfg.InlineLimitBytes)
		}
		next.wireDelay = e.c.inlineWireTime(call.PayloadBytes)
	case TransferStorage:
		next.storageKey = e.storePayload(call.PayloadBytes)
	default:
		return nil, fmt.Errorf("cloud %s: unsupported transfer %q", e.c.cfg.Name, call.Transfer)
	}
	return next, nil
}

// Store writes a payload to the payload store on the producer's clock
// without building a downstream request: the send-side cost of a storage
// edge whose consumer is fired by a different branch (the consumer's fetch
// rides its firing edge's key).
func (e *DownstreamEnv) Store(payloadBytes int64) {
	e.storePayload(payloadBytes)
}

// storePayload writes one payload under a fresh sequence key, captured
// before the Put sleeps: other procs advance the cloud-wide sequence during
// the upload, so re-reading it afterwards would misname the object.
func (e *DownstreamEnv) storePayload(payloadBytes int64) string {
	e.c.payloadSeq++
	key := fmt.Sprintf("payload/%s/%d", e.fn.spec.Name, e.c.payloadSeq)
	d := e.c.payloadStore.Put(e.p, key, payloadBytes)
	e.bd.PayloadStore += d
	e.tr.Mark(trace.StagePayloadStore, d, e.p.Now())
	return key
}

// Gather invokes the prepared downstream requests and blocks until all have
// completed, accounting the elapsed window as the producer's Downstream
// breakdown — a single request runs inline on the producer's proc (a
// sequential chain hop), several scatter into parallel procs joined before
// the producer returns. each, when non-nil, observes every branch at its
// completion instant. Downstream response timestamps merge into the
// producer's response in completion order, so where branches share a key
// (a fan-out chain's "<next>.recv") the last branch to finish supplies it.
// The first branch error (in completion order) is returned, but the
// producer may ignore it.
func (e *DownstreamEnv) Gather(reqs []*Request, each GatherFunc) error {
	if len(reqs) == 0 {
		return nil
	}
	start := e.p.Now()
	var firstErr error
	complete := func(i int, resp *Response, err error, at des.Time) {
		if resp != nil {
			maps.Copy(e.resp.Timestamps, resp.Timestamps)
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
		if each != nil {
			each(i, resp, err, at)
		}
	}
	if len(reqs) == 1 {
		resp, err := e.c.Invoke(e.p, reqs[0])
		complete(0, resp, err, e.p.Now())
	} else {
		done := des.NewSignal(e.c.eng)
		remaining := len(reqs)
		for i, r := range reqs {
			e.c.eng.Spawn("fanout/"+r.Fn, func(sp *des.Proc) {
				resp, err := e.c.Invoke(sp, r)
				complete(i, resp, err, sp.Now())
				remaining--
				if remaining == 0 {
					done.Fire()
				}
			})
		}
		e.p.Wait(done)
	}
	window := e.p.Now() - start
	e.bd.Downstream += window
	e.tr.Mark(trace.StageDownstream, window, e.p.Now())
	return firstErr
}

// Go launches one prepared downstream request asynchronously: the producer
// does not wait, the branch runs on its own proc, and done observes the
// outcome at the branch's completion instant. The spawned invocation is not
// part of the producer's busy window (fire-and-forget edges bill to the
// downstream instance only).
func (e *DownstreamEnv) Go(req *Request, done func(resp *Response, err error, at des.Time)) {
	c := e.c
	c.eng.Spawn("async/"+req.Fn, func(sp *des.Proc) {
		resp, err := c.Invoke(sp, req)
		if done != nil {
			done(resp, err, sp.Now())
		}
	})
}
