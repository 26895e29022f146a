// Package trace records sampling per-request span traces of the simulated
// invocation pipeline (Fig. 1): every infrastructure stage a request
// traverses becomes a span with virtual DES timestamps, so a single slow
// request can be replayed stage by stage instead of being summarized away
// into aggregate percentiles.
//
// The tracer is built for the simulator's hot path:
//
//   - When no tracer is installed, the cloud pays one nil check per request
//     and zero allocations (gated by the warm-invoke alloc-parity test).
//   - When tracing is on, a trace is retained if the request was
//     head-sampled by rate at its arrival, or is one of the K slowest so
//     far (the tail is never lost to sampling). The proc form records
//     into a pooled span buffer as the request runs (Begin) and commits
//     or recycles it at End. The cloud's callback form draws only the
//     head-sampling decision at arrival (Sampled); at completion it asks
//     Keep whether the trace would be retained and builds the spans from
//     the request's breakdown only then, so a discarded request costs one
//     draw and one comparison. Committed traces live in a fixed-capacity
//     ring that overwrites oldest-first, so memory is bounded regardless
//     of series length and the steady state allocates nothing.
//   - Each simulation shard owns its tracer and runs single-threaded inside
//     its DES engine, so the ring needs no locks; shards merge
//     deterministically in index order.
//
// Traces export as Chrome trace_event JSON (load in chrome://tracing or
// Perfetto) and feed the per-stage tail-attribution report that answers the
// paper's core question: which stage inflates p99.
package trace

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"github.com/stellar-repro/stellar/internal/des"
)

// Stage identifies one pipeline stage of a span. Stages at and beyond
// StageColdSchedulerQueue are cold-start detail: they itemize the spawn
// pipeline that runs concurrently with the request's queue wait, so they
// nest inside the queue-wait span and are excluded from the tiling
// invariant (top-level spans sum exactly to the observed latency).
type Stage uint8

// Top-level pipeline stages, in traversal order (§II-B steps 1-9).
const (
	StagePropagation Stage = iota
	StageFrontend
	StageWire
	StageCongestion
	StageSlowPath
	StageRouting
	StageQueueWait
	StageQueueHandoff
	StageOverhead
	StagePayloadFetch
	StageExec
	StagePayloadStore
	StageDownstream
	StageRetryBackoff
	StageResponse
	// Cold-start detail stages (nested inside queue-wait).
	StageColdSchedulerQueue
	StageColdPlacement
	StageColdSandboxBoot
	StageColdImageFetch
	StageColdChunkReads
	StageColdRuntimeInit
	StageColdSnapshotRestore
	StageColdSnapshotCapture

	numStages
)

var stageNames = [numStages]string{
	StagePropagation:         "propagation",
	StageFrontend:            "frontend",
	StageWire:                "wire",
	StageCongestion:          "congestion",
	StageSlowPath:            "slow-path",
	StageRouting:             "routing",
	StageQueueWait:           "queue-wait",
	StageQueueHandoff:        "queue-handoff",
	StageOverhead:            "overhead",
	StagePayloadFetch:        "payload-fetch",
	StageExec:                "exec",
	StagePayloadStore:        "payload-store",
	StageDownstream:          "downstream",
	StageRetryBackoff:        "retry-backoff",
	StageResponse:            "response",
	StageColdSchedulerQueue:  "cold/scheduler-queue",
	StageColdPlacement:       "cold/placement",
	StageColdSandboxBoot:     "cold/sandbox-boot",
	StageColdImageFetch:      "cold/image-fetch",
	StageColdChunkReads:      "cold/chunk-reads",
	StageColdRuntimeInit:     "cold/runtime-init",
	StageColdSnapshotRestore: "cold/snapshot-restore",
	StageColdSnapshotCapture: "cold/snapshot-capture",
}

// String returns the stage's stable wire name.
func (s Stage) String() string {
	if s >= numStages {
		return fmt.Sprintf("stage(%d)", uint8(s))
	}
	return stageNames[s]
}

// Detail reports whether the stage is cold-start detail (nested inside the
// queue-wait span, excluded from the top-level tiling invariant).
func (s Stage) Detail() bool { return s >= StageColdSchedulerQueue && s < numStages }

// stageByName inverts String for record validation.
var stageByName = func() map[string]Stage {
	m := make(map[string]Stage, numStages)
	for s := Stage(0); s < numStages; s++ {
		m[stageNames[s]] = s
	}
	return m
}()

// Span is one recorded stage interval in virtual time.
type Span struct {
	// Stage identifies the pipeline stage.
	Stage Stage
	// Attempt is the service attempt that produced the span (1-based), or 0
	// for spans outside the retry loop (ingress and egress stages).
	Attempt uint8
	// Start is the span's virtual start time.
	Start des.Time
	// Dur is the span's length.
	Dur time.Duration
}

// Phase is one cold-start pipeline phase, used to lay detail spans
// back-to-back against the instance's creation instant.
type Phase struct {
	Stage Stage
	Dur   time.Duration
}

// Req is the per-request recording handle the cloud threads through the
// invocation pipeline. A nil Req is valid and inert: every method no-ops,
// which is what makes the disabled path allocation-free.
type Req struct {
	t        *Tracer
	id       uint64
	fn       string
	start    des.Time
	end      des.Time
	cold     bool
	sampled  bool
	attempt  uint8 // current attempt (0 outside the retry loop)
	attempts uint8 // highest attempt seen
	spans    []Span

	// Workflow identity (see SetNode): wf groups the node invocations of one
	// workflow instance into a trace tree; node names this invocation's DAG
	// node and parent the node whose delivery fired it.
	wf     uint64
	node   string
	parent string
}

// Mark records a span of duration d that ends at now. Zero and negative
// durations are dropped: they carry no time and would only bloat the ring.
func (r *Req) Mark(st Stage, d time.Duration, now des.Time) {
	if r == nil || d <= 0 {
		return
	}
	r.spans = append(r.spans, Span{Stage: st, Attempt: r.attempt, Start: now - d, Dur: d})
}

// Attempt tags subsequent spans with the given service attempt (1-based);
// zero returns to "outside the retry loop". The highest attempt seen becomes
// the trace's attempt count, which attribution uses to fold failed attempts
// into the retried bucket.
func (r *Req) Attempt(n int) {
	if r == nil {
		return
	}
	if n > 255 {
		n = 255
	}
	r.attempt = uint8(n)
	if r.attempt > r.attempts {
		r.attempts = r.attempt
	}
}

// SetCold marks whether the serving instance was cold. Called once per
// attempt; the final attempt wins.
func (r *Req) SetCold(cold bool) {
	if r == nil {
		return
	}
	r.cold = cold
}

// SetNode tags the trace with workflow identity: wf is the workflow
// instance, node the DAG node this invocation serves, and parent the node
// whose delivery fired it ("" for the workflow root). The serialized record
// carries all three, so draining one shard's tracer yields per-workflow
// trace trees linked by (workflow, parent).
func (r *Req) SetNode(wf uint64, node, parent string) {
	if r == nil {
		return
	}
	r.wf, r.node, r.parent = wf, node, parent
}

// Finish ends the request's own trace on the tracer that began it, exactly
// as Tracer.End would. It lets a component that threads a Req through
// machinery it does not own (the workflow executor handing spans to the
// cloud via Request.Span) finish the span at its completion instant without
// also holding the tracer. A nil Req no-ops.
func (r *Req) Finish(now des.Time, err error) {
	if r == nil {
		return
	}
	r.t.End(r, now, err)
}

// ColdSpans records the cold-start pipeline as detail spans laid out
// back-to-back so the last phase ends at end (the instance's creation
// instant). Phases with zero duration are skipped.
func (r *Req) ColdSpans(end des.Time, phases ...Phase) {
	if r == nil {
		return
	}
	var total time.Duration
	for _, ph := range phases {
		total += ph.Dur
	}
	at := end - total
	for _, ph := range phases {
		if ph.Dur > 0 {
			r.spans = append(r.spans, Span{Stage: ph.Stage, Attempt: r.attempt, Start: at, Dur: ph.Dur})
		}
		at += ph.Dur
	}
}

// Config parameterizes a Tracer.
type Config struct {
	// SampleRate head-samples requests at this rate in [0, 1].
	SampleRate float64
	// SlowestK additionally retains the K slowest requests seen so far,
	// regardless of head sampling, so the tail is never lost. Zero disables
	// the slow path (only head-sampled requests are kept).
	SlowestK int
	// RingCapacity bounds retained head-sampled traces; the ring overwrites
	// oldest-first. Zero selects DefaultRingCapacity.
	RingCapacity int
}

// DefaultRingCapacity is the head-sample ring size when unset.
const DefaultRingCapacity = 8192

// Validate rejects configurations that would make tracing meaningless.
func (c Config) Validate() error {
	if math.IsNaN(c.SampleRate) || math.IsInf(c.SampleRate, 0) {
		return fmt.Errorf("trace: sample rate must be finite")
	}
	if c.SampleRate < 0 || c.SampleRate > 1 {
		return fmt.Errorf("trace: sample rate %v out of [0,1]", c.SampleRate)
	}
	if c.SlowestK < 0 {
		return fmt.Errorf("trace: negative slowest-K %d", c.SlowestK)
	}
	if c.RingCapacity < 0 {
		return fmt.Errorf("trace: negative ring capacity %d", c.RingCapacity)
	}
	return nil
}

// Tracer samples and retains per-request traces for one simulation shard.
// It is not goroutine-safe: all requests of one cloud run inside its
// single-threaded DES engine, which is what lets the ring stay lock-free.
type Tracer struct {
	cfg Config
	rng *rand.Rand

	// ring holds committed head-sampled traces, oldest-first from head.
	ring []*Req
	head int
	n    int

	// slow is a min-heap of the K slowest traces, ordered by (duration, id).
	slow []*Req

	// pool recycles request records and their span buffers.
	pool []*Req

	// dropped counts head-sampled traces overwritten by ring wraparound —
	// surfaced so bounded retention is never a silent cap.
	dropped uint64
}

// New builds a tracer. rng drives head sampling and must be a dedicated
// stream (e.g. "<cloud>/trace") so enabling tracing never shifts the
// simulation's other random draws. cfg must be valid.
func New(cfg Config, rng *rand.Rand) *Tracer {
	if cfg.RingCapacity == 0 {
		cfg.RingCapacity = DefaultRingCapacity
	}
	return &Tracer{
		cfg:  cfg,
		rng:  rng,
		ring: make([]*Req, cfg.RingCapacity),
	}
}

// Begin starts recording one request, returning nil when the request is
// neither head-sampled nor a slow-K candidate (with SlowestK > 0 every
// request records tentatively, since slowness is only known at completion).
// A nil Tracer returns nil.
func (t *Tracer) Begin(id uint64, fn string, now des.Time) *Req {
	if t == nil {
		return nil
	}
	sampled := t.Sampled()
	if !sampled && t.cfg.SlowestK == 0 {
		return nil
	}
	return t.get(id, fn, now, sampled)
}

// BeginAlways starts recording one request unconditionally, bypassing the
// head-sampling draw: the caller has already made the sampling decision at a
// coarser grain (the workflow executor samples whole workflow instances so a
// sampled workflow's trace tree is never missing nodes). Retention is still
// bounded by the ring at End. A nil Tracer returns nil.
func (t *Tracer) BeginAlways(id uint64, fn string, now des.Time) *Req {
	if t == nil {
		return nil
	}
	return t.get(id, fn, now, true)
}

// Sampled draws one request's head-sampling decision: the draw Begin makes
// at the request's arrival. A caller that records spans only after the
// request completes (see Keep) draws here at arrival instead, so the
// sampling stream is consumed in the same order as under Begin.
func (t *Tracer) Sampled() bool {
	return t.cfg.SampleRate > 0 && t.rng.Float64() < t.cfg.SampleRate
}

// Keep is Begin for a request that has already completed at end without
// error: it returns a recording handle only when End would retain the
// trace — the request was head-sampled (sampled, from Sampled at its
// arrival) or qualifies for the slowest-K set — and nil otherwise, so a
// discarded request costs one comparison and no span buffer. The caller
// records the spans and then calls End(r, end, nil).
func (t *Tracer) Keep(id uint64, fn string, start, end des.Time, sampled bool) *Req {
	if !sampled && (t.cfg.SlowestK == 0 || !t.qualifiesSlow(end-start, id)) {
		return nil
	}
	return t.get(id, fn, start, sampled)
}

// get takes a request record from the pool, or makes one.
func (t *Tracer) get(id uint64, fn string, start des.Time, sampled bool) *Req {
	var r *Req
	if n := len(t.pool); n > 0 {
		r = t.pool[n-1]
		t.pool[n-1] = nil
		t.pool = t.pool[:n-1]
	} else {
		r = &Req{}
	}
	*r = Req{t: t, id: id, fn: fn, start: start, sampled: sampled, spans: r.spans[:0]}
	return r
}

// End finishes a request's trace. Errored requests are discarded (the trace
// layer, like the latency recorder, observes successful client-visible
// requests; failures are counted by the fault layer's outcome metrics).
func (t *Tracer) End(r *Req, now des.Time, err error) {
	if r == nil {
		return
	}
	if err != nil {
		t.recycle(r)
		return
	}
	r.end = now
	if t.cfg.SlowestK > 0 && t.qualifiesSlow(r.end-r.start, r.id) {
		if evicted := t.insertSlow(r); evicted != nil {
			// A head-sampled trace pushed out of the slow set falls back to
			// the ring it would otherwise have entered.
			if evicted.sampled {
				t.pushRing(evicted)
			} else {
				t.recycle(evicted)
			}
		}
		return
	}
	if r.sampled {
		t.pushRing(r)
		return
	}
	t.recycle(r)
}

// Dropped reports how many head-sampled traces the ring overwrote.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped
}

// Retained reports how many traces are currently committed.
func (t *Tracer) Retained() int {
	if t == nil {
		return 0
	}
	return t.n + len(t.slow)
}

func (t *Tracer) recycle(r *Req) {
	*r = Req{spans: r.spans[:0]}
	t.pool = append(t.pool, r)
}

func (t *Tracer) pushRing(r *Req) {
	if t.n == len(t.ring) {
		old := t.ring[t.head]
		t.ring[t.head] = r
		t.head = (t.head + 1) % len(t.ring)
		t.dropped++
		t.recycle(old)
		return
	}
	t.ring[(t.head+t.n)%len(t.ring)] = r
	t.n++
}

// slowLess orders the slow heap by (duration, id): the root is the least
// slow retained trace, the first to be evicted. The id tie-break keeps
// eviction deterministic under equal durations.
func slowLess(a, b *Req) bool {
	return slowKeyLess(a.end-a.start, a.id, b.end-b.start, b.id)
}

func slowKeyLess(da time.Duration, ida uint64, db time.Duration, idb uint64) bool {
	if da != db {
		return da < db
	}
	return ida < idb
}

// qualifiesSlow reports whether a request of duration d and the given id
// enters the slow set: the set has room, or the request outranks its root.
func (t *Tracer) qualifiesSlow(d time.Duration, id uint64) bool {
	if len(t.slow) < t.cfg.SlowestK {
		return true
	}
	root := t.slow[0]
	return slowKeyLess(root.end-root.start, root.id, d, id)
}

// insertSlow adds r to the slow set, returning the evicted trace when the
// set was full (nil otherwise).
func (t *Tracer) insertSlow(r *Req) *Req {
	var evicted *Req
	if len(t.slow) == t.cfg.SlowestK {
		evicted = t.slow[0]
		t.slow[0] = r
		t.siftDownSlow(0)
	} else {
		t.slow = append(t.slow, r)
		t.siftUpSlow(len(t.slow) - 1)
	}
	return evicted
}

func (t *Tracer) siftUpSlow(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if slowLess(t.slow[parent], t.slow[i]) {
			return
		}
		t.slow[parent], t.slow[i] = t.slow[i], t.slow[parent]
		i = parent
	}
}

func (t *Tracer) siftDownSlow(i int) {
	n := len(t.slow)
	for {
		min := i
		if l := 2*i + 1; l < n && slowLess(t.slow[l], t.slow[min]) {
			min = l
		}
		if r := 2*i + 2; r < n && slowLess(t.slow[r], t.slow[min]) {
			min = r
		}
		if min == i {
			return
		}
		t.slow[i], t.slow[min] = t.slow[min], t.slow[i]
		i = min
	}
}
