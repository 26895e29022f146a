package cloud

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"github.com/stellar-repro/stellar/internal/blobstore"
	"github.com/stellar-repro/stellar/internal/des"
	"github.com/stellar-repro/stellar/internal/dist"
	"github.com/stellar-repro/stellar/internal/econ"
	"github.com/stellar-repro/stellar/internal/faults"
	"github.com/stellar-repro/stellar/internal/trace"
)

// maxChainDepth bounds function-chain recursion.
const maxChainDepth = 32

// ErrInstanceCrash marks an invocation that died with its instance; the
// front end retries it up to Faults.Retries times before surfacing it.
var ErrInstanceCrash = errors.New("instance crashed")

// ErrQueueTimeout marks a request the gateway abandoned because no instance
// became available within Config.QueueTimeout.
var ErrQueueTimeout = errors.New("gateway queue timeout")

// ErrConcurrencyLimit marks a request rejected at admission because the
// function's FunctionSpec.MaxConcurrent in-flight cap was exhausted (AWS
// reserved-concurrency 429 behavior).
var ErrConcurrencyLimit = errors.New("concurrency limit exceeded")

// Metrics aggregates cloud-wide counters.
type Metrics struct {
	Invocations         uint64
	InternalInvocations uint64
	ColdServed          uint64
	WarmServed          uint64
	Spawns              uint64
	Expirations         uint64
	SlowPaths           uint64
	// Fault-injection counters: crashed invocations, front-end retries,
	// failed spawn attempts.
	Crashes       uint64
	Retries       uint64
	SpawnFailures uint64
	// Snapshot counters (vHive/REAP extension).
	SnapshotCaptures uint64
	SnapshotRestores uint64
	// QueueTimeouts counts requests the gateway abandoned while buffered.
	QueueTimeouts uint64
	// Injector counters (Config.Inject): in-flight request drops,
	// 429-style admission rejections, and storage-fetch timeouts.
	// Injector spawn failures fold into SpawnFailures above.
	Drops         uint64
	Throttles     uint64
	StorageFaults uint64
	// Control-plane counters (Config.Autoscaler): instances parked in and
	// revived from the suspended state, and admissions rejected at a
	// function's MaxConcurrent cap.
	Suspends           uint64
	Resumes            uint64
	ConcurrencyRejects uint64
}

// TenantMetrics aggregates one deployed function's (one tenant's)
// counters — the per-tenant view of the cloud-wide Metrics, feeding the
// keep-alive policy sweep's cold-rate vs. instance-seconds trade-off.
type TenantMetrics struct {
	// Invocations counts external requests admitted for this function.
	Invocations uint64
	// ColdServed and WarmServed count serves by this function's instances
	// (chained internal serves included, as in the cloud-wide Metrics).
	ColdServed uint64
	WarmServed uint64
	// Errors counts failed external invocations (queue timeouts, drops,
	// crash-retry exhaustion).
	Errors uint64
	// InstanceSeconds is the time this function's instances were live
	// (busy or idle, not suspended), derived from its usage meter as busy
	// plus idle GB-ms over memory — the per-tenant memory-cost proxy.
	InstanceSeconds float64
}

// LatencyRecorder receives one client-observed latency per successful
// external invocation, in virtual-time completion order. Both the exact
// stats.Sample and the bounded sketch.Sketch satisfy it, so callers choose
// O(n) fidelity or fixed-memory scale without touching the simulator.
// Implementations need not be goroutine-safe: all invocations of one cloud
// run inside its single-threaded DES engine.
type LatencyRecorder interface {
	Add(latency time.Duration)
}

// Worker is a physical host in the simulated cluster. Placement is
// round-robin; the struct tracks occupancy for metrics and tests.
type Worker struct {
	ID        int
	Instances int
	Spawned   uint64
}

// Cloud is one simulated serverless region for a single provider profile.
// All methods must be called from simulation context unless noted.
type Cloud struct {
	eng *des.Engine
	cfg Config

	rngIngress  *rand.Rand
	rngSched    *rand.Rand
	rngInstance *rand.Rand
	rngWire     *rand.Rand

	imageStore   *blobstore.Store
	payloadStore *blobstore.Store

	functions map[string]*Function
	workers   []*Worker
	nextWID   int

	schedRes *des.Resource
	// capRes bounds total cluster instances (nil = unbounded).
	capRes *des.Resource

	// inj, when non-nil, injects transient failures into the invocation
	// path (Config.Inject). It stays nil unless a failure mode is active,
	// so the disabled case costs two nil checks per request and zero
	// random draws.
	inj *faults.Injector

	instanceSeq int
	payloadSeq  int

	// wcFree is the callback-record free list behind InvokeAsync's
	// zero-alloc fast path (see asyncinvoke.go).
	wcFree *warmCall

	// instFree and fnFree recycle instance and function (tenant) records,
	// so thousands of tenants churning instances — and sweeps deploying
	// and removing tenant populations — reuse memory instead of growing
	// the heap (see function.go).
	instFree *Instance
	fnFree   *Function

	// latRec, when set, receives every successful external invocation's
	// client-observed latency as it completes (the Recorder seam; see
	// ARCHITECTURE.md). nil keeps the hot path untouched.
	latRec LatencyRecorder

	// tr, when set, records sampled per-request span traces of the pipeline
	// (the tracer seam; see ARCHITECTURE.md). nil keeps the hot path at one
	// pointer check per request and zero allocations.
	tr *trace.Tracer
	// reqSeq numbers external requests for trace identity.
	reqSeq uint64

	// meter accumulates fleet-wide usage (busy/idle/suspended GB-ms plus
	// request counts); per-tenant meters live on each Function and receive
	// the identical adds, so the fleet total is exactly their sum.
	meter econ.Meter

	metrics Metrics
}

// New builds a cloud on the engine from a provider profile. The streams
// factory provides deterministic per-component randomness.
func New(eng *des.Engine, cfg Config, streams *dist.Streams) (*Cloud, error) {
	cfg.fillDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Cloud{
		eng:         eng,
		cfg:         cfg,
		rngIngress:  streams.Stream(cfg.Name + "/ingress"),
		rngSched:    streams.Stream(cfg.Name + "/sched"),
		rngInstance: streams.Stream(cfg.Name + "/instance"),
		rngWire:     streams.Stream(cfg.Name + "/wire"),
		functions:   make(map[string]*Function),
		schedRes:    des.NewResource(eng, cfg.SchedulerCapacity),
	}
	if cfg.Inject.Enabled() {
		c.inj = faults.NewInjector(*cfg.Inject, streams.Stream(cfg.Name+"/faults"), cfg.Workers)
	}
	c.imageStore = blobstore.New(eng, cfg.ImageStore, streams.Stream(cfg.Name+"/imagestore"))
	c.payloadStore = blobstore.New(eng, cfg.PayloadStore, streams.Stream(cfg.Name+"/payloadstore"))
	c.workers = make([]*Worker, cfg.Workers)
	for i := range c.workers {
		c.workers[i] = &Worker{ID: i}
	}
	if cfg.WorkerCapacity > 0 {
		c.capRes = des.NewResource(eng, cfg.Workers*cfg.WorkerCapacity)
	}
	return c, nil
}

// Engine returns the engine this cloud runs on.
func (c *Cloud) Engine() *des.Engine { return c.eng }

// Config returns the provider profile (a copy).
func (c *Cloud) Config() Config { return c.cfg }

// Metrics returns a snapshot of cloud counters.
func (c *Cloud) Metrics() Metrics { return c.metrics }

// SetLatencyRecorder installs (or, with nil, removes) the recorder that
// observes successful external invocation latencies. Swapping recorders
// mid-simulation is allowed; each completion records into the recorder
// installed at its completion time.
func (c *Cloud) SetLatencyRecorder(r LatencyRecorder) { c.latRec = r }

// SetTracer installs (or, with nil, removes) the per-request span tracer.
// Like the latency recorder, the tracer observes successful external
// invocations; drain it via trace.Tracer.Drain after the run.
func (c *Cloud) SetTracer(t *trace.Tracer) { c.tr = t }

// SetFunctionRecorder installs (or, with nil, removes) a per-function
// latency recorder alongside any cloud-wide one: every successful external
// invocation of this function records into it at completion. With a
// bounded sketch per tenant, a multi-tenant replay keeps full latency
// distributions for thousands of functions in ~20KB each.
func (c *Cloud) SetFunctionRecorder(name string, r LatencyRecorder) error {
	fn, ok := c.functions[name]
	if !ok {
		return fmt.Errorf("cloud %s: function %q not deployed", c.cfg.Name, name)
	}
	fn.rec = r
	return nil
}

// FunctionMetrics returns a snapshot of one function's tenant counters,
// with instance-seconds brought up to the present instant. It is a pure
// read: the meter's closed windows plus the live instances' open ones,
// summed in integer nanoseconds so the result does not depend on map
// order, and no window is folded.
func (c *Cloud) FunctionMetrics(name string) (TenantMetrics, bool) {
	fn, ok := c.functions[name]
	if !ok {
		return TenantMetrics{}, false
	}
	u := fn.meter.Usage()
	now := c.eng.Now()
	var open time.Duration
	for _, inst := range fn.live {
		open += now - inst.stateSince
	}
	tm := fn.tm
	tm.InstanceSeconds = (u.BusyGBms+u.IdleGBms)/1e3/c.cfg.memoryGB(fn.spec.MemoryMB) + open.Seconds()
	return tm, true
}

// ImageStore exposes the function-image store (for tests and experiments).
func (c *Cloud) ImageStore() *blobstore.Store { return c.imageStore }

// PayloadStore exposes the payload store.
func (c *Cloud) PayloadStore() *blobstore.Store { return c.payloadStore }

// Deploy registers a function and seeds its image in the image store.
// Deployment happens outside the measured window, so it costs no virtual
// time (the paper's deployer runs before the client starts).
func (c *Cloud) Deploy(spec FunctionSpec) error {
	if spec.Name == "" {
		return fmt.Errorf("cloud %s: function needs a name", c.cfg.Name)
	}
	if _, exists := c.functions[spec.Name]; exists {
		return fmt.Errorf("cloud %s: function %q already deployed", c.cfg.Name, spec.Name)
	}
	switch spec.Runtime {
	case RuntimePython, RuntimeGo:
	default:
		return fmt.Errorf("cloud %s: unsupported runtime %q", c.cfg.Name, spec.Runtime)
	}
	switch spec.Method {
	case DeployZIP, DeployContainer:
	default:
		return fmt.Errorf("cloud %s: unsupported deployment method %q", c.cfg.Name, spec.Method)
	}
	if spec.Chain != nil {
		switch spec.Chain.Transfer {
		case TransferInline, TransferStorage:
		default:
			return fmt.Errorf("cloud %s: unsupported transfer %q", c.cfg.Name, spec.Chain.Transfer)
		}
		if spec.Chain.PayloadBytes < 0 || spec.Chain.Fanout < 0 {
			return fmt.Errorf("cloud %s: function %q: negative chain payload or fan-out", c.cfg.Name, spec.Name)
		}
	}
	if spec.KeepAlive != nil && spec.KeepAlive.Fixed <= 0 && spec.KeepAlive.Dist == nil {
		return fmt.Errorf("cloud %s: function %q: keep-alive override unset", c.cfg.Name, spec.Name)
	}
	if spec.MaxInstances < 0 {
		return fmt.Errorf("cloud %s: function %q: negative MaxInstances", c.cfg.Name, spec.Name)
	}
	if spec.MaxConcurrent < 0 {
		return fmt.Errorf("cloud %s: function %q: negative MaxConcurrent", c.cfg.Name, spec.Name)
	}
	if spec.MemoryMB < 0 {
		return fmt.Errorf("cloud %s: function %q: negative MemoryMB", c.cfg.Name, spec.Name)
	}
	if spec.BaseImageBytes < 0 || spec.ExtraImageBytes < 0 {
		return fmt.Errorf("cloud %s: function %q: negative image size", c.cfg.Name, spec.Name)
	}
	base := spec.BaseImageBytes
	if base == 0 {
		base = DefaultBaseImageBytes(spec.Runtime, spec.Method)
	}
	fn := c.getFunction()
	fn.spec = spec
	fn.imageKey = "image/" + spec.Name
	fn.imageBytes = base + spec.ExtraImageBytes
	fn.initDelay = c.cfg.initDelay(spec.Runtime, spec.Method)
	fn.tokens = c.cfg.Policy.InitialTokens
	fn.keepAlive = c.cfg.KeepAlive
	if spec.KeepAlive != nil {
		fn.keepAlive = *spec.KeepAlive
	}
	fn.maxInstances = spec.MaxInstances
	fn.maxConcurrent = spec.MaxConcurrent
	if spec.Chain != nil {
		fn.chain = &chainCont{ChainSpec: *spec.Chain}
	}
	if c.cfg.Autoscaler != nil {
		if fn.as == nil {
			fn.as = econ.NewAutoscaler(*c.cfg.Autoscaler)
		} else {
			fn.as.Reset()
		}
	}
	if n, ok := c.cfg.ContainerChunkReads[spec.Runtime]; ok && spec.Method == DeployContainer {
		fn.chunkReads = n
	}
	c.imageStore.Seed(fn.imageKey, fn.imageBytes)
	c.functions[spec.Name] = fn
	return nil
}

// getFunction draws a recycled tenant record from the free list, or
// allocates a fresh one. Recycled records come back from putFunction
// fully reset.
func (c *Cloud) getFunction() *Function {
	fn := c.fnFree
	if fn == nil {
		fn = &Function{c: c, live: make(map[int]*Instance)}
		fn.tickFn = func() { fn.autoscaleTick() }
		return fn
	}
	c.fnFree = fn.freeNext
	fn.freeNext = nil
	return fn
}

// putFunction resets a quiesced tenant record and returns it to the free
// list. Callers must ensure no spawns, buffered requests, in-flight
// invocations, or scale-controller evaluations still reference it.
func (c *Cloud) putFunction(fn *Function) {
	clear(fn.live)
	for i := range fn.idle {
		fn.idle[i] = nil
	}
	fn.idle = fn.idle[:0]
	for i := range fn.buffer {
		fn.buffer[i] = nil
	}
	fn.buffer = fn.buffer[:0]
	fn.spec = FunctionSpec{}
	fn.imageKey, fn.imageBytes = "", 0
	fn.initDelay = nil
	fn.chunkReads = 0
	fn.snapshotReady = false
	fn.tokens, fn.lastRefill = 0, 0
	fn.keepAlive = KeepAlivePolicy{}
	fn.maxInstances = 0
	fn.maxConcurrent = 0
	fn.chain = nil
	// fn.as and fn.tickFn survive recycling (the autoscaler's ring is
	// sized by the cloud-wide config); Deploy resets the window state.
	fn.tickTimer = des.Timer{}
	fn.tickArmed = false
	fn.meter.Reset()
	for i := range fn.susp {
		fn.susp[i] = nil
	}
	fn.susp = fn.susp[:0]
	fn.rec = nil
	fn.tm = TenantMetrics{}
	fn.freeNext = c.fnFree
	c.fnFree = fn
}

// Remove tears down a function and all of its instances. A fully
// quiesced tenant record (no spawns, buffered requests, in-flight
// invocations, or pending scale evaluations) is recycled for the next
// Deploy, so sweeps that rebuild tenant populations reuse memory.
func (c *Cloud) Remove(name string) error {
	fn, ok := c.functions[name]
	if !ok {
		return fmt.Errorf("cloud %s: function %q not deployed", c.cfg.Name, name)
	}
	busy := false
	for _, inst := range fn.live {
		inst.keepAlive.Cancel()
		wasIdle := inst.state == stateIdle
		fn.noteUsage(inst)
		inst.state = stateGone
		inst.worker.Instances--
		c.releaseClusterSlot()
		if wasIdle {
			c.putInstance(inst)
		} else {
			busy = true
		}
	}
	// Suspended instances hold no worker slot or cluster capacity; fold
	// their final suspended window and reap the records directly.
	for i, inst := range fn.susp {
		fn.noteUsage(inst)
		c.putInstance(inst)
		fn.susp[i] = nil
	}
	fn.susp = fn.susp[:0]
	if fn.tickArmed {
		fn.tickTimer.Cancel()
		fn.tickTimer = des.Timer{}
		fn.tickArmed = false
	}
	delete(c.functions, name)
	if !busy && fn.pending == 0 && fn.inflight == 0 && !fn.evalScheduled && len(fn.buffer) == 0 {
		c.putFunction(fn)
	}
	return nil
}

// HasFunction reports whether a function is deployed.
func (c *Cloud) HasFunction(name string) bool {
	_, ok := c.functions[name]
	return ok
}

// FunctionNames lists deployed functions (unordered).
func (c *Cloud) FunctionNames() []string {
	names := make([]string, 0, len(c.functions))
	for name := range c.functions {
		names = append(names, name)
	}
	return names
}

// LiveInstances reports the live (idle+busy) instance count of a function.
func (c *Cloud) LiveInstances(name string) int {
	fn, ok := c.functions[name]
	if !ok {
		return 0
	}
	return len(fn.live)
}

// IdleInstances reports a function's idle instance count.
func (c *Cloud) IdleInstances(name string) int {
	fn, ok := c.functions[name]
	if !ok {
		return 0
	}
	return len(fn.idle)
}

// Workers returns the simulated hosts.
func (c *Cloud) Workers() []*Worker { return c.workers }

// releaseClusterSlot returns one unit of bounded cluster capacity.
func (c *Cloud) releaseClusterSlot() {
	if c.capRes != nil {
		c.capRes.Release()
	}
}

func (c *Cloud) pickWorker() *Worker {
	if c.cfg.Placement == PlacementLeastLoaded {
		best := c.workers[0]
		for _, w := range c.workers[1:] {
			if w.Instances < best.Instances {
				best = w
			}
		}
		return best
	}
	w := c.workers[c.nextWID%len(c.workers)]
	c.nextWID++
	return w
}

// Invoke executes one function invocation on behalf of the calling process,
// advancing virtual time through every infrastructure component the request
// traverses. It returns when the response reaches the caller.
func (c *Cloud) Invoke(p *des.Proc, req *Request) (_ *Response, err error) {
	fn, ok := c.functions[req.Fn]
	if !ok {
		return nil, fmt.Errorf("cloud %s: function %q not deployed", c.cfg.Name, req.Fn)
	}
	if !req.Internal {
		start := p.Now()
		defer func() {
			if err != nil {
				fn.tm.Errors++
				return
			}
			lat := p.Now() - start
			if c.latRec != nil {
				c.latRec.Add(lat)
			}
			if fn.rec != nil {
				fn.rec.Add(lat)
			}
		}()
	}
	if req.depth > maxChainDepth {
		return nil, fmt.Errorf("cloud %s: chain depth exceeds %d", c.cfg.Name, maxChainDepth)
	}
	if req.Internal {
		c.metrics.InternalInvocations++
	} else {
		c.metrics.Invocations++
		fn.tm.Invocations++
	}
	// Tracer seam: external requests record spans when a tracer is installed
	// and this request is sampled. tr stays nil otherwise; every Mark below
	// no-ops on a nil receiver, keeping the disabled path allocation-free.
	// A caller-owned span (Request.Span: the workflow executor's per-node
	// traces) takes this request over instead and is finished at the instant
	// the response reaches the caller.
	var tr *trace.Req
	if req.Span != nil {
		tr = req.Span
		defer func() { tr.Finish(p.Now(), err) }()
	} else if c.tr != nil && !req.Internal {
		c.reqSeq++
		if tr = c.tr.Begin(c.reqSeq, req.Fn, p.Now()); tr != nil {
			defer func() { c.tr.End(tr, p.Now(), err) }()
		}
	}
	fn.inflight++
	defer func() { fn.inflight-- }()
	if !req.Internal {
		fn.meter.Request()
		c.meter.Request()
		if fn.maxConcurrent > 0 && fn.inflight > fn.maxConcurrent {
			c.metrics.ConcurrencyRejects++
			return nil, fmt.Errorf("cloud %s: %s over concurrency limit %d: %w",
				c.cfg.Name, req.Fn, fn.maxConcurrent, ErrConcurrencyLimit)
		}
	}
	if fn.as != nil {
		fn.autoscaleAdmit()
	}

	var bd Breakdown

	// Ingress: propagation + front-end admission (1)-(2) for external
	// requests; internal calls re-enter at the front-end/load balancer (9).
	if req.Internal {
		bd.Frontend = c.cfg.InternalDelay.Sample(c.rngIngress)
		p.Sleep(bd.Frontend)
		tr.Mark(trace.StageFrontend, bd.Frontend, p.Now())
	} else {
		bd.Propagation = c.cfg.PropagationRTT
		p.Sleep(c.cfg.PropagationRTT / 2)
		tr.Mark(trace.StagePropagation, c.cfg.PropagationRTT/2, p.Now())
		// Injected in-flight drop: the request vanishes before admission
		// and no response ever travels back — the caller only learns via
		// its own timeout (see faults.Policy).
		if c.inj != nil && c.inj.Drop() {
			c.metrics.Drops++
			return nil, fmt.Errorf("cloud %s: %s: %w", c.cfg.Name, req.Fn, faults.ErrDropped)
		}
		bd.Frontend = c.cfg.FrontendDelay.Sample(c.rngIngress)
		p.Sleep(bd.Frontend)
		tr.Mark(trace.StageFrontend, bd.Frontend, p.Now())
		// Injected throttling: the front end rejects requests beyond the
		// fleet-wide admission window with a 429, which does travel back.
		if c.inj != nil && !c.inj.Admit(c.eng.Now()) {
			c.metrics.Throttles++
			p.Sleep(c.cfg.PropagationRTT / 2)
			return nil, fmt.Errorf("cloud %s: %s: %w", c.cfg.Name, req.Fn, faults.ErrThrottled)
		}
	}
	if req.wireDelay > 0 {
		bd.Wire = req.wireDelay
		p.Sleep(req.wireDelay)
		tr.Mark(trace.StageWire, req.wireDelay, p.Now())
	}

	// Ingestion congestion under concurrent load to the same function.
	if q := fn.inflight - 1 - c.cfg.CongestionThreshold; q > 0 {
		exp := c.cfg.CongestionExponent
		if exp == 0 {
			exp = 1
		}
		extra := time.Duration(float64(c.cfg.CongestionUnit) * math.Pow(float64(q), exp))
		if c.cfg.CongestionCap > 0 && extra > c.cfg.CongestionCap {
			extra = c.cfg.CongestionCap
		}
		bd.Congestion = extra
		p.Sleep(extra)
		tr.Mark(trace.StageCongestion, extra, p.Now())
		prob := float64(q) * c.cfg.SlowPathProbPerInflight
		if prob > c.cfg.SlowPathMaxProb {
			prob = c.cfg.SlowPathMaxProb
		}
		if prob > 0 && c.rngIngress.Float64() < prob {
			bd.SlowPath = c.cfg.SlowPathDelay.Sample(c.rngIngress)
			p.Sleep(bd.SlowPath)
			tr.Mark(trace.StageSlowPath, bd.SlowPath, p.Now())
			c.metrics.SlowPaths++
		}
	}

	// Load balancer routing (2).
	bd.Routing = c.cfg.RoutingDelay.Sample(c.rngIngress)
	p.Sleep(bd.Routing)
	tr.Mark(trace.StageRouting, bd.Routing, p.Now())

	// Instance acquisition and service, with front-end retries of crashed
	// invocations. Each attempt records its own components; failed
	// attempts fold wholesale into the Retried bucket so the final
	// breakdown still sums to the observed latency.
	var resp *Response
	attempts := 0
	for {
		attempts++
		tr.Attempt(attempts)
		var abd Breakdown

		// Idle warm instance, or buffer + scale (3)-(6).
		inst := fn.claimIdle()
		if inst == nil {
			pr := &pendingReq{sig: des.NewSignal(c.eng), enqueued: c.eng.Now()}
			fn.buffer = append(fn.buffer, pr)
			fn.maybeScale()
			if c.cfg.QueueTimeout > 0 {
				if !p.WaitTimeout(pr.sig, c.cfg.QueueTimeout) {
					fn.dropBuffered(pr)
					// The timeout and a grant can land at the same
					// virtual instant: the timer fires first, then a
					// release grants this request an instance anyway.
					// Return that instance or it stays busy forever —
					// leaking its worker slot, cluster capacity, and
					// keep-alive accounting.
					if pr.inst != nil {
						fn.release(pr.inst)
					}
					c.metrics.QueueTimeouts++
					return nil, fmt.Errorf("cloud %s: %s buffered for %v: %w",
						c.cfg.Name, fn.spec.Name, c.cfg.QueueTimeout, ErrQueueTimeout)
				}
			} else {
				p.Wait(pr.sig)
			}
			inst = pr.inst
			abd.QueueWait = c.eng.Now() - pr.enqueued
			tr.Mark(trace.StageQueueWait, abd.QueueWait, p.Now())
			if pr.handoff {
				abd.QueueHandoff = c.cfg.QueueHandoffDelay.Sample(c.rngInstance)
				p.Sleep(abd.QueueHandoff)
				tr.Mark(trace.StageQueueHandoff, abd.QueueHandoff, p.Now())
			}
		}

		resp, err = c.serve(p, inst, req, fn, &abd, tr)
		if errors.Is(err, ErrInstanceCrash) {
			fn.destroy(inst)
			if attempts <= c.cfg.Faults.Retries {
				c.metrics.Retries++
				backoff := c.cfg.Faults.RetryBackoff.Sample(c.rngIngress)
				p.Sleep(backoff)
				tr.Mark(trace.StageRetryBackoff, backoff, p.Now())
				bd.Retried += attemptSum(abd) + backoff
				continue
			}
		} else {
			fn.release(inst)
		}
		mergeAttempt(&bd, abd)
		break
	}

	// Egress: response path + propagation back to the client.
	tr.Attempt(0)
	if !req.Internal {
		// The response path and the return leg draw nothing between them:
		// one sleep covers both, as in the callback form's execDone.
		half := c.cfg.PropagationRTT / 2
		bd.ResponsePath = c.cfg.ResponseDelay.Sample(c.rngIngress)
		p.Sleep(bd.ResponsePath + half)
		tr.Mark(trace.StageResponse, bd.ResponsePath, p.Now()-half)
		tr.Mark(trace.StagePropagation, half, p.Now())
	}
	resp.QueueWait = bd.QueueWait
	resp.Attempts = attempts
	resp.Breakdown = bd
	return resp, err
}

// attemptSum totals an attempt's acquisition+service components.
func attemptSum(a Breakdown) time.Duration {
	return a.QueueWait + a.QueueHandoff + a.Overhead + a.PayloadFetch +
		a.Exec + a.PayloadStore + a.Downstream
}

// mergeAttempt copies the final attempt's components into the request's
// breakdown.
func mergeAttempt(bd *Breakdown, a Breakdown) {
	bd.QueueWait = a.QueueWait
	bd.QueueHandoff = a.QueueHandoff
	bd.Overhead = a.Overhead
	bd.PayloadFetch = a.PayloadFetch
	bd.Exec = a.Exec
	bd.PayloadStore = a.PayloadStore
	bd.Downstream = a.Downstream
	bd.ColdStart = a.ColdStart
}

// coldSpans reconstructs a cold instance's spawn pipeline cb on tr as
// detail spans laid out back-to-back against the instance's creation
// instant; they nest inside (and may predate) the serving request's queue
// wait. Both execution forms call it for a request served cold.
func coldSpans(tr *trace.Req, createdAt des.Time, cb ColdBreakdown) {
	if tr == nil {
		return
	}
	tr.ColdSpans(createdAt,
		trace.Phase{Stage: trace.StageColdSchedulerQueue, Dur: cb.SchedulerQueue},
		trace.Phase{Stage: trace.StageColdPlacement, Dur: cb.Placement},
		trace.Phase{Stage: trace.StageColdSandboxBoot, Dur: cb.SandboxBoot},
		trace.Phase{Stage: trace.StageColdImageFetch, Dur: cb.ImageFetch},
		trace.Phase{Stage: trace.StageColdChunkReads, Dur: cb.ChunkReads},
		trace.Phase{Stage: trace.StageColdRuntimeInit, Dur: cb.RuntimeInit},
		trace.Phase{Stage: trace.StageColdSnapshotRestore, Dur: cb.SnapshotRestore},
		trace.Phase{Stage: trace.StageColdSnapshotCapture, Dur: cb.SnapshotCapture},
	)
}

// serve runs the instance-side invocation (7)-(8): per-invocation overhead,
// payload retrieval, busy-spin execution (CPU-throttled for low-memory
// instances), chained downstream calls, and billing.
func (c *Cloud) serve(p *des.Proc, inst *Instance, req *Request, fn *Function, bd *Breakdown, tr *trace.Req) (*Response, error) {
	cold := inst.served == 0
	inst.served++
	tr.SetCold(cold)
	if cold {
		c.metrics.ColdServed++
		fn.tm.ColdServed++
		bd.ColdStart = inst.coldBreakdown
		coldSpans(tr, inst.createdAt, inst.coldBreakdown)
	} else {
		c.metrics.WarmServed++
		fn.tm.WarmServed++
	}
	resp := &Response{
		Fn:         fn.spec.Name,
		InstanceID: inst.id,
		Cold:       cold,
		Timestamps: make(map[string]des.Time, 2),
	}
	busyStart := p.Now()
	defer func() {
		resp.BilledGBSeconds = (p.Now() - busyStart).Seconds() * c.cfg.memoryGB(fn.spec.MemoryMB)
	}()

	bd.Overhead = c.cfg.WarmOverhead.Sample(c.rngInstance)
	exec := c.execTime(req, fn)

	// Without a storage payload nothing happens between the overhead and
	// the handler body, so one sleep covers both; the callback form's
	// serveOn makes the same fold.
	if req.storageKey == "" {
		bd.Exec = exec
		p.Sleep(bd.Overhead + exec)
		tr.Mark(trace.StageOverhead, bd.Overhead, busyStart+bd.Overhead)
		resp.Timestamps[fn.spec.Name+".recv"] = busyStart + bd.Overhead
		tr.Mark(trace.StageExec, exec, p.Now())
	} else {
		p.Sleep(bd.Overhead)
		tr.Mark(trace.StageOverhead, bd.Overhead, p.Now())
		// Retrieve the storage-based payload before the handler body runs.
		// An injected storage timeout blocks the fetch for the configured
		// deadline, then fails the invocation (the instance survives and
		// is released by the non-crash error path in Invoke).
		if c.inj != nil {
			if d, ok := c.inj.StorageFault(); ok {
				bd.PayloadFetch = d
				p.Sleep(d)
				c.metrics.StorageFaults++
				return resp, fmt.Errorf("cloud %s: payload fetch for %s: %w",
					c.cfg.Name, fn.spec.Name, faults.ErrStorageTimeout)
			}
		}
		_, lat, err := c.payloadStore.Get(p, req.storageKey)
		if err != nil {
			return resp, err
		}
		bd.PayloadFetch = lat
		tr.Mark(trace.StagePayloadFetch, lat, p.Now())
		resp.Timestamps[fn.spec.Name+".recv"] = p.Now()
		if exec > 0 {
			bd.Exec = exec
			p.Sleep(exec)
			tr.Mark(trace.StageExec, exec, p.Now())
		}
	}

	// Injected instance crash: the sandbox dies after executing.
	if f := c.cfg.Faults.CrashProb; f > 0 && c.rngInstance.Float64() < f {
		c.metrics.Crashes++
		return resp, fmt.Errorf("cloud %s: instance %d serving %s: %w",
			c.cfg.Name, inst.id, fn.spec.Name, ErrInstanceCrash)
	}

	// Continuation seam: the request's continuation, else the function's
	// chain, runs inside the instance's busy window (see downstream.go).
	cont := req.Cont
	if cont == nil {
		cont = fn.chain
	}
	if cont != nil {
		return resp, cont.Run(p, &DownstreamEnv{c: c, p: p, req: req, fn: fn, bd: bd, tr: tr, resp: resp})
	}
	return resp, nil
}

// execTime is the request's busy-spin duration: its own ExecTime, else the
// function's default, stretched on CPU-throttled low-memory instances.
func (c *Cloud) execTime(req *Request, fn *Function) time.Duration {
	exec := req.ExecTime
	if exec == 0 {
		exec = fn.spec.ExecTime
	}
	if exec <= 0 {
		return 0
	}
	return time.Duration(float64(exec) * c.cfg.throttleFactor(fn.spec.MemoryMB))
}

// inlineWireTime converts an inline payload size into transmission delay at
// the provider's effective invocation-path bandwidth (§VI-C1 measures this
// at a few hundred Mb/s, far below NIC line rate).
func (c *Cloud) inlineWireTime(payload int64) time.Duration {
	if payload <= 0 || c.cfg.InlineBandwidthBps <= 0 {
		return 0
	}
	bps := c.cfg.InlineBandwidthBps
	if j := c.cfg.InlineJitterPct; j > 0 {
		bps *= 1 - j + 2*j*c.rngWire.Float64()
	}
	return time.Duration(float64(payload) * 8 / bps * float64(time.Second))
}
