// Package cloud simulates a serverless (FaaS) cloud infrastructure in
// virtual time, implementing every component of the invocation lifecycle
// described in the STeLLAR paper's §II-B and Fig. 1: a front-end fleet, a
// load balancer, a cluster scheduler, workers with instance managers,
// function instances, and the storage services used for function images and
// inter-function payloads.
//
// Provider differences are expressed as configuration — latency
// distributions, scheduling/queueing policies, storage cache policies, and
// scale-out limits — so that the paper's per-provider behaviors (§VI) emerge
// from the interaction of mechanisms rather than from lookup tables.
package cloud

import (
	"fmt"
	"time"

	"github.com/stellar-repro/stellar/internal/blobstore"
	"github.com/stellar-repro/stellar/internal/dist"
	"github.com/stellar-repro/stellar/internal/econ"
	"github.com/stellar-repro/stellar/internal/faults"
)

// Runtime identifies a function's language runtime.
type Runtime string

// Runtimes studied in the paper (§VI-B3): an interpreted and a compiled one.
const (
	RuntimePython Runtime = "python3"
	RuntimeGo     Runtime = "go1.x"
)

// DeployMethod identifies how a function image is packaged.
type DeployMethod string

// Deployment methods studied in the paper (§VI-B3).
const (
	DeployZIP       DeployMethod = "zip"
	DeployContainer DeployMethod = "container"
)

// TransferKind selects how chained functions move payloads (§VI-C).
type TransferKind string

// Transfer kinds supported by STeLLAR.
const (
	TransferInline  TransferKind = "inline"
	TransferStorage TransferKind = "storage"
)

// ChainSpec makes a function invoke a downstream function before returning,
// passing a payload either inline or via the payload storage service.
type ChainSpec struct {
	// Next is the name of the downstream function (must be deployed).
	Next string
	// Transfer selects the payload transport.
	Transfer TransferKind
	// PayloadBytes is the default payload size; requests may override it.
	PayloadBytes int64
	// Fanout invokes that many parallel copies of the downstream function
	// (scatter-gather); the producer waits for all of them. Zero or one
	// means a plain sequential chain.
	Fanout int
}

// FunctionSpec describes one deployed function.
type FunctionSpec struct {
	// Name is the unique function name (endpoint identity).
	Name string
	// Runtime is the language runtime.
	Runtime Runtime
	// Method is the deployment method.
	Method DeployMethod
	// MemoryMB is the configured instance memory (informational; the paper
	// uses max-memory configs to avoid CPU throttling).
	MemoryMB int
	// BaseImageBytes is the image size before any extra file. Zero selects
	// a realistic default for the runtime/method combination.
	BaseImageBytes int64
	// ExtraImageBytes models STeLLAR's random-content file added to the
	// image to inflate its effective size (§IV).
	ExtraImageBytes int64
	// ExecTime is the default busy-spin duration of the handler.
	ExecTime time.Duration
	// Chain, when non-nil, chains this function to a downstream one.
	Chain *ChainSpec
	// KeepAlive, when non-nil, overrides the provider-wide keep-alive
	// policy for this function's instances — the per-tenant policy knob of
	// multi-tenant replay (Shahrad et al.'s hybrid policies keep idle
	// capacity per application, not per cloud).
	KeepAlive *KeepAlivePolicy
	// MaxInstances, when positive, caps this function's live plus pending
	// instances — a per-tenant concurrency limit (AWS reserved
	// concurrency, Azure maximum scale-out). Requests beyond the cap
	// buffer until a serving instance frees up, regardless of policy.
	MaxInstances int
	// MaxConcurrent, when positive, caps this function's admitted and
	// unfinished external requests: admissions beyond it are rejected
	// immediately with ErrConcurrencyLimit rather than buffered — the
	// hard per-tenant admission limit of the control plane (a 429, not a
	// queue). Unlike MaxInstances it bounds requests, not instances.
	MaxConcurrent int
}

// DefaultBaseImageBytes returns a representative package size for a
// runtime/method combination (compiled Go binaries in a ZIP are small;
// container images carry a filesystem).
func DefaultBaseImageBytes(r Runtime, m DeployMethod) int64 {
	switch {
	case m == DeployContainer:
		return 60 << 20 // language base image layer
	case r == RuntimeGo:
		return 4 << 20
	default:
		return 8 << 20
	}
}

// PolicyKind selects the cluster scheduler's reaction to invocations that
// find no idle instance (§VI-D3).
type PolicyKind string

// Scheduling policies.
const (
	// PolicyNoQueue spawns a dedicated instance for every buffered request;
	// requests never queue behind an executing instance (AWS behavior).
	PolicyNoQueue PolicyKind = "no-queue"
	// PolicyBoundedQueue allows a small number of requests to queue per
	// (live or pending) instance before spawning more (Google behavior).
	PolicyBoundedQueue PolicyKind = "bounded-queue"
	// PolicyRateLimited limits instance creation with a token bucket and
	// queues the remaining requests at whatever instances exist
	// (Azure behavior: a scale controller adds instances gradually).
	PolicyRateLimited PolicyKind = "rate-limited"
)

// PolicyConfig parameterizes the scheduling policy.
type PolicyConfig struct {
	Kind PolicyKind
	// MaxQueuePerInstance bounds requests per live-or-pending instance
	// (bounded-queue and rate-limited policies).
	MaxQueuePerInstance int
	// Token bucket for rate-limited scale-out.
	InitialTokens float64
	MaxTokens     float64
	TokensPerSec  float64
	// EvalInterval is how often the scale controller re-evaluates a
	// function with buffered requests (rate-limited policy).
	EvalInterval time.Duration
}

// FaultConfig injects failures, exercising the retry machinery real
// serverless front ends employ (AWS retries function errors; spawn attempts
// can fail and are repeated by the scheduler). Zero value = no faults.
type FaultConfig struct {
	// CrashProb is the per-invocation probability that the serving
	// instance crashes after executing (the instance is destroyed).
	CrashProb float64
	// SpawnFailureProb is the probability a cold-start attempt fails and
	// the scheduler retries the pipeline from placement.
	SpawnFailureProb float64
	// Retries is how many times the front end re-drives a crashed
	// invocation before surfacing the error.
	Retries int
	// RetryBackoff is slept before each retry.
	RetryBackoff dist.Dist
}

// SnapshotConfig enables snapshot-restore cold starts.
type SnapshotConfig struct {
	// Enabled turns snapshotting on.
	Enabled bool
	// RestoreDelay replaces the boot+fetch+init pipeline when a snapshot
	// exists (REAP restores run in tens of milliseconds).
	RestoreDelay dist.Dist
	// CaptureOverhead is added to the first (snapshot-creating) cold
	// start of each function.
	CaptureOverhead dist.Dist
}

// PlacementStrategy selects the scheduler's worker-choice policy.
type PlacementStrategy string

// Placement strategies.
const (
	// PlacementRoundRobin cycles through workers (the default).
	PlacementRoundRobin PlacementStrategy = "round-robin"
	// PlacementLeastLoaded picks the worker hosting the fewest live
	// instances, balancing occupancy under skewed teardown patterns.
	PlacementLeastLoaded PlacementStrategy = "least-loaded"
)

// KeepAlivePolicy controls how long an idle instance survives.
type KeepAlivePolicy struct {
	// Fixed, when positive, deterministically reaps idle instances after
	// exactly this duration (AWS Lambda's observed 10-minute policy, §V).
	Fixed time.Duration
	// Dist, used when Fixed is zero, samples a random lifetime per idle
	// period (Google/Azure behavior: shutdown likelihood grows with time).
	Dist dist.Dist
}

// RuntimeMethodKey joins a runtime and deployment method for map lookups.
func RuntimeMethodKey(r Runtime, m DeployMethod) string {
	return string(r) + "/" + string(m)
}

// Config is a full provider profile.
type Config struct {
	// Name identifies the provider (e.g., "aws").
	Name string

	// PropagationRTT is the client<->datacenter round trip (the paper's
	// ping measurement: 26/14/32 ms for AWS/Google/Azure from CloudLab).
	PropagationRTT time.Duration

	// FrontendDelay is the external-request admission delay (auth etc.).
	FrontendDelay dist.Dist
	// ResponseDelay is the external response path delay.
	ResponseDelay dist.Dist
	// InternalDelay is the ingress delay for function-to-function calls,
	// which traverse the front-end/load balancer again (§II-B step 9).
	InternalDelay dist.Dist
	// RoutingDelay is the load balancer's routing decision delay.
	RoutingDelay dist.Dist
	// WarmOverhead is the per-invocation instance-side overhead (request
	// relay, runtime dispatch, response serialization).
	WarmOverhead dist.Dist

	// Ingestion congestion: with Q concurrently in-flight requests to a
	// function beyond CongestionThreshold, each request waits an extra
	// CongestionUnit * Q^CongestionExponent (capped at CongestionCap when
	// positive), and with probability min(SlowPathMaxProb,
	// Q*SlowPathProbPerInflight) also takes a slow path (retries,
	// throttling) sampled from SlowPathDelay. An exponent below 1 models
	// a scale-out front-end fleet that absorbs large bursts sublinearly.
	CongestionThreshold     int
	CongestionUnit          time.Duration
	CongestionExponent      float64 // 0 means 1 (linear)
	CongestionCap           time.Duration
	SlowPathProbPerInflight float64
	SlowPathMaxProb         float64
	SlowPathDelay           dist.Dist

	// Cluster scheduler: placement decisions hold one unit of a
	// SchedulerCapacity-wide resource for PlacementDelay, so mass cold
	// starts contend (§VI-D2).
	SchedulerCapacity int
	PlacementDelay    dist.Dist
	// Policy selects the queueing/scale-out behavior.
	Policy PolicyConfig
	// QueueHandoffDelay is the per-request dispatch overhead paid when a
	// queued request is handed a recycled instance (queueing policies
	// only): the scale controller's dequeue-and-dispatch cost, which
	// bounds how fast a few instances can drain a deep queue.
	QueueHandoffDelay dist.Dist
	// QueueTimeout bounds how long a request may sit buffered awaiting an
	// instance before the gateway gives up with an error (API gateways
	// cap this around 29-230s in production; zero disables).
	QueueTimeout time.Duration

	// Cold-start pipeline at the worker's instance manager (§II-B steps
	// 4-7): sandbox boot, image fetch from ImageStore, runtime init.
	SandboxBoot dist.Dist
	// WarmGenericPool models providers that keep pre-booted generic
	// instances, making ZIP runtime init nearly independent of the
	// language runtime (the paper's hypothesis for Obs. 3).
	WarmGenericPool bool
	// PooledInit is the runtime init delay when served from the generic
	// pool (ZIP deployments with WarmGenericPool).
	PooledInit dist.Dist
	// RuntimeInit maps RuntimeMethodKey to the init delay otherwise.
	RuntimeInit map[string]dist.Dist
	// ContainerChunkReads models interpreted runtimes importing modules
	// on demand from a splintered container image: that many extra
	// small reads against the image store per cold start (§VI-B3).
	ContainerChunkReads map[Runtime]int
	// ChunkReadLatency is the per-chunk read latency.
	ChunkReadLatency dist.Dist

	// ImageStore holds function images; PayloadStore holds inter-function
	// payloads (S3 / Cloud Storage).
	ImageStore   blobstore.Config
	PayloadStore blobstore.Config

	// Inline transfers: payloads up to InlineLimitBytes ride inside the
	// invocation request at InlineBandwidthBps (±InlineJitterPct).
	InlineLimitBytes   int64
	InlineBandwidthBps float64
	InlineJitterPct    float64

	// KeepAlive reaps idle instances.
	KeepAlive KeepAlivePolicy
	// Autoscaler, when non-nil, replaces the buffer-driven scale policies
	// and keep-alive reaping with an explicit control plane: a
	// target-concurrency controller (desired = ceil(inflight/target),
	// Knative-KPA shape) that scales up on demand, scales down on windowed
	// ticks, and — with Suspend set — parks surplus instances in the
	// suspended state instead of evicting them. nil (the default) keeps
	// every existing schedule byte-identical.
	Autoscaler *econ.AutoscalerConfig
	// Billing, when non-nil, is the provider's billing plan; Cloud.Bill
	// prices the accumulated usage under it. Usage metering itself is
	// always on (pure arithmetic), so experiments can also price one run
	// under many plans after the fact via Cloud.Usage.
	Billing *econ.BillingConfig
	// ResumeDelay is the suspended→running resume latency, sampled per
	// resume — well below a cold boot (the scale-to-zero literature
	// reports tens to hundreds of ms for snapshot-resident state).
	ResumeDelay dist.Dist

	// Workers is the number of physical hosts.
	Workers int
	// WorkerCapacity bounds instances per worker; zero means unbounded.
	// When the whole cluster is full, spawns block until capacity frees —
	// the saturation regime a finite cluster hits under extreme bursts.
	WorkerCapacity int
	// Placement selects how the scheduler picks a worker for a new
	// instance: round-robin (default) or least-loaded by live instances.
	Placement PlacementStrategy

	// Faults optionally injects crashes and spawn failures.
	Faults FaultConfig

	// Inject optionally enables the deterministic fault injector
	// (internal/faults): request drops, 429 throttling, storage-fetch
	// timeouts, and additional spawn failures. nil — or a config with no
	// active mode — leaves the invoke hot path byte-identical to a cloud
	// built without it.
	Inject *faults.Config

	// Snapshots optionally enables MicroVM snapshot/restore cold starts
	// (the vHive/REAP line of work the paper's §VIII discusses): after a
	// function's first full cold boot, later instances restore from the
	// captured snapshot instead of booting, fetching the image, and
	// initializing the runtime.
	Snapshots SnapshotConfig

	// DefaultMemoryMB is the instance memory used when a function spec
	// leaves MemoryMB zero — the paper's max-memory single-core
	// configuration (§V): 2GB AWS/Google, 1.5GB Azure.
	DefaultMemoryMB int
	// FullSpeedMemoryMB is the memory size at which an instance gets a
	// full CPU core; providers throttle CPU proportionally below it (§V),
	// stretching busy-spin execution time by FullSpeedMemoryMB/MemoryMB.
	FullSpeedMemoryMB int
}

// Validate reports configuration errors that would make the simulation
// meaningless.
func (c *Config) Validate() error {
	if c.Name == "" {
		return fmt.Errorf("cloud: config needs a name")
	}
	if c.SchedulerCapacity < 1 {
		return fmt.Errorf("cloud %s: scheduler capacity must be >= 1", c.Name)
	}
	if c.Workers < 1 {
		return fmt.Errorf("cloud %s: need at least one worker", c.Name)
	}
	switch c.Policy.Kind {
	case PolicyNoQueue:
	case PolicyBoundedQueue:
		if c.Policy.MaxQueuePerInstance < 1 {
			return fmt.Errorf("cloud %s: bounded-queue needs MaxQueuePerInstance >= 1", c.Name)
		}
	case PolicyRateLimited:
		if c.Policy.MaxQueuePerInstance < 1 {
			return fmt.Errorf("cloud %s: rate-limited needs MaxQueuePerInstance >= 1", c.Name)
		}
		if c.Policy.TokensPerSec <= 0 {
			return fmt.Errorf("cloud %s: rate-limited needs TokensPerSec > 0", c.Name)
		}
	default:
		return fmt.Errorf("cloud %s: unknown policy %q", c.Name, c.Policy.Kind)
	}
	if c.KeepAlive.Fixed <= 0 && c.KeepAlive.Dist == nil {
		return fmt.Errorf("cloud %s: keep-alive policy unset", c.Name)
	}
	if c.DefaultMemoryMB < 0 || c.FullSpeedMemoryMB < 0 {
		return fmt.Errorf("cloud %s: negative memory configuration", c.Name)
	}
	switch c.Placement {
	case "", PlacementRoundRobin, PlacementLeastLoaded:
	default:
		return fmt.Errorf("cloud %s: unknown placement strategy %q", c.Name, c.Placement)
	}
	if c.Faults.CrashProb < 0 || c.Faults.CrashProb > 1 ||
		c.Faults.SpawnFailureProb < 0 || c.Faults.SpawnFailureProb >= 1 {
		return fmt.Errorf("cloud %s: fault probabilities out of range", c.Name)
	}
	if c.Faults.Retries < 0 {
		return fmt.Errorf("cloud %s: negative retry count", c.Name)
	}
	if c.WorkerCapacity < 0 {
		return fmt.Errorf("cloud %s: negative worker capacity", c.Name)
	}
	if c.Inject != nil {
		if err := c.Inject.Validate(); err != nil {
			return fmt.Errorf("cloud %s: %w", c.Name, err)
		}
	}
	if c.Autoscaler != nil {
		if err := c.Autoscaler.Validate(); err != nil {
			return fmt.Errorf("cloud %s: %w", c.Name, err)
		}
	}
	if c.Billing != nil {
		if err := c.Billing.Validate(); err != nil {
			return fmt.Errorf("cloud %s: %w", c.Name, err)
		}
	}
	return nil
}

// throttleFactor returns the CPU-throttling multiplier for an instance with
// the given memory size: 1 at or above FullSpeedMemoryMB, proportionally
// larger below it.
func (c *Config) throttleFactor(memoryMB int) float64 {
	if memoryMB == 0 {
		memoryMB = c.DefaultMemoryMB
	}
	if c.FullSpeedMemoryMB <= 0 || memoryMB <= 0 || memoryMB >= c.FullSpeedMemoryMB {
		return 1
	}
	return float64(c.FullSpeedMemoryMB) / float64(memoryMB)
}

// memoryGB returns an instance's billed memory in GB.
func (c *Config) memoryGB(memoryMB int) float64 {
	if memoryMB == 0 {
		memoryMB = c.DefaultMemoryMB
	}
	if memoryMB <= 0 {
		memoryMB = 1024
	}
	return float64(memoryMB) / 1024
}

// fillDefaults replaces nil distributions with zero constants so the
// simulator never nil-derefs on an unconfigured axis.
func (c *Config) fillDefaults() {
	zero := dist.Constant(0)
	if c.FrontendDelay == nil {
		c.FrontendDelay = zero
	}
	if c.ResponseDelay == nil {
		c.ResponseDelay = zero
	}
	if c.InternalDelay == nil {
		c.InternalDelay = zero
	}
	if c.RoutingDelay == nil {
		c.RoutingDelay = zero
	}
	if c.WarmOverhead == nil {
		c.WarmOverhead = zero
	}
	if c.SlowPathDelay == nil {
		c.SlowPathDelay = zero
	}
	if c.PlacementDelay == nil {
		c.PlacementDelay = zero
	}
	if c.QueueHandoffDelay == nil {
		c.QueueHandoffDelay = zero
	}
	if c.Faults.RetryBackoff == nil {
		c.Faults.RetryBackoff = zero
	}
	if c.Snapshots.RestoreDelay == nil {
		c.Snapshots.RestoreDelay = zero
	}
	if c.Snapshots.CaptureOverhead == nil {
		c.Snapshots.CaptureOverhead = zero
	}
	if c.SandboxBoot == nil {
		c.SandboxBoot = zero
	}
	if c.PooledInit == nil {
		c.PooledInit = zero
	}
	if c.ChunkReadLatency == nil {
		c.ChunkReadLatency = zero
	}
	if c.ResumeDelay == nil {
		c.ResumeDelay = zero
	}
	// Fill autoscaler cadence defaults on a copy so the caller's struct
	// stays untouched (pointer fields are shared with the caller).
	if c.Autoscaler != nil {
		as := *c.Autoscaler
		if as.TickInterval == 0 {
			as.TickInterval = 2 * time.Second
		}
		if as.ScaleDownWindow == 0 {
			as.ScaleDownWindow = time.Minute
		}
		c.Autoscaler = &as
	}
}

// initDelay returns the runtime-init distribution for a function.
func (c *Config) initDelay(r Runtime, m DeployMethod) dist.Dist {
	if m == DeployZIP && c.WarmGenericPool {
		return c.PooledInit
	}
	if d, ok := c.RuntimeInit[RuntimeMethodKey(r, m)]; ok {
		return d
	}
	return c.PooledInit
}
