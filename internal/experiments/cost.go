package experiments

import (
	"cmp"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/stellar-repro/stellar/internal/azuretrace"
	"github.com/stellar-repro/stellar/internal/cloud"
	"github.com/stellar-repro/stellar/internal/des"
	"github.com/stellar-repro/stellar/internal/dist"
	"github.com/stellar-repro/stellar/internal/econ"
	"github.com/stellar-repro/stellar/internal/providers"
	"github.com/stellar-repro/stellar/internal/runner"
	"github.com/stellar-repro/stellar/internal/stats"
	"github.com/stellar-repro/stellar/internal/stats/sketch"
	"github.com/stellar-repro/stellar/internal/workflow"
)

// CostPolicy is one control-plane configuration swept by the cost
// experiment: either a legacy fixed keep-alive (Autoscaler nil) or a
// target-concurrency autoscaler, optionally with suspend/resume.
type CostPolicy struct {
	// Name labels the policy in reports ("keepalive-5m", "target-1").
	Name string `json:"name"`
	// KeepAlive is the fixed keep-alive used when Autoscaler is nil.
	KeepAlive time.Duration `json:"keepalive_ns,omitempty"`
	// Autoscaler, when non-nil, replaces keep-alive expiry with the
	// target-concurrency control loop.
	Autoscaler *econ.AutoscalerConfig `json:"autoscaler,omitempty"`
}

// ParseCostPolicy builds a policy from its report name, so CLI sweeps can
// name points directly:
//
//	keepalive-<dur>    fixed keep-alive, e.g. keepalive-5m
//	target-<n>         autoscaler at per-instance concurrency n, suspending
//	                   surplus instances on scale-down
//	target-<n>-evict   same, but surplus instances are evicted outright
func ParseCostPolicy(name string) (CostPolicy, error) {
	switch {
	case strings.HasPrefix(name, "keepalive-"):
		ka, err := time.ParseDuration(strings.TrimPrefix(name, "keepalive-"))
		if err != nil || ka <= 0 {
			return CostPolicy{}, fmt.Errorf("cost: bad keep-alive policy %q", name)
		}
		return CostPolicy{Name: name, KeepAlive: ka}, nil
	case strings.HasPrefix(name, "target-"):
		spec := strings.TrimPrefix(name, "target-")
		suspend := true
		if s, ok := strings.CutSuffix(spec, "-evict"); ok {
			spec, suspend = s, false
		}
		target, err := strconv.ParseFloat(spec, 64)
		as := &econ.AutoscalerConfig{
			Target:          target,
			TickInterval:    2 * time.Second,
			ScaleDownWindow: 30 * time.Second,
			Suspend:         suspend,
		}
		// econ's own check rejects a NaN, infinite or non-positive target
		// here, at parse time, rather than when the sweep is configured.
		if err != nil || as.Validate() != nil {
			return CostPolicy{}, fmt.Errorf("cost: bad target policy %q", name)
		}
		return CostPolicy{Name: name, Autoscaler: as}, nil
	default:
		return CostPolicy{}, fmt.Errorf("cost: unknown policy %q (want keepalive-<dur>, target-<n>, or target-<n>-evict)", name)
	}
}

// DefaultCostPolicies is the default sweep axis: the legacy keep-alive
// provider plus three autoscaler operating points, so the frontier spans
// both control-plane families.
func DefaultCostPolicies() []CostPolicy {
	names := []string{"keepalive-5m", "target-1", "target-2", "target-8-evict"}
	policies := make([]CostPolicy, len(names))
	for i, n := range names {
		p, err := ParseCostPolicy(n)
		if err != nil {
			panic(err) // the default names are parseable by construction
		}
		policies[i] = p
	}
	return policies
}

// CostOptions configures the cost/latency sweep: the PR-8 multi-tenant
// replay runs once per control-plane policy, the accumulated usage is
// priced under every billing plan at read time, and the report pairs
// cost-per-million-requests with tail latency — the trade-off the
// keep-alive and autoscaler knobs actually walk.
type CostOptions struct {
	// Provider is the provider profile under test.
	Provider string
	// Tenants is the synthesized population size.
	Tenants int
	// Duration is the arrival window per shard.
	Duration time.Duration
	// Shards splits the population into independent simulations (default 8).
	Shards int
	// Workers bounds concurrently running shard simulations (0 = GOMAXPROCS).
	Workers int
	// Seed roots population synthesis and every shard's randomness.
	Seed int64
	// Policies is the swept control-plane axis (default DefaultCostPolicies).
	Policies []CostPolicy
	// Plans is the billing axis usage is priced under (default all built-in
	// plans; custom plans, e.g. from econ.LoadFile, join the sweep as peers).
	// One replay per policy is priced under every plan.
	Plans []econ.BillingConfig
	// MeanIATLo/Hi bound each tenant's mean inter-arrival time, drawn
	// log-uniformly (default 1s..60s), floored at the tenant's median
	// execution time — identical to the tenants experiment.
	MeanIATLo time.Duration
	MeanIATHi time.Duration
	// Alpha is the latency sketch relative-accuracy target (default 0.02).
	Alpha float64
	// MaxConcurrency caps each tenant's instances (default 16, negative =
	// uncapped).
	MaxConcurrency int
	// ResumeDelay is the suspended→running resume latency under autoscaler
	// policies (default 50ms — well below any cold boot).
	ResumeDelay time.Duration
	// Workflow, when set, additionally deploys this PR-9 topology preset in
	// every shard and reports its cost-per-application under each plan.
	Workflow string
	// Apps is the total workflow launches across shards (default 64 when
	// Workflow is set).
	Apps uint64
	// AppIAT is the inter-arrival time between workflow launches within one
	// shard (default 500ms).
	AppIAT time.Duration
	// AppExec is the per-node busy time of the workflow app (default 20ms).
	AppExec time.Duration

	// top keeps each policy's N worst tenants by p99 (the tenants report's
	// -top; 0 = none).
	top int
}

// normalized fills zero-valued options with their defaults. Negative values
// are left for validate to reject, except MaxConcurrency, where negative
// documents "uncapped".
func (o CostOptions) normalized() CostOptions {
	if o.Shards == 0 {
		o.Shards = 8
	}
	if len(o.Policies) == 0 {
		o.Policies = DefaultCostPolicies()
	}
	if len(o.Plans) == 0 {
		for _, name := range econ.Plans() {
			plan, err := econ.Plan(name)
			if err != nil {
				panic(err) // the listed built-ins resolve by construction
			}
			o.Plans = append(o.Plans, plan)
		}
	}
	if o.MeanIATLo == 0 {
		o.MeanIATLo = time.Second
	}
	if o.MeanIATHi == 0 {
		o.MeanIATHi = time.Minute
	}
	if o.Alpha == 0 {
		o.Alpha = 0.02
	}
	if o.MaxConcurrency == 0 {
		o.MaxConcurrency = 16
	}
	if o.MaxConcurrency < 0 {
		o.MaxConcurrency = 0
	}
	if o.ResumeDelay == 0 {
		o.ResumeDelay = 50 * time.Millisecond
	}
	if o.Workflow != "" {
		if o.Apps == 0 {
			o.Apps = 64
		}
		if o.AppIAT == 0 {
			o.AppIAT = 500 * time.Millisecond
		}
		if o.AppExec == 0 {
			o.AppExec = 20 * time.Millisecond
		}
	}
	return o
}

func (o CostOptions) validate() error {
	if o.Provider == "" {
		return fmt.Errorf("provider is required")
	}
	if o.Tenants <= 0 {
		return fmt.Errorf("need at least one tenant")
	}
	if o.Duration <= 0 {
		return fmt.Errorf("duration must be positive")
	}
	for _, neg := range []struct {
		name string
		v    int64
	}{
		{"shards", int64(o.Shards)},
		{"workers", int64(o.Workers)},
		{"mean IAT lower bound", int64(o.MeanIATLo)},
		{"mean IAT upper bound", int64(o.MeanIATHi)},
		{"resume delay", int64(o.ResumeDelay)},
		{"workflow app IAT", int64(o.AppIAT)},
		{"workflow app exec", int64(o.AppExec)},
		{"top", int64(o.top)},
	} {
		if neg.v < 0 {
			return fmt.Errorf("negative %s", neg.name)
		}
	}
	seen := make(map[string]bool, len(o.Policies))
	for i := range o.Policies {
		p := &o.Policies[i]
		if p.Name == "" {
			return fmt.Errorf("policy %d has no name", i)
		}
		if seen[p.Name] {
			return fmt.Errorf("duplicate policy %q", p.Name)
		}
		seen[p.Name] = true
		if p.Autoscaler != nil {
			if err := p.Autoscaler.Validate(); err != nil {
				return fmt.Errorf("policy %q: %w", p.Name, err)
			}
		} else if p.KeepAlive <= 0 {
			return fmt.Errorf("policy %q needs a positive keep-alive or an autoscaler", p.Name)
		}
	}
	seenPlan := make(map[string]bool, len(o.Plans))
	for i := range o.Plans {
		plan := &o.Plans[i]
		if plan.Name == "" {
			return fmt.Errorf("plan %d has no name", i)
		}
		if seenPlan[plan.Name] {
			return fmt.Errorf("duplicate plan %q", plan.Name)
		}
		seenPlan[plan.Name] = true
		if err := plan.Validate(); err != nil {
			return fmt.Errorf("plan %q: %w", plan.Name, err)
		}
	}
	if o.MeanIATLo > o.MeanIATHi {
		return fmt.Errorf("mean IAT bounds inverted (%v > %v)", o.MeanIATLo, o.MeanIATHi)
	}
	if err := sketch.ValidateAlpha(o.Alpha); err != nil {
		return err
	}
	if o.Workflow != "" {
		if _, err := workflow.Preset(o.Workflow, workflow.PresetSpec{}); err != nil {
			return err
		}
		if o.Apps > 0 && uint64(o.Shards) > o.Apps {
			return fmt.Errorf("%d shards for %d workflow launches", o.Shards, o.Apps)
		}
	}
	return nil
}

// CostPlanPoint is one (policy, plan) cell of the sweep: the replay's usage
// priced under one billing plan, paired with the policy's tail latency to
// form a frontier coordinate.
type CostPlanPoint struct {
	Plan string    `json:"plan"`
	Cost econ.Cost `json:"cost"`
	// CostPerMReq is dollars per million metered requests under this plan.
	CostPerMReq float64 `json:"cost_per_mreq"`
	// P99 echoes the policy's tail latency — the frontier's other axis.
	P99 time.Duration `json:"p99_ns"`
	// Pareto marks cells not dominated on (CostPerMReq, P99) across
	// policies within the same plan: the operating points a provider
	// committed to this plan would actually pick.
	Pareto bool `json:"pareto"`
	// AppTotal/AppPerKRuns price the workflow app's own usage (only when
	// the sweep carries a workflow app).
	AppTotal    float64 `json:"app_total,omitempty"`
	AppPerKRuns float64 `json:"app_per_k_runs,omitempty"`
}

// CostAppPoint is the workflow app's outcome under one policy.
type CostAppPoint struct {
	Topology    string        `json:"topology"`
	Launched    uint64        `json:"launched"`
	Completed   uint64        `json:"completed"`
	Failed      uint64        `json:"failed"`
	Usage       econ.Usage    `json:"usage"`
	MakespanP50 time.Duration `json:"makespan_p50_ns"`
	MakespanP99 time.Duration `json:"makespan_p99_ns"`
}

// CostPolicyPoint is one control-plane policy's merged outcome across
// shards, plus its pricing under every plan.
type CostPolicyPoint struct {
	Policy      string  `json:"policy"`
	Autoscaled  bool    `json:"autoscaled"`
	Invocations uint64  `json:"invocations"`
	ColdServed  uint64  `json:"cold_served"`
	WarmServed  uint64  `json:"warm_served"`
	Errors      uint64  `json:"errors"`
	Expirations uint64  `json:"expirations"`
	Suspends    uint64  `json:"suspends"`
	Resumes     uint64  `json:"resumes"`
	ColdRate    float64 `json:"cold_rate"`
	// Usage is the fleet's metered resource consumption; pricing derives
	// from it at read time, so every plan shares one replay.
	Usage           econ.Usage      `json:"usage"`
	InstanceSeconds float64         `json:"instance_seconds"`
	Latency         stats.Summary   `json:"latency"`
	VirtualTime     time.Duration   `json:"virtual_ns"`
	Plans           []CostPlanPoint `json:"plans"`
	App             *CostAppPoint   `json:"app,omitempty"`

	sketch *sketch.Sketch
	// worst holds the top worst tenants by p99, when the tenants preset
	// asks for them.
	worst []TenantStat
}

// LatencySketch returns the policy's merged tenant-latency sketch (nil on
// records rebuilt from JSON).
func (p *CostPolicyPoint) LatencySketch() *sketch.Sketch { return p.sketch }

// CostResult is the full sweep outcome, points in policy order.
type CostResult struct {
	Provider string            `json:"provider"`
	Tenants  int               `json:"tenants"`
	Duration time.Duration     `json:"duration_ns"`
	Shards   int               `json:"shards"`
	Seed     int64             `json:"seed"`
	Workflow string            `json:"workflow,omitempty"`
	Points   []CostPolicyPoint `json:"points"`
}

// populationShard is one (policy, shard) simulation's raw outcome.
type populationShard struct {
	inv, cold, warm, errs uint64
	expirations           uint64
	suspends, resumes     uint64
	instSec               float64
	usage                 econ.Usage
	sk                    *sketch.Sketch
	virtual               time.Duration
	// tenants holds one stat per tenant, only when asked for.
	tenants []TenantStat

	appLaunched, appCompleted, appFailed uint64
	appUsage                             econ.Usage
	appSk                                *sketch.Sketch
}

// RunCost executes the cost/latency sweep: every policy replays the same
// synthesized tenant population (shard seeds ignore the policy index), the
// metered usage is priced under every plan, and Pareto frontiers are marked
// per plan on (cost-per-million-requests, p99).
func RunCost(opts CostOptions) (*CostResult, error) {
	res, err := runPopulation(opts)
	if err != nil {
		return nil, fmt.Errorf("cost: %w", err)
	}
	return res, nil
}

// runPopulation is the one population replay behind both the cost sweep
// and its keep-alive preset, the tenants sweep. With opts.top > 0 it also
// keeps each policy's top worst tenants by p99.
func runPopulation(opts CostOptions) (*CostResult, error) {
	opts = opts.normalized()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	pop := synthesizeTenants(opts)

	units := len(opts.Policies) * opts.Shards
	shards, err := runner.Map(runner.Pool{Workers: opts.Workers, Seed: opts.Seed}, units,
		func(sh runner.Shard) (*populationShard, error) {
			pol := opts.Policies[sh.Index/opts.Shards]
			shardIdx := sh.Index % opts.Shards
			return runPopulationShard(opts, pop, pol, shardIdx)
		})
	if err != nil {
		return nil, err
	}

	res := &CostResult{
		Provider: opts.Provider,
		Tenants:  opts.Tenants,
		Duration: opts.Duration,
		Shards:   opts.Shards,
		Seed:     opts.Seed,
		Workflow: opts.Workflow,
	}
	for pi, pol := range opts.Policies {
		point := CostPolicyPoint{
			Policy:     pol.Name,
			Autoscaled: pol.Autoscaler != nil,
			sketch:     sketch.New(opts.Alpha),
		}
		appSk := sketch.New(opts.Alpha)
		var app CostAppPoint
		for _, sh := range shards[pi*opts.Shards : (pi+1)*opts.Shards] {
			point.Invocations += sh.inv
			point.ColdServed += sh.cold
			point.WarmServed += sh.warm
			point.Errors += sh.errs
			point.Expirations += sh.expirations
			point.Suspends += sh.suspends
			point.Resumes += sh.resumes
			point.InstanceSeconds += sh.instSec
			point.Usage.Add(sh.usage)
			if sh.sk.Count() > 0 {
				if err := point.sketch.Merge(sh.sk); err != nil {
					return nil, fmt.Errorf("merging shard sketch: %w", err)
				}
			}
			if sh.virtual > point.VirtualTime {
				point.VirtualTime = sh.virtual
			}
			point.worst = append(point.worst, sh.tenants...)
			app.Launched += sh.appLaunched
			app.Completed += sh.appCompleted
			app.Failed += sh.appFailed
			app.Usage.Add(sh.appUsage)
			if sh.appSk != nil && sh.appSk.Count() > 0 {
				if err := appSk.Merge(sh.appSk); err != nil {
					return nil, fmt.Errorf("merging app sketch: %w", err)
				}
			}
		}
		if served := point.ColdServed + point.WarmServed; served > 0 {
			point.ColdRate = float64(point.ColdServed) / float64(served)
		}
		if point.sketch.Count() > 0 {
			point.Latency = point.sketch.Summarize()
		}
		if opts.top > 0 {
			// Tenants live in exactly one shard, so the concatenation holds
			// each exactly once; sort by p99 descending, name-tie-broken.
			sort.Slice(point.worst, func(i, j int) bool {
				a, b := point.worst[i], point.worst[j]
				if a.P99 != b.P99 {
					return a.P99 > b.P99
				}
				return a.Name < b.Name
			})
			if len(point.worst) > opts.top {
				point.worst = point.worst[:opts.top]
			}
		}
		if opts.Workflow != "" {
			app.Topology = opts.Workflow
			if appSk.Count() > 0 {
				app.MakespanP50 = appSk.Quantile(0.50)
				app.MakespanP99 = appSk.Quantile(0.99)
			}
			point.App = &app
		}
		for _, plan := range opts.Plans {
			cell := CostPlanPoint{
				Plan: plan.Name,
				Cost: plan.Price(point.Usage),
				P99:  point.Latency.P99,
			}
			cell.CostPerMReq = econ.PerMillionRequests(cell.Cost.Total, point.Usage.Requests)
			if point.App != nil && point.App.Completed > 0 {
				cell.AppTotal = plan.Price(point.App.Usage).Total
				cell.AppPerKRuns = cell.AppTotal / float64(point.App.Completed) * 1e3
			}
			point.Plans = append(point.Plans, cell)
		}
		res.Points = append(res.Points, point)
	}
	// Within each plan, mark the policies not dominated on
	// (CostPerMReq, P99).
	for pj := range opts.Plans {
		front := paretoFront(len(res.Points), func(i int) (float64, time.Duration) {
			cell := &res.Points[i].Plans[pj]
			return cell.CostPerMReq, cell.P99
		})
		for i, on := range front {
			res.Points[i].Plans[pj].Pareto = on
		}
	}
	return res, nil
}

// paretoFront reports which of n points are not dominated when minimizing
// both coordinates. A point is dominated only by one at least as good on
// both and strictly better on one, so exact ties and duplicates all stay
// on the front together.
func paretoFront[X, Y cmp.Ordered](n int, at func(i int) (X, Y)) []bool {
	front := make([]bool, n)
	for i := range front {
		xi, yi := at(i)
		front[i] = true
		for j := range n {
			xj, yj := at(j)
			if j != i && xj <= xi && yj <= yi && (xj < xi || yj < yi) {
				front[i] = false
				break
			}
		}
	}
	return front
}

// runPopulationShard replays this shard's slice of the population under one
// control-plane policy. The shard seed ignores the policy index on purpose:
// every policy sees identical arrivals and execution draws, isolating the
// control plane as the only difference between frontier points. With
// opts.top > 0 it also reports one TenantStat per tenant.
func runPopulationShard(opts CostOptions, pop []tenantSpec, pol CostPolicy, shardIdx int) (*populationShard, error) {
	cfg, err := providers.Get(opts.Provider)
	if err != nil {
		return nil, err
	}
	if pol.Autoscaler != nil {
		as := *pol.Autoscaler
		cfg.Autoscaler = &as
		cfg.ResumeDelay = dist.Constant(opts.ResumeDelay)
	} else {
		cfg.KeepAlive = cloud.KeepAlivePolicy{Fixed: pol.KeepAlive}
	}

	out := &populationShard{sk: sketch.New(opts.Alpha)}
	e, err := newEnvWithConfig(cfg, dist.ShardSeed(opts.Seed, shardIdx))
	if err != nil {
		return nil, fmt.Errorf("shard %d: %w", shardIdx, err)
	}
	defer e.close()
	c := e.cloud
	eng := e.eng

	// Tenant arrival/execution randomness derives from the shard seed under
	// per-tenant stream names, independent of the cloud's own streams.
	streams := dist.NewStreams(dist.ShardSeed(opts.Seed, shardIdx))
	noopDone := func(*cloud.Response, error) {}
	horizon := opts.Duration

	type tenantRun struct {
		name   string
		sk     *sketch.Sketch
		issued uint64
	}
	var runs []*tenantRun
	for t := shardIdx; t < len(pop); t += opts.Shards {
		spec := pop[t]
		name := spec.rec.Function
		if err := c.Deploy(cloud.FunctionSpec{
			Name:         name,
			Runtime:      cloud.RuntimePython,
			Method:       cloud.DeployZIP,
			MaxInstances: opts.MaxConcurrency,
		}); err != nil {
			return nil, fmt.Errorf("shard %d: %w", shardIdx, err)
		}
		execDist, err := azuretrace.Synthesize(spec.rec)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", shardIdx, err)
		}
		tr := &tenantRun{name: name, sk: sketch.New(opts.Alpha)}
		if err := c.SetFunctionRecorder(name, tr.sk); err != nil {
			return nil, fmt.Errorf("shard %d: %w", shardIdx, err)
		}
		runs = append(runs, tr)

		arrRNG := streams.Stream("tenants/arr/" + name)
		execRNG := streams.Stream("tenants/exec/" + name)
		mean := float64(spec.meanIAT)
		// Open-loop Poisson arrivals as a self-rescheduling callback chain:
		// the next arrival is independent of completions, and generation
		// stops once it would cross the window.
		var arrive func()
		arrive = func() {
			tr.issued++
			c.InvokeAsync(&cloud.Request{Fn: name, ExecTime: execDist.Sample(execRNG)}, noopDone)
			if next := time.Duration(arrRNG.ExpFloat64() * mean); eng.Now()+next < horizon {
				eng.CallAfter(next, arrive)
			}
		}
		if first := time.Duration(arrRNG.ExpFloat64() * mean); first < horizon {
			eng.CallAfter(first, arrive)
		}
	}

	// The optional workflow app shares the provider with the tenant
	// population: its nodes are ordinary functions under the same control
	// plane, so its bill reflects the policy's suspend/evict behavior.
	var dag *workflow.DAG
	var ex *workflow.Exec
	if opts.Workflow != "" {
		dag, err = workflow.Preset(opts.Workflow, workflow.PresetSpec{
			Transfer:     workflow.TransferInline,
			PayloadBytes: 4 << 10,
		})
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", shardIdx, err)
		}
		for _, node := range dag.Nodes {
			if err := c.Deploy(cloud.FunctionSpec{
				Name:     node.Name,
				Runtime:  cloud.RuntimePython,
				Method:   cloud.DeployZIP,
				ExecTime: opts.AppExec,
			}); err != nil {
				return nil, fmt.Errorf("shard %d: %w", shardIdx, err)
			}
		}
		ex, err = workflow.New(workflow.Config{Cloud: c, DAG: dag})
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", shardIdx, err)
		}
		out.appSk = sketch.New(opts.Alpha)
		n := shardInvocations(opts.Apps, opts.Shards, shardIdx)
		out.appLaunched = n
		if n > 0 {
			runOne := func(p *des.Proc) {
				res, err := ex.Run(p)
				if err != nil {
					out.appFailed++
					return
				}
				out.appCompleted++
				out.appSk.Add(res.Makespan)
			}
			burstArrivals(eng, n, 1, opts.AppIAT, func() { eng.Spawn("cost/app", runOne) })
		}
	}

	// Drain to quiescence: in-flight work completes, idle instances expire
	// or suspend, and the autoscaler tick self-disarms.
	eng.Run(0)
	out.virtual = eng.Now()

	var tenantSum econ.Usage
	for _, tr := range runs {
		tm, ok := c.FunctionMetrics(tr.name)
		if !ok {
			return nil, fmt.Errorf("shard %d: %s vanished", shardIdx, tr.name)
		}
		if tm.Invocations != tr.issued {
			return nil, fmt.Errorf("shard %d: %s conservation violated: issued=%d admitted=%d",
				shardIdx, tr.name, tr.issued, tm.Invocations)
		}
		out.inv += tm.Invocations
		out.cold += tm.ColdServed
		out.warm += tm.WarmServed
		out.errs += tm.Errors
		out.instSec += tm.InstanceSeconds
		if tr.sk.Count() > 0 {
			if err := out.sk.Merge(tr.sk); err != nil {
				return nil, fmt.Errorf("shard %d: %w", shardIdx, err)
			}
		}
		u, ok := c.FunctionUsage(tr.name)
		if !ok {
			return nil, fmt.Errorf("shard %d: %s has no usage", shardIdx, tr.name)
		}
		tenantSum.Add(u)
		if opts.top > 0 {
			stat := TenantStat{
				Name:        tr.name,
				Invocations: tm.Invocations,
				ColdServed:  tm.ColdServed,
				Errors:      tm.Errors,
			}
			if tr.sk.Count() > 0 {
				stat.P99 = tr.sk.Quantile(0.99)
			}
			out.tenants = append(out.tenants, stat)
		}
	}
	if dag != nil {
		for _, node := range dag.Nodes {
			u, ok := c.FunctionUsage(node.Name)
			if !ok {
				return nil, fmt.Errorf("shard %d: app node %s has no usage", shardIdx, node.Name)
			}
			out.appUsage.Add(u)
		}
		tenantSum.Add(out.appUsage)
	}
	out.usage = c.Usage()
	// Billing conservation, live in the experiment: per-tenant usage must
	// sum to the fleet meter (identical adds land in both), up to float
	// association noise.
	if err := usageConserved(tenantSum, out.usage); err != nil {
		return nil, fmt.Errorf("shard %d: %w", shardIdx, err)
	}
	m := c.Metrics()
	out.expirations = m.Expirations
	out.suspends = m.Suspends
	out.resumes = m.Resumes
	return out, nil
}

// usageConserved checks that per-tenant usage sums to the fleet total.
func usageConserved(sum, fleet econ.Usage) error {
	if sum.Requests != fleet.Requests {
		return fmt.Errorf("request conservation violated: tenants=%d fleet=%d", sum.Requests, fleet.Requests)
	}
	close := func(a, b float64) bool {
		diff := math.Abs(a - b)
		return diff <= 1e-6*math.Max(math.Abs(a), math.Abs(b))+1e-12
	}
	if !close(sum.BusyGBms, fleet.BusyGBms) ||
		!close(sum.IdleGBms, fleet.IdleGBms) ||
		!close(sum.SuspendedGBms, fleet.SuspendedGBms) {
		return fmt.Errorf("usage conservation violated: tenants=%+v fleet=%+v", sum, fleet)
	}
	return nil
}

// WriteCostReport renders the sweep as a table: one row per (policy, plan)
// cell, Pareto-optimal cells starred within their plan.
func WriteCostReport(w io.Writer, res *CostResult) {
	fmt.Fprintf(w, "cost sweep: provider=%s tenants=%d duration=%v shards=%d seed=%d",
		res.Provider, res.Tenants, res.Duration, res.Shards, res.Seed)
	if res.Workflow != "" {
		fmt.Fprintf(w, " workflow=%s", res.Workflow)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-16s %-12s %11s %8s %8s %8s %12s %11s %10s %7s\n",
		"policy", "plan", "requests", "cold%", "suspends", "resumes", "total$", "$/Mreq", "p99", "pareto")
	for _, p := range res.Points {
		for _, cell := range p.Plans {
			pareto := ""
			if cell.Pareto {
				pareto = "*"
			}
			fmt.Fprintf(w, "%-16s %-12s %11d %7.3f%% %8d %8d %12.6f %11.4f %10v %7s\n",
				p.Policy, cell.Plan, p.Usage.Requests, p.ColdRate*100, p.Suspends, p.Resumes,
				cell.Cost.Total, cell.CostPerMReq, cell.P99.Round(time.Millisecond), pareto)
		}
	}
	if res.Workflow != "" {
		fmt.Fprintf(w, "\nworkflow app (%s) cost per thousand runs:\n", res.Workflow)
		fmt.Fprintf(w, "%-16s %-12s %9s %8s %12s %12s %10s\n",
			"policy", "plan", "completed", "failed", "app-total$", "$/Kruns", "mk-p99")
		for _, p := range res.Points {
			if p.App == nil {
				continue
			}
			for _, cell := range p.Plans {
				fmt.Fprintf(w, "%-16s %-12s %9d %8d %12.6f %12.6f %10v\n",
					p.Policy, cell.Plan, p.App.Completed, p.App.Failed,
					cell.AppTotal, cell.AppPerKRuns, p.App.MakespanP99.Round(time.Millisecond))
			}
		}
	}
}

// WriteCostCSV writes one row per (policy, plan) cell.
func WriteCostCSV(w io.Writer, res *CostResult) error {
	if _, err := fmt.Fprintln(w, "policy,plan,requests,cold_rate,errors,suspends,resumes,busy_gbms,idle_gbms,suspended_gbms,total_usd,usd_per_mreq,p99_ms,pareto,app_total_usd,app_usd_per_k_runs"); err != nil {
		return err
	}
	for _, p := range res.Points {
		for _, cell := range p.Plans {
			pareto := 0
			if cell.Pareto {
				pareto = 1
			}
			if _, err := fmt.Fprintf(w, "%s,%s,%d,%.6f,%d,%d,%d,%.3f,%.3f,%.3f,%.8f,%.6f,%.3f,%d,%.8f,%.8f\n",
				p.Policy, cell.Plan, p.Usage.Requests, p.ColdRate, p.Errors, p.Suspends, p.Resumes,
				p.Usage.BusyGBms, p.Usage.IdleGBms, p.Usage.SuspendedGBms,
				cell.Cost.Total, cell.CostPerMReq,
				float64(cell.P99)/float64(time.Millisecond), pareto,
				cell.AppTotal, cell.AppPerKRuns); err != nil {
				return err
			}
		}
	}
	return nil
}
