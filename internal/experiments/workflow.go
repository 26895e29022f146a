package experiments

import (
	"fmt"
	"io"
	"sort"
	"time"

	"github.com/stellar-repro/stellar/internal/cloud"
	"github.com/stellar-repro/stellar/internal/des"
	"github.com/stellar-repro/stellar/internal/dist"
	"github.com/stellar-repro/stellar/internal/runner"
	"github.com/stellar-repro/stellar/internal/stats"
	"github.com/stellar-repro/stellar/internal/stats/sketch"
	"github.com/stellar-repro/stellar/internal/trace"
	"github.com/stellar-repro/stellar/internal/workflow"
)

// WorkflowOptions configures an orchestrated multi-function workflow series
// against one simulated provider: every arrival launches one instance of a
// topology preset, and the series reports workflow-level makespans, per-edge
// transfer tails, critical-path shares, and join-barrier accounting.
type WorkflowOptions struct {
	// Provider is the provider profile under test.
	Provider string
	// Topology is the preset id (chain-N, fanout-K, diamond, mapreduce).
	Topology string
	// Workflows is the number of instances, split across Shards.
	Workflows uint64
	// Shards is the number of independent simulation shards (default 8).
	Shards int
	// Workers bounds concurrently running shards (0 = GOMAXPROCS). Changes
	// wall-clock time only, never results.
	Workers int
	// Seed roots all randomness. Workflow sampling draws from its own
	// "<provider>/workflow" stream, so enabling tracing never shifts the
	// simulation's other draws.
	Seed int64
	// IAT is the inter-arrival time between bursts within one shard
	// (default 100ms).
	IAT time.Duration
	// Burst is the number of simultaneous workflow launches per arrival
	// (default 1).
	Burst int
	// Mode is the invocation mode applied to every edge (sync | async).
	Mode workflow.Mode
	// Transfer is the data-passing mode applied to every edge
	// (inline | blobstore).
	Transfer workflow.Transfer
	// PayloadBytes is the payload carried along every edge.
	PayloadBytes int64
	// Need, when positive, is the first-K straggler policy applied to every
	// fan-in node (zero waits for all branches).
	Need int
	// ExecTime is the per-node busy-spin time (0 = instant handler).
	ExecTime time.Duration
	// Sample is the per-workflow trace-sampling probability in [0, 1]; a
	// sampled instance yields one span per node, tagged with the workflow id
	// and firing parent, forming one trace tree per workflow.
	Sample float64
	// TraceRing bounds retained traces per shard (0 = trace default).
	TraceRing int
	// Alpha is the per-edge sketch relative-accuracy target (0 = default).
	Alpha float64
}

func (o WorkflowOptions) normalized() WorkflowOptions {
	if o.Shards == 0 {
		o.Shards = 8
	}
	if o.IAT == 0 {
		o.IAT = 100 * time.Millisecond
	}
	if o.Burst == 0 {
		o.Burst = 1
	}
	return o
}

func (o WorkflowOptions) validate() error {
	if o.Provider == "" {
		return fmt.Errorf("workflow: provider is required")
	}
	if o.Workflows == 0 {
		return fmt.Errorf("workflow: need at least one workflow")
	}
	if err := validateSeries("workflow", o.Shards, o.IAT, o.Burst, o.ExecTime); err != nil {
		return err
	}
	if uint64(o.Shards) > o.Workflows {
		return fmt.Errorf("workflow: %d shards for %d workflows", o.Shards, o.Workflows)
	}
	if !(o.Sample >= 0 && o.Sample <= 1) {
		return fmt.Errorf("workflow: sample rate %v out of [0,1]", o.Sample)
	}
	_, err := o.dag()
	return err
}

// dag builds the preset topology for these options.
func (o WorkflowOptions) dag() (*workflow.DAG, error) {
	return workflow.Preset(o.Topology, workflow.PresetSpec{
		Mode:         o.Mode,
		Transfer:     o.Transfer,
		PayloadBytes: o.PayloadBytes,
		Need:         o.Need,
	})
}

// WorkflowPathStat is one observed critical path's share of completed
// workflows.
type WorkflowPathStat struct {
	// Label is the path rendered as "a -> b -> c".
	Label string
	// Count is how many completed workflows resolved along this path.
	Count uint64
	// MeanMakespan is those workflows' mean makespan.
	MeanMakespan time.Duration
}

// WorkflowResult is the merged outcome of a workflow series.
type WorkflowResult struct {
	Provider  string
	Topology  string
	Mode      workflow.Mode
	Transfer  workflow.Transfer
	Payload   int64
	Workflows uint64
	Shards    int

	// DAG is the executed topology (node and edge structure for reports).
	DAG *workflow.DAG

	// Completed and Failed count workflow instances; NodeFailures counts
	// node invocations that errored.
	Completed    uint64
	Failed       uint64
	NodeFailures uint64
	// Colds counts cold-served node invocations; Dropped counts sampled
	// traces lost to ring overwrites.
	Colds   uint64
	Dropped uint64

	// Makespans holds completed workflows' launch-to-last-node durations;
	// ClientLats the root invocations' client-observed round trips.
	Makespans  *stats.Sample
	ClientLats *stats.Sample
	// EdgeSketches holds each edge's observed transfer times (consumer
	// receive minus producer send), aligned with DAG.Edges.
	EdgeSketches []*sketch.Sketch
	// Barriers aggregates per-node join counters, aligned with DAG.Nodes.
	Barriers []workflow.BarrierMetrics
	// Paths lists observed critical paths, most frequent first.
	Paths []WorkflowPathStat

	// Traces are the retained workflow span trees, shard-tagged and merged
	// in shard order.
	Traces []trace.RequestRecord

	// CloudMetrics holds each shard's cloud counters, in shard order —
	// retained unsummed so differential tests compare them exactly.
	CloudMetrics []cloud.Metrics

	// VirtualTime is the longest shard's simulated duration.
	VirtualTime time.Duration

	paths map[string]*wfPathAgg
}

// Attribution computes the per-stage tail attribution of the retained node
// spans (nil quantiles = trace.DefaultQuantiles).
func (r *WorkflowResult) Attribution(quantiles []float64) *trace.Attribution {
	return trace.Attribute(r.Traces, quantiles)
}

type wfPathAgg struct {
	count uint64
	sum   time.Duration
}

// workflowShard is one shard's outcome.
type workflowShard struct {
	index        int
	makespans    *stats.Sample
	clients      *stats.Sample
	edges        []*sketch.Sketch
	barriers     []workflow.BarrierMetrics
	paths        map[string]*wfPathAgg
	completed    uint64
	failed       uint64
	nodeFailures uint64
	colds        uint64
	dropped      uint64
	traces       []trace.RequestRecord
	metrics      cloud.Metrics
	virtual      time.Duration
}

// RunWorkflow drives one workflow series: Shards independent simulated
// clouds, each deploying one function per DAG node and launching instances
// through the workflow executor, merged in shard-index order so results are
// byte-identical at any Workers setting. Sampled instances produce one trace
// tree each; every retained span is checked against the tiling invariant.
func RunWorkflow(opts WorkflowOptions) (*WorkflowResult, error) {
	opts = opts.normalized()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	dag, err := opts.dag()
	if err != nil {
		return nil, err
	}
	res := &WorkflowResult{
		Provider:     opts.Provider,
		Topology:     opts.Topology,
		Mode:         opts.Mode,
		Transfer:     opts.Transfer,
		Payload:      opts.PayloadBytes,
		Workflows:    opts.Workflows,
		Shards:       opts.Shards,
		DAG:          dag,
		Makespans:    stats.NewSample(int(opts.Workflows)),
		ClientLats:   stats.NewSample(int(opts.Workflows)),
		EdgeSketches: make([]*sketch.Sketch, len(dag.Edges)),
		Barriers:     make([]workflow.BarrierMetrics, len(dag.Nodes)),
		paths:        make(map[string]*wfPathAgg),
	}
	for i := range res.EdgeSketches {
		res.EdgeSketches[i] = sketch.New(opts.Alpha)
	}
	pool := runner.Pool{Workers: opts.Workers, Seed: opts.Seed}
	_, err = runner.MapReduce(pool, opts.Shards, res,
		func(sh runner.Shard) (*workflowShard, error) {
			return runWorkflowShard(opts, sh)
		},
		mergeWorkflowShard)
	if err != nil {
		return nil, err
	}
	res.Paths = make([]WorkflowPathStat, 0, len(res.paths))
	for label, agg := range res.paths {
		res.Paths = append(res.Paths, WorkflowPathStat{
			Label:        label,
			Count:        agg.count,
			MeanMakespan: agg.sum / time.Duration(agg.count),
		})
	}
	sort.Slice(res.Paths, func(i, j int) bool {
		if res.Paths[i].Count != res.Paths[j].Count {
			return res.Paths[i].Count > res.Paths[j].Count
		}
		return res.Paths[i].Label < res.Paths[j].Label
	})
	if res.Completed == 0 {
		return nil, fmt.Errorf("workflow: all %d instances failed", opts.Workflows)
	}
	return res, nil
}

// mergeWorkflowShard folds one shard into the accumulated result, in shard
// order.
func mergeWorkflowShard(res *WorkflowResult, sh *workflowShard) (*WorkflowResult, error) {
	res.Completed += sh.completed
	res.Failed += sh.failed
	res.NodeFailures += sh.nodeFailures
	res.Colds += sh.colds
	res.Dropped += sh.dropped
	res.Makespans.Merge(sh.makespans)
	res.ClientLats.Merge(sh.clients)
	for i, sk := range sh.edges {
		if err := res.EdgeSketches[i].Merge(sk); err != nil {
			return nil, fmt.Errorf("workflow shard %d: edge %d: %w", sh.index, i, err)
		}
	}
	for i, b := range sh.barriers {
		res.Barriers[i].Started += b.Started
		res.Barriers[i].Completed += b.Completed
		res.Barriers[i].Dropped += b.Dropped
		res.Barriers[i].Failed += b.Failed
		res.Barriers[i].Skipped += b.Skipped
	}
	for label, agg := range sh.paths {
		dst := res.paths[label]
		if dst == nil {
			dst = &wfPathAgg{}
			res.paths[label] = dst
		}
		dst.count += agg.count
		dst.sum += agg.sum
	}
	res.Traces = append(res.Traces, sh.traces...)
	res.CloudMetrics = append(res.CloudMetrics, sh.metrics)
	if sh.virtual > res.VirtualTime {
		res.VirtualTime = sh.virtual
	}
	return res, nil
}

// runWorkflowShard runs one shard's workflow arrivals.
func runWorkflowShard(opts WorkflowOptions, sh runner.Shard) (*workflowShard, error) {
	dag, err := opts.dag()
	if err != nil {
		return nil, err
	}
	n := shardInvocations(opts.Workflows, opts.Shards, sh.Index)
	out := &workflowShard{
		index:     sh.Index,
		makespans: stats.NewSample(int(n)),
		clients:   stats.NewSample(int(n)),
		edges:     make([]*sketch.Sketch, len(dag.Edges)),
		barriers:  make([]workflow.BarrierMetrics, len(dag.Nodes)),
		paths:     make(map[string]*wfPathAgg),
	}
	for i := range out.edges {
		out.edges[i] = sketch.New(opts.Alpha)
	}
	if n == 0 {
		return out, nil
	}

	e, err := newEnv(opts.Provider, sh.Seed)
	if err != nil {
		return nil, fmt.Errorf("workflow shard %d: %w", sh.Index, err)
	}
	defer e.close()
	c := e.cloud
	for _, node := range dag.Nodes {
		if err := c.Deploy(cloud.FunctionSpec{
			Name:     node.Name,
			Runtime:  cloud.RuntimePython,
			Method:   cloud.DeployZIP,
			ExecTime: opts.ExecTime,
		}); err != nil {
			return nil, fmt.Errorf("workflow shard %d: %w", sh.Index, err)
		}
	}
	c.SetLatencyRecorder(out.clients)

	// The tracer is handed to the executor, not installed on the cloud: only
	// workflow spans are recorded, and the sampling decision (one draw per
	// instance from a dedicated stream) never shifts the cloud's own draws.
	var tr *trace.Tracer
	cfg := workflow.Config{Cloud: c, DAG: dag}
	if opts.Sample > 0 {
		tr = trace.New(trace.Config{SampleRate: 1, RingCapacity: opts.TraceRing},
			dist.NewStreams(sh.Seed).Stream(opts.Provider+"/workflow-trace"))
		cfg.Tracer = tr
		cfg.SampleRate = opts.Sample
		cfg.Rng = dist.NewStreams(sh.Seed).Stream(opts.Provider + "/workflow")
	}
	ex, err := workflow.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("workflow shard %d: %w", sh.Index, err)
	}

	runOne := func(p *des.Proc) {
		res, err := ex.Run(p)
		if err != nil {
			out.failed++
		} else {
			out.completed++
			out.makespans.Add(res.Makespan)
			label := ex.PathLabel(res.Critical)
			agg := out.paths[label]
			if agg == nil {
				agg = &wfPathAgg{}
				out.paths[label] = agg
			}
			agg.count++
			agg.sum += res.Makespan
		}
		// Edge transfers observed before a failure still count: the edge's
		// tail is a property of the delivery, not of the whole instance.
		for i, d := range res.EdgeTransfers {
			if d >= 0 {
				out.edges[i].Add(d)
			}
		}
	}
	// Only the arrival clock is a callback: each workflow instance needs a
	// proc, because sync edges block inside serving windows.
	eng := e.eng
	burstArrivals(eng, n, opts.Burst, opts.IAT, func() { eng.Spawn("workflow/run", runOne) })
	eng.Run(0)

	m := ex.Metrics()
	if m.Workflows != n || m.Completed != out.completed || m.Failed != out.failed {
		return nil, fmt.Errorf("workflow shard %d: executor accounted %d/%d/%d, shard saw %d/%d/%d",
			sh.Index, m.Workflows, m.Completed, m.Failed, n, out.completed, out.failed)
	}
	copy(out.barriers, m.Barriers)
	out.nodeFailures = m.NodeFailures
	out.metrics = c.Metrics()
	out.colds = out.metrics.ColdServed
	out.virtual = eng.Now()
	if tr != nil {
		out.dropped = tr.Dropped()
		out.traces = tr.Drain()
		for i := range out.traces {
			out.traces[i].Shard = sh.Index
			if err := out.traces[i].Validate(); err != nil {
				return nil, fmt.Errorf("workflow shard %d: %w", sh.Index, err)
			}
		}
	}
	// Sorted here, on the worker, so the reducer only merges.
	out.makespans.Sort()
	out.clients.Sort()
	return out, nil
}

// WriteWorkflowReport renders the workflow series outcome: headline metrics,
// critical-path shares, the per-edge transfer-tail table, join-barrier
// accounting, and the per-stage attribution of the retained node spans.
func WriteWorkflowReport(w io.Writer, res *WorkflowResult) {
	fmt.Fprintf(w, "workflow: topology=%s provider=%s workflows=%d shards=%d mode=%s transfer=%s payload=%dB\n",
		res.Topology, res.Provider, res.Workflows, res.Shards, res.Mode, res.Transfer, res.Payload)
	fmt.Fprintf(w, "outcome: completed=%d failed=%d node-failures=%d colds=%d virtual=%v\n",
		res.Completed, res.Failed, res.NodeFailures, res.Colds, res.VirtualTime.Round(time.Second))
	if res.Makespans.Count() > 0 {
		sum := res.Makespans.Summarize()
		fmt.Fprintf(w, "makespan: median=%v p95=%v p99=%v max=%v tmr=%.1f\n",
			sum.Median.Round(time.Millisecond), sum.P95.Round(time.Millisecond),
			sum.P99.Round(time.Millisecond), sum.Max.Round(time.Millisecond), sum.TMR)
	}
	if res.ClientLats.Count() > 0 {
		sum := res.ClientLats.Summarize()
		fmt.Fprintf(w, "client:   median=%v p95=%v p99=%v max=%v tmr=%.1f\n",
			sum.Median.Round(time.Millisecond), sum.P95.Round(time.Millisecond),
			sum.P99.Round(time.Millisecond), sum.Max.Round(time.Millisecond), sum.TMR)
	}
	if len(res.Paths) > 0 {
		fmt.Fprintf(w, "critical paths:\n")
		for _, p := range res.Paths {
			fmt.Fprintf(w, "  %5.1f%%  %-40s  mean makespan %v (%d runs)\n",
				100*float64(p.Count)/float64(res.Completed), p.Label,
				p.MeanMakespan.Round(time.Millisecond), p.Count)
		}
	}
	fmt.Fprintf(w, "edges (transfer = consumer receive - producer send):\n")
	fmt.Fprintf(w, "  %-28s %8s %10s %10s %10s\n", "edge", "count", "p50", "p99", "max")
	for i, edge := range res.DAG.Edges {
		sk := res.EdgeSketches[i]
		if sk.Count() == 0 {
			fmt.Fprintf(w, "  %-28s %8d %10s %10s %10s\n", edge.Label(), 0, "-", "-", "-")
			continue
		}
		fmt.Fprintf(w, "  %-28s %8d %10v %10v %10v\n", edge.Label(), sk.Count(),
			sk.Quantile(0.5).Round(time.Microsecond),
			sk.Quantile(0.99).Round(time.Microsecond),
			sk.Max().Round(time.Microsecond))
	}
	joins := false
	for i, node := range res.DAG.Nodes {
		indeg := 0
		for _, edge := range res.DAG.Edges {
			if edge.To == node.Name {
				indeg++
			}
		}
		b := res.Barriers[i]
		if indeg < 2 && b.Dropped == 0 && b.Failed == 0 && b.Skipped == 0 {
			continue
		}
		if !joins {
			fmt.Fprintf(w, "barriers (started = completed + dropped + failed):\n")
			joins = true
		}
		fmt.Fprintf(w, "  %-12s started=%d completed=%d dropped=%d failed=%d skipped=%d\n",
			node.Name, b.Started, b.Completed, b.Dropped, b.Failed, b.Skipped)
	}
	if res.Traces != nil || res.Dropped > 0 {
		fmt.Fprintf(w, "traces: retained=%d dropped=%d\n", len(res.Traces), res.Dropped)
	}
	if len(res.Traces) > 0 {
		if a := res.Attribution(nil); a != nil {
			a.Write(w)
		}
	}
}

// WorkflowSweepResult holds the edge-mode x payload-size sweep for one
// topology.
type WorkflowSweepResult struct {
	// Cells are the per-combination series, in sweep order (mode-major,
	// then transfer, then payload).
	Cells []*WorkflowResult
}

// RunWorkflowSweep sweeps one topology over edge invocation modes,
// data-passing modes, and payload sizes (nil slices select both modes and a
// 1KB/64KB/1MB payload ladder). Cells run sequentially — each is already
// sharded — so the sweep is deterministic for any Workers setting.
func RunWorkflowSweep(opts WorkflowOptions, modes []workflow.Mode, transfers []workflow.Transfer, payloads []int64) (*WorkflowSweepResult, error) {
	if len(modes) == 0 {
		modes = []workflow.Mode{workflow.ModeSync, workflow.ModeAsync}
	}
	if len(transfers) == 0 {
		transfers = []workflow.Transfer{workflow.TransferInline, workflow.TransferBlobstore}
	}
	if len(payloads) == 0 {
		payloads = []int64{1 << 10, 64 << 10, 1 << 20}
	}
	res := &WorkflowSweepResult{}
	for _, m := range modes {
		for _, t := range transfers {
			for _, pb := range payloads {
				cell := opts
				cell.Mode, cell.Transfer, cell.PayloadBytes = m, t, pb
				run, err := RunWorkflow(cell)
				if err != nil {
					return nil, fmt.Errorf("workflow sweep %s/%s/%dB: %w", m, t, pb, err)
				}
				res.Cells = append(res.Cells, run)
			}
		}
	}
	return res, nil
}

// WriteWorkflowSweepReport renders the sweep as one row per cell.
func WriteWorkflowSweepReport(w io.Writer, res *WorkflowSweepResult) {
	if len(res.Cells) == 0 {
		return
	}
	fmt.Fprintf(w, "## workflow — %s edge-mode x payload sweep\n\n", res.Cells[0].Topology)
	fmt.Fprintf(w, "%-6s %-10s %10s %12s %12s %12s %12s\n",
		"mode", "transfer", "payload", "mk.p50", "mk.p99", "client.p99", "edge.p99max")
	for _, cell := range res.Cells {
		mk := cell.Makespans.Summarize()
		cl := cell.ClientLats.Summarize()
		var worst time.Duration
		for _, sk := range cell.EdgeSketches {
			if sk.Count() == 0 {
				continue
			}
			if q := sk.Quantile(0.99); q > worst {
				worst = q
			}
		}
		fmt.Fprintf(w, "%-6s %-10s %10d %12v %12v %12v %12v\n",
			cell.Mode, cell.Transfer, cell.Payload,
			mk.Median.Round(time.Millisecond), mk.P99.Round(time.Millisecond),
			cl.P99.Round(time.Millisecond), worst.Round(time.Millisecond))
	}
}
