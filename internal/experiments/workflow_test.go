package experiments

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/stellar-repro/stellar/internal/cloud"
	"github.com/stellar-repro/stellar/internal/des"
	"github.com/stellar-repro/stellar/internal/runner"
	"github.com/stellar-repro/stellar/internal/stats"
	"github.com/stellar-repro/stellar/internal/stats/sketch"
	"github.com/stellar-repro/stellar/internal/workflow"
)

// chainDiffOpts is the shared cell for the workflow-vs-hand-rolled-chain
// differential: a 2-node chain, fault-free, untraced (the hand-rolled chain
// never samples workflow spans).
func chainDiffOpts(workers int, transfer workflow.Transfer) WorkflowOptions {
	return WorkflowOptions{
		Provider:     "aws",
		Topology:     "chain-2",
		Workflows:    240,
		Shards:       4,
		Workers:      workers,
		Seed:         1,
		IAT:          20 * time.Millisecond,
		Burst:        2,
		Mode:         workflow.ModeSync,
		Transfer:     transfer,
		PayloadBytes: 64 << 10,
		ExecTime:     2 * time.Millisecond,
	}
}

// chainShard is one baseline shard's outcome: the client-observed latencies
// and the cloud's full counter set.
type chainShard struct {
	clients *stats.Sample
	metrics cloud.Metrics
}

// runHandRolledChainShard mirrors runWorkflowShard for the static chain: the
// same burst clock drives external invocations of a producer whose
// FunctionSpec.Chain — not a workflow continuation — invokes the consumer.
func runHandRolledChainShard(opts WorkflowOptions, sh runner.Shard) (*chainShard, error) {
	n := shardInvocations(opts.Workflows, opts.Shards, sh.Index)
	out := &chainShard{clients: stats.NewSample(int(n))}
	if n == 0 {
		return out, nil
	}
	e, err := newEnv(opts.Provider, sh.Seed)
	if err != nil {
		return nil, err
	}
	defer e.close()
	c := e.cloud
	transfer := cloud.TransferInline
	if opts.Transfer == workflow.TransferBlobstore {
		transfer = cloud.TransferStorage
	}
	if err := c.Deploy(cloud.FunctionSpec{
		Name:     "n0",
		Runtime:  cloud.RuntimePython,
		Method:   cloud.DeployZIP,
		ExecTime: opts.ExecTime,
		Chain:    &cloud.ChainSpec{Next: "n1", Transfer: transfer, PayloadBytes: opts.PayloadBytes},
	}); err != nil {
		return nil, err
	}
	if err := c.Deploy(cloud.FunctionSpec{
		Name:     "n1",
		Runtime:  cloud.RuntimePython,
		Method:   cloud.DeployZIP,
		ExecTime: opts.ExecTime,
	}); err != nil {
		return nil, err
	}
	c.SetLatencyRecorder(out.clients)

	runOne := func(p *des.Proc) {
		_, _ = c.Invoke(p, &cloud.Request{Fn: "n0"})
	}
	eng := e.eng
	burstArrivals(eng, n, opts.Burst, opts.IAT, func() { eng.Spawn("workflow/run", runOne) })
	eng.Run(0)
	out.metrics = c.Metrics()
	return out, nil
}

// TestWorkflowChainMatchesHandRolledChain is the workflow engine's ground
// truth: a chain-2 workflow must be byte-identical — every client-observed
// latency, the merged latency sketch, and the full cloud counter set — to
// the hand-rolled two-function chain it generalizes, for both transfer
// modes and any worker count. The continuation seam runs exactly where
// FunctionSpec.Chain's block runs, with the same operation order; any drift
// between the two paths lands here.
func TestWorkflowChainMatchesHandRolledChain(t *testing.T) {
	for _, transfer := range []workflow.Transfer{workflow.TransferInline, workflow.TransferBlobstore} {
		for _, workers := range []int{1, 8} {
			transfer, workers := transfer, workers
			t.Run(fmt.Sprintf("%s/workers=%d", transfer, workers), func(t *testing.T) {
				t.Parallel()
				opts := chainDiffOpts(workers, transfer)
				res, err := RunWorkflow(opts)
				if err != nil {
					t.Fatal(err)
				}
				if res.Failed != 0 {
					t.Fatalf("%d workflow instances failed in a fault-free run", res.Failed)
				}

				type baseline struct {
					clients *stats.Sample
					metrics []cloud.Metrics
				}
				base := &baseline{clients: stats.NewSample(int(opts.Workflows))}
				pool := runner.Pool{Workers: opts.Workers, Seed: opts.Seed}
				_, err = runner.MapReduce(pool, opts.Shards, base,
					func(sh runner.Shard) (*chainShard, error) {
						return runHandRolledChainShard(opts, sh)
					},
					func(acc *baseline, sh *chainShard) (*baseline, error) {
						acc.clients.AddAll(sh.clients.Values())
						acc.metrics = append(acc.metrics, sh.metrics)
						return acc, nil
					})
				if err != nil {
					t.Fatal(err)
				}

				values := base.clients.Values()
				if got := res.ClientLats.Values(); !reflect.DeepEqual(got, values) {
					t.Fatalf("client latencies diverged: workflow %d values, chain %d values (first workflow=%v chain=%v)",
						len(got), len(values), head(got), head(values))
				}
				if !reflect.DeepEqual(res.CloudMetrics, base.metrics) {
					t.Fatalf("cloud metrics diverged:\nworkflow: %+v\nchain:    %+v", res.CloudMetrics, base.metrics)
				}
				wfSketch, chSketch := sketch.New(0), sketch.New(0)
				for _, v := range res.ClientLats.Values() {
					wfSketch.Add(v)
				}
				for _, v := range values {
					chSketch.Add(v)
				}
				if !reflect.DeepEqual(wfSketch.Record(), chSketch.Record()) {
					t.Fatal("latency sketches diverged despite identical values")
				}
			})
		}
	}
}

func head(v []time.Duration) time.Duration {
	if len(v) == 0 {
		return -1
	}
	return v[0]
}

// workflowGoldenOpts is the fixed cell pinned by the preset fingerprints
// and reused by the worker-invariance test: traced, with a
// join-heavy default topology swap-in per test.
func workflowGoldenOpts(topology string, transfer workflow.Transfer, workers int) WorkflowOptions {
	return WorkflowOptions{
		Provider:     "aws",
		Topology:     topology,
		Workflows:    120,
		Shards:       4,
		Workers:      workers,
		Seed:         1,
		IAT:          25 * time.Millisecond,
		Burst:        2,
		Mode:         workflow.ModeSync,
		Transfer:     transfer,
		PayloadBytes: 64 << 10,
		ExecTime:     3 * time.Millisecond,
		Sample:       0.5,
	}
}

func renderWorkflow(t *testing.T, opts WorkflowOptions) string {
	t.Helper()
	res, err := RunWorkflow(opts)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	WriteWorkflowReport(&b, res)
	return b.String()
}

// TestWorkflowOptionsValidation: nonsense configurations fail fast, and a
// negative arrival-shape option or a NaN sample rate is an error rather
// than a silent default.
func TestWorkflowOptionsValidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*WorkflowOptions)
	}{
		{"missing provider", func(o *WorkflowOptions) { o.Provider = "" }},
		{"zero workflows", func(o *WorkflowOptions) { o.Workflows = 0 }},
		{"more shards than workflows", func(o *WorkflowOptions) { o.Workflows = 2; o.Shards = 4 }},
		{"negative shards", func(o *WorkflowOptions) { o.Shards = -3 }},
		{"negative iat", func(o *WorkflowOptions) { o.IAT = -5 * time.Millisecond }},
		{"negative burst", func(o *WorkflowOptions) { o.Burst = -5 }},
		{"negative exec", func(o *WorkflowOptions) { o.ExecTime = -time.Second }},
		{"negative sample", func(o *WorkflowOptions) { o.Sample = -0.1 }},
		{"sample above one", func(o *WorkflowOptions) { o.Sample = 1.5 }},
		{"NaN sample", func(o *WorkflowOptions) { o.Sample = math.NaN() }},
		{"unknown topology", func(o *WorkflowOptions) { o.Topology = "nonesuch" }},
		{"unknown provider", func(o *WorkflowOptions) { o.Provider = "nonesuch" }},
	}
	for _, tc := range cases {
		opts := workflowGoldenOpts("chain-2", workflow.TransferInline, 1)
		tc.mutate(&opts)
		if _, err := RunWorkflow(opts); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestWorkflowWorkerInvariance pins the acceptance criterion directly: the
// fanout-8 series — critical paths, per-edge transfer tails, and the span
// attribution report — renders byte-identically at Workers=1 and Workers=8,
// for both inline and blobstore edges.
func TestWorkflowWorkerInvariance(t *testing.T) {
	for _, transfer := range []workflow.Transfer{workflow.TransferInline, workflow.TransferBlobstore} {
		transfer := transfer
		t.Run(transfer.String(), func(t *testing.T) {
			t.Parallel()
			serial := renderWorkflow(t, workflowGoldenOpts("fanout-8", transfer, 1))
			parallel := renderWorkflow(t, workflowGoldenOpts("fanout-8", transfer, 8))
			if serial != parallel {
				t.Errorf("fanout-8 %s: Workers=1 and Workers=8 diverged\n--- serial ---\n%s--- parallel ---\n%s",
					transfer, serial, parallel)
			}
		})
	}
}

// workflowGoldenPresets are the four topology presets pinned by committed
// fingerprints (blobstore edges so the fixtures cover payload-store tails).
var workflowGoldenPresets = []string{"chain-4", "fanout-8", "diamond", "mapreduce"}

// TestGoldenWorkflowFingerprints pins each preset's full rendered report to
// a fixture generated with the seed engine, exactly like the figure
// fingerprints: regenerate with -update-golden only for intentional
// statistical changes, and Workers=8 must reproduce the Workers=1 bytes.
func TestGoldenWorkflowFingerprints(t *testing.T) {
	for _, preset := range workflowGoldenPresets {
		preset := preset
		t.Run(preset, func(t *testing.T) {
			t.Parallel()
			path := filepath.Join("testdata", "golden", "workflow-"+preset+".fingerprint")
			fp := renderWorkflow(t, workflowGoldenOpts(preset, workflow.TransferBlobstore, 1))
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(fp), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s", path)
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing fixture (run with -update-golden to regenerate): %v", err)
			}
			if fp != string(want) {
				t.Errorf("%s: Workers=1 output diverged from the seed-engine fixture\n--- got ---\n%s--- want ---\n%s",
					preset, fp, want)
			}
			if fp8 := renderWorkflow(t, workflowGoldenOpts(preset, workflow.TransferBlobstore, 8)); fp8 != string(want) {
				t.Errorf("%s: Workers=8 output diverged from the seed-engine fixture\n--- got ---\n%s--- want ---\n%s",
					preset, fp8, want)
			}
		})
	}
}
