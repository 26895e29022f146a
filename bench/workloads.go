package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"github.com/stellar-repro/stellar/internal/econ"
	"github.com/stellar-repro/stellar/internal/experiments"
	"github.com/stellar-repro/stellar/internal/stats"
	"github.com/stellar-repro/stellar/internal/stats/sketch"
	"github.com/stellar-repro/stellar/internal/trace"
)

// Population parameters shared by the untraced entry points and the
// bench-owned population driver. They are passed explicitly to
// RunTenants/RunCost, so neither side depends on the other's defaults.
const (
	popAlpha       = 0.02
	popMaxConc     = 16
	popIATLo       = time.Second
	popIATHi       = time.Minute
	popResumeDelay = 50 * time.Millisecond
)

// workload is one named benchmark input: a fixed batch of simulator work,
// open-loop in virtual time. Exactly one of series and population is set.
type workload struct {
	name       string
	why        string
	series     *seriesSpec
	population *populationSpec
}

// seriesSpec is a sustained single-function series: RunScale, or RunTrace
// when trace is set.
type seriesSpec struct {
	provider    string
	invocations uint64
	shards      int
	iat         time.Duration
	trace       *trace.Config
}

// populationSpec is a multi-tenant replay swept over control-plane
// policies: RunCost when cost is set, otherwise RunTenants over the
// policies' fixed keep-alives.
type populationSpec struct {
	provider string
	tenants  int
	window   time.Duration
	shards   int
	policies []experiments.CostPolicy
	cost     bool
}

// workloadsAt returns the four workloads with every batch size divided by
// div: 1 for the benchmark, larger for tests. At div 1 one batch takes
// about 1.5 seconds of host time on a 2-vCPU machine.
func workloadsAt(div int) []workload {
	return []workload{
		{
			name: "scale-warm",
			why:  "warm callback fast path: cloud warm stages, des front cache and sketch record; no streams, synthesis, autoscaler or tracer",
			series: &seriesSpec{
				provider:    "aws",
				invocations: 4_000_000 / uint64(div),
				shards:      8,
				iat:         20 * time.Millisecond,
			},
		},
		{
			name: "tenants-keepalive",
			why:  "deep des heap of arrival chains and keep-alive timers, 32k dist streams, azuretrace synthesis, per-tenant sketch merges",
			population: &populationSpec{
				provider: "aws",
				tenants:  4000 / div,
				window:   12 * time.Minute,
				shards:   8,
				policies: mustPolicies("keepalive-1m", "keepalive-5m", "keepalive-10m", "keepalive-20m"),
			},
		},
		{
			name: "cost-autoscale",
			why:  "the tenants lifecycle driven by econ autoscaler ticks and suspend/resume instead of keep-alive expiry",
			population: &populationSpec{
				provider: "aws",
				tenants:  6000 / div,
				window:   8 * time.Minute,
				shards:   8,
				policies: mustPolicies("target-2", "target-8-evict"),
				cost:     true,
			},
		},
		{
			name: "trace-sampled",
			why:  "scale-warm's requests with a 1% tracer installed: every call takes the proc form, exercising trace and goroutine switches",
			series: &seriesSpec{
				provider:    "aws",
				invocations: 800_000 / uint64(div),
				shards:      8,
				iat:         20 * time.Millisecond,
				trace:       &trace.Config{SampleRate: 0.01, SlowestK: 64},
			},
		},
	}
}

func mustPolicies(names ...string) []experiments.CostPolicy {
	out := make([]experiments.CostPolicy, len(names))
	for i, n := range names {
		p, err := experiments.ParseCostPolicy(n)
		if err != nil {
			panic(err) // the names above parse by construction
		}
		out[i] = p
	}
	return out
}

// pinnedDigests are the seed-1 digests of the full-size workloads. A
// mismatch is reported, not fatal: a deliberate change of the simulated
// outputs re-pins them here.
var pinnedDigests = map[string]string{
	"scale-warm":        "73833e4693d7c5ca",
	"tenants-keepalive": "72836020d78878c5",
	"cost-autoscale":    "a7a600a91d0e20a2",
	"trace-sampled":     "fa6578c6aa1dadeb",
}

// run executes one batch through the public experiments entry point.
func (w workload) run(seed int64, workers int) (*outcome, error) {
	if w.series != nil {
		return w.series.run(seed, workers, w.series.invocations)
	}
	return w.population.run(seed, workers, w.population.window)
}

// setup executes the same configuration with zero load: one invocation
// per shard for a series, a 1ns arrival window for a population.
func (w workload) setup(seed int64, workers int) error {
	var err error
	if w.series != nil {
		_, err = w.series.run(seed, workers, uint64(w.series.shards))
	} else {
		_, err = w.population.run(seed, workers, time.Nanosecond)
	}
	return err
}

// replay executes one batch through the bench-owned traced driver.
func (w workload) replay(seed int64, workers int, rt *replayTrace) (*outcome, error) {
	if w.series != nil {
		return replaySeries(w.series, seed, workers, rt)
	}
	return replayPopulation(w.population, seed, workers, rt)
}

func (s *seriesSpec) fn() string {
	if s.trace != nil {
		return "trace"
	}
	return "scale"
}

func (s *seriesSpec) run(seed int64, workers int, n uint64) (*outcome, error) {
	if s.trace == nil {
		res, err := experiments.RunScale(experiments.ScaleOptions{
			Provider: s.provider, Invocations: n, Shards: s.shards,
			Workers: workers, Seed: seed, IAT: s.iat,
		})
		if err != nil {
			return nil, err
		}
		return seriesOutcome(s.provider, n, res.Colds, res.Errors, 0, 0, res.Recorder, res.VirtualTime), nil
	}
	res, err := experiments.RunTrace(experiments.TraceOptions{
		Provider: s.provider, Invocations: n, Shards: s.shards,
		Workers: workers, Seed: seed, IAT: s.iat, Trace: *s.trace,
	})
	if err != nil {
		return nil, err
	}
	return seriesOutcome(s.provider, n, res.Colds, res.Errors, res.Dropped,
		uint64(len(res.Traces)), res.Latencies, res.VirtualTime), nil
}

func (s *populationSpec) run(seed int64, workers int, window time.Duration) (*outcome, error) {
	if s.cost {
		res, err := experiments.RunCost(experiments.CostOptions{
			Provider: s.provider, Tenants: s.tenants, Duration: window, Shards: s.shards,
			Workers: workers, Seed: seed, Policies: s.policies,
			MeanIATLo: popIATLo, MeanIATHi: popIATHi, Alpha: popAlpha,
			MaxConcurrency: popMaxConc, ResumeDelay: popResumeDelay,
		})
		if err != nil {
			return nil, err
		}
		out := &outcome{}
		for i := range res.Points {
			p := &res.Points[i]
			pt := point{
				Name: p.Policy, Invocations: p.Invocations, Colds: p.ColdServed, Warm: p.WarmServed,
				Errors: p.Errors, Expirations: p.Expirations, Suspends: p.Suspends, Resumes: p.Resumes,
				InstanceSeconds: p.InstanceSeconds, Usage: p.Usage, Virtual: p.VirtualTime,
			}
			if sk := p.LatencySketch(); sk.Count() > 0 {
				pt.setDistribution(sk)
			}
			out.add(pt)
		}
		return out, nil
	}
	kas := make([]time.Duration, len(s.policies))
	for i, p := range s.policies {
		kas[i] = p.KeepAlive
	}
	res, err := experiments.RunTenants(experiments.TenantsOptions{
		Provider: s.provider, Tenants: s.tenants, Duration: window, Shards: s.shards,
		Workers: workers, Seed: seed, KeepAlives: kas,
		MeanIATLo: popIATLo, MeanIATHi: popIATHi, Alpha: popAlpha, MaxConcurrency: popMaxConc,
	})
	if err != nil {
		return nil, err
	}
	out := &outcome{}
	for i, p := range res.Points {
		out.add(point{
			Name: s.policies[i].Name, Invocations: p.Invocations, Colds: p.ColdServed, Warm: p.WarmServed,
			Errors: p.Errors, Expirations: p.Expirations, InstanceSeconds: p.InstanceSeconds,
			Latency: p.Latency, Virtual: p.VirtualTime,
		})
	}
	return out, nil
}

// outcome is the simulated result of one batch, reduced to what the public
// result types expose. The untraced run and the traced replay must produce
// equal outcomes; the digest is how the benchmark checks that.
type outcome struct {
	// Invocations counts issued invocations; Failed counts the simulated
	// errors among them.
	Invocations uint64  `json:"invocations"`
	Failed      uint64  `json:"failed"`
	Points      []point `json:"points"`
}

// point is one series, or one policy of a population sweep.
type point struct {
	Name            string        `json:"name"`
	Invocations     uint64        `json:"invocations"`
	Colds           uint64        `json:"colds"`
	Warm            uint64        `json:"warm"`
	Errors          uint64        `json:"errors"`
	Expirations     uint64        `json:"expirations"`
	Suspends        uint64        `json:"suspends"`
	Resumes         uint64        `json:"resumes"`
	Retained        uint64        `json:"retained"`
	Dropped         uint64        `json:"dropped"`
	InstanceSeconds float64       `json:"instance_seconds"`
	Usage           econ.Usage    `json:"usage"`
	Virtual         time.Duration `json:"virtual_ns"`
	Latency         stats.Summary `json:"latency"`
	// Quantiles are p50, p99 and p99.9 in exact ns, where the result
	// exposes its whole distribution.
	Quantiles []time.Duration `json:"quantiles,omitempty"`
	// Sketch is the merged sketch, where the result exposes one.
	Sketch *sketch.Record `json:"sketch,omitempty"`
	// LatencySum is the sum of every latency of an exact sample.
	LatencySum time.Duration `json:"latency_sum_ns,omitempty"`
}

func (o *outcome) add(p point) {
	o.Invocations += p.Invocations
	o.Failed += p.Errors
	o.Points = append(o.Points, p)
}

// setDistribution fills the latency fields from a whole distribution.
func (p *point) setDistribution(r sketch.Recorder) {
	p.Latency = r.Summarize()
	p.Quantiles = sketch.Quantiles(r, 0.50, 0.99, 0.999)
	switch r := r.(type) {
	case *sketch.Sketch:
		p.Sketch = r.Record()
	case *stats.Sample:
		for _, v := range r.Values() {
			p.LatencySum += v
		}
	}
}

// seriesOutcome reduces a series result; the untraced run and the series
// driver share it.
func seriesOutcome(provider string, n, colds, errors, dropped, retained uint64, rec sketch.Recorder, virtual time.Duration) *outcome {
	p := point{
		Name: provider, Invocations: n, Colds: colds, Errors: errors,
		Dropped: dropped, Retained: retained, Virtual: virtual,
	}
	p.setDistribution(rec)
	out := &outcome{}
	out.add(p)
	return out
}

// digest fingerprints the outcome: 16 hex digits of the SHA-256 of its JSON.
func (o *outcome) digest() (string, error) {
	b, err := json.Marshal(o)
	if err != nil {
		return "", fmt.Errorf("digest: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8]), nil
}
