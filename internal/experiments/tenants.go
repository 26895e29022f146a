package experiments

import (
	"fmt"
	"io"
	"math"
	"time"

	"github.com/stellar-repro/stellar/internal/azuretrace"
	"github.com/stellar-repro/stellar/internal/cloud"
	"github.com/stellar-repro/stellar/internal/dist"
	"github.com/stellar-repro/stellar/internal/stats"
)

// TenantsOptions configures a provider-scale multi-tenant trace replay: a
// synthesized Azure-style function population replays concurrently against
// one simulated provider, once per keep-alive policy, producing the
// cold-start-rate vs instance-seconds trade-off frontier a provider's
// keep-alive knob walks (Shahrad et al., ATC'20; §VI-D of the paper for the
// cold-start mechanics).
//
// The sweep is the cost sweep's keep-alive preset: RunTenants runs the same
// population replay as RunCost with one keepalive-<d> policy per swept
// keep-alive, so defaults, validation and the replay itself are shared.
// Tenants are deterministically partitioned across Shards by index; each
// (policy, shard) cell is one isolated simulation whose seed depends only on
// (Seed, shard index), so every policy replays the same arrivals and
// execution times, and results are byte-identical at any Workers setting.
type TenantsOptions struct {
	// Provider is the provider profile under test.
	Provider string
	// Tenants is the synthesized population size.
	Tenants int
	// Duration is the arrival window per shard; invocations still in
	// flight at the window's end run to completion.
	Duration time.Duration
	// Shards splits the population into independent simulations (default 8).
	Shards int
	// Workers bounds concurrently running shard simulations (0 = GOMAXPROCS).
	Workers int
	// Seed roots the population synthesis and every shard's randomness.
	Seed int64
	// KeepAlives is the swept fixed keep-alive axis (default 1m,5m,10m,20m);
	// each must be positive and distinct.
	KeepAlives []time.Duration
	// SlackTick routes keep-alive expiries onto the engine's timer wheel at
	// this tick (0 = exact heap timers).
	SlackTick time.Duration
	// MeanIATLo/Hi bound each tenant's mean inter-arrival time, drawn
	// log-uniformly (default 1s..60s). A tenant's mean IAT is floored at
	// its median execution time so offered per-tenant concurrency stays
	// near one, as in the Azure trace's rare-invocation mass.
	MeanIATLo time.Duration
	MeanIATHi time.Duration
	// Alpha is the per-tenant latency sketch accuracy (default 0.02 —
	// coarser than the scale driver's, keeping each tenant's recorder in
	// the single-digit-KB range).
	Alpha float64
	// MaxConcurrency caps each tenant's live+pending instances (default 16,
	// negative = uncapped).
	MaxConcurrency int
	// Top reports the N worst tenants by p99 per policy (0 = none).
	Top int
	// Engine selects the invocation execution form.
	Engine cloud.EngineMode
}

// costOptions maps the sweep onto the population replay it is a preset of:
// each keep-alive becomes a keepalive-<d> policy, and every other knob
// carries over, defaults included.
func (o TenantsOptions) costOptions() CostOptions {
	kas := o.KeepAlives
	if len(kas) == 0 {
		kas = []time.Duration{time.Minute, 5 * time.Minute, 10 * time.Minute, 20 * time.Minute}
	}
	policies := make([]CostPolicy, len(kas))
	for i, ka := range kas {
		policies[i] = CostPolicy{Name: "keepalive-" + ka.String(), KeepAlive: ka}
	}
	return CostOptions{
		Provider:       o.Provider,
		Tenants:        o.Tenants,
		Duration:       o.Duration,
		Shards:         o.Shards,
		Workers:        o.Workers,
		Seed:           o.Seed,
		Policies:       policies,
		MeanIATLo:      o.MeanIATLo,
		MeanIATHi:      o.MeanIATHi,
		Alpha:          o.Alpha,
		MaxConcurrency: o.MaxConcurrency,
		SlackTick:      o.SlackTick,
		Engine:         o.Engine,
	}
}

// tenantSpec is one synthesized tenant: its execution-time record and its
// arrival rate. The population is built once per sweep, so every policy and
// every shard partition sees the same tenants.
type tenantSpec struct {
	rec     azuretrace.Record
	meanIAT time.Duration
}

// synthesizeTenants builds the population from the root seed only.
func synthesizeTenants(opts CostOptions) []tenantSpec {
	rng := dist.NewStreams(opts.Seed).Stream("tenants/population")
	records := azuretrace.Generate(opts.Tenants, rng)
	pop := make([]tenantSpec, len(records))
	ratio := math.Log(float64(opts.MeanIATHi) / float64(opts.MeanIATLo))
	for i, rec := range records {
		iat := time.Duration(float64(opts.MeanIATLo) * math.Exp(rng.Float64()*ratio))
		if med := rec.Median(); iat < med {
			iat = med
		}
		pop[i] = tenantSpec{rec: rec, meanIAT: iat}
	}
	return pop
}

// TenantStat is one tenant's merged outcome under one policy.
type TenantStat struct {
	Name        string        `json:"name"`
	Invocations uint64        `json:"invocations"`
	ColdServed  uint64        `json:"cold_served"`
	Errors      uint64        `json:"errors"`
	P99         time.Duration `json:"p99_ns"`
}

// TenantsPolicyPoint is one keep-alive policy's merged outcome: the two
// frontier coordinates (cold-start rate, instance-seconds) plus the
// supporting counters and the merged latency sketch summary.
type TenantsPolicyPoint struct {
	KeepAlive       time.Duration `json:"keepalive_ns"`
	Invocations     uint64        `json:"invocations"`
	ColdServed      uint64        `json:"cold_served"`
	WarmServed      uint64        `json:"warm_served"`
	Errors          uint64        `json:"errors"`
	Expirations     uint64        `json:"expirations"`
	ColdRate        float64       `json:"cold_rate"`
	InstanceSeconds float64       `json:"instance_seconds"`
	Latency         stats.Summary `json:"latency"`
	VirtualTime     time.Duration `json:"virtual_ns"`
	// Pareto marks points not dominated on (ColdRate, InstanceSeconds):
	// the keep-alive settings a rational provider would actually pick.
	Pareto bool `json:"pareto"`
	// TopTenants lists the worst tenants by p99 (only when Options.Top > 0).
	TopTenants []TenantStat `json:"top_tenants,omitempty"`
}

// TenantsResult is the full sweep outcome, points in keep-alive order.
type TenantsResult struct {
	Provider  string               `json:"provider"`
	Tenants   int                  `json:"tenants"`
	Duration  time.Duration        `json:"duration_ns"`
	Shards    int                  `json:"shards"`
	Seed      int64                `json:"seed"`
	SlackTick time.Duration        `json:"slack_tick_ns"`
	Points    []TenantsPolicyPoint `json:"points"`
}

// RunTenants executes the keep-alive sweep over the synthesized
// population: the cost sweep's keep-alive preset, projected onto the
// (cold-start rate, instance-seconds) frontier.
func RunTenants(opts TenantsOptions) (*TenantsResult, error) {
	copts := opts.costOptions()
	res, err := runPopulation(copts, opts.Top)
	if err != nil {
		return nil, fmt.Errorf("tenants: %w", err)
	}
	out := &TenantsResult{
		Provider:  res.Provider,
		Tenants:   res.Tenants,
		Duration:  res.Duration,
		Shards:    res.Shards,
		Seed:      res.Seed,
		SlackTick: opts.SlackTick,
		Points:    make([]TenantsPolicyPoint, len(res.Points)),
	}
	for i, p := range res.Points {
		out.Points[i] = TenantsPolicyPoint{
			KeepAlive:       copts.Policies[i].KeepAlive,
			Invocations:     p.Invocations,
			ColdServed:      p.ColdServed,
			WarmServed:      p.WarmServed,
			Errors:          p.Errors,
			Expirations:     p.Expirations,
			ColdRate:        p.ColdRate,
			InstanceSeconds: p.InstanceSeconds,
			Latency:         p.Latency,
			VirtualTime:     p.VirtualTime,
			TopTenants:      p.worst,
		}
	}
	front := paretoFront(len(out.Points), func(i int) (float64, float64) {
		return out.Points[i].ColdRate, out.Points[i].InstanceSeconds
	})
	for i, on := range front {
		out.Points[i].Pareto = on
	}
	return out, nil
}

// WriteTenantsReport renders the frontier as a table.
func WriteTenantsReport(w io.Writer, res *TenantsResult) {
	fmt.Fprintf(w, "tenants sweep: provider=%s tenants=%d duration=%v shards=%d seed=%d slack=%v\n",
		res.Provider, res.Tenants, res.Duration, res.Shards, res.Seed, res.SlackTick)
	fmt.Fprintf(w, "%-10s %12s %9s %8s %8s %8s %14s %10s %10s %7s\n",
		"keepalive", "invocations", "colds", "cold%", "errors", "expired", "inst-seconds", "p50", "p99", "pareto")
	for _, p := range res.Points {
		pareto := ""
		if p.Pareto {
			pareto = "*"
		}
		fmt.Fprintf(w, "%-10v %12d %9d %7.3f%% %8d %8d %14.1f %10v %10v %7s\n",
			p.KeepAlive, p.Invocations, p.ColdServed, p.ColdRate*100, p.Errors, p.Expirations,
			p.InstanceSeconds, p.Latency.Median.Round(time.Millisecond),
			p.Latency.P99.Round(time.Millisecond), pareto)
	}
	for _, p := range res.Points {
		if len(p.TopTenants) == 0 {
			continue
		}
		fmt.Fprintf(w, "\nworst tenants by p99 at keepalive=%v:\n", p.KeepAlive)
		fmt.Fprintf(w, "  %-12s %12s %9s %8s %10s\n", "tenant", "invocations", "colds", "errors", "p99")
		for _, t := range p.TopTenants {
			fmt.Fprintf(w, "  %-12s %12d %9d %8d %10v\n",
				t.Name, t.Invocations, t.ColdServed, t.Errors, t.P99.Round(time.Millisecond))
		}
	}
}

// WriteTenantsCSV writes one row per frontier point.
func WriteTenantsCSV(w io.Writer, res *TenantsResult) error {
	if _, err := fmt.Fprintln(w, "keepalive_s,invocations,cold_served,warm_served,errors,expirations,cold_rate,instance_seconds,median_ms,p99_ms,pareto"); err != nil {
		return err
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	for _, p := range res.Points {
		pareto := 0
		if p.Pareto {
			pareto = 1
		}
		if _, err := fmt.Fprintf(w, "%g,%d,%d,%d,%d,%d,%.6f,%.3f,%.3f,%.3f,%d\n",
			p.KeepAlive.Seconds(), p.Invocations, p.ColdServed, p.WarmServed, p.Errors,
			p.Expirations, p.ColdRate, p.InstanceSeconds,
			ms(p.Latency.Median), ms(p.Latency.P99), pareto); err != nil {
			return err
		}
	}
	return nil
}
