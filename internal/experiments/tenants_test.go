package experiments

import (
	"bytes"
	"encoding/json"
	"runtime"
	"slices"
	"testing"
	"time"
)

func smallTenantsOpts() TenantsOptions {
	return TenantsOptions{
		Provider:   "aws",
		Tenants:    40,
		Duration:   5 * time.Minute,
		Shards:     4,
		Seed:       7,
		KeepAlives: []time.Duration{time.Minute, 10 * time.Minute},
	}
}

func TestTenantsRejectsEmptyPopulation(t *testing.T) {
	opts := smallTenantsOpts()
	opts.Tenants = 0
	if _, err := RunTenants(opts); err == nil {
		t.Fatal("zero tenants accepted")
	}
	opts = smallTenantsOpts()
	opts.Duration = 0
	if _, err := RunTenants(opts); err == nil {
		t.Fatal("zero duration accepted")
	}
	opts = smallTenantsOpts()
	opts.KeepAlives = []time.Duration{0}
	if _, err := RunTenants(opts); err == nil {
		t.Fatal("zero keep-alive accepted")
	}
}

// TestTenantsSingleTenantMatchesDirectShard: the full sweep driver with one
// tenant and one shard reduces exactly to one direct call of the shared
// population shard — the merge layer adds nothing.
func TestTenantsSingleTenantMatchesDirectShard(t *testing.T) {
	opts := smallTenantsOpts()
	opts.Tenants = 1
	opts.Shards = 1
	opts.KeepAlives = []time.Duration{5 * time.Minute}
	opts.Top = 1
	res, err := RunTenants(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 1 {
		t.Fatalf("points = %d, want 1", len(res.Points))
	}
	copts := opts.costOptions().normalized()
	pop := synthesizeTenants(copts)
	direct, err := runPopulationShard(copts, pop, copts.Policies[0], 0, true)
	if err != nil {
		t.Fatal(err)
	}
	p := res.Points[0]
	if p.Invocations != direct.inv || p.ColdServed != direct.cold ||
		p.WarmServed != direct.warm || p.Errors != direct.errs ||
		p.Expirations != direct.expirations {
		t.Fatalf("sweep %+v != direct shard inv=%d cold=%d warm=%d errs=%d expired=%d",
			p, direct.inv, direct.cold, direct.warm, direct.errs, direct.expirations)
	}
	if p.InstanceSeconds != direct.instSec {
		t.Fatalf("instance-seconds %v != %v", p.InstanceSeconds, direct.instSec)
	}
	if p.VirtualTime != direct.virtual {
		t.Fatalf("virtual time %v != %v", p.VirtualTime, direct.virtual)
	}
	if direct.sk.Count() > 0 && p.Latency.P99 != direct.sk.Summarize().P99 {
		t.Fatalf("latency p99 %v != %v", p.Latency.P99, direct.sk.Summarize().P99)
	}
	if len(p.TopTenants) != 1 || len(direct.tenants) != 1 || p.TopTenants[0] != direct.tenants[0] {
		t.Fatalf("top tenants %+v != direct %+v", p.TopTenants, direct.tenants)
	}
}

// TestTenantsMatchesCostKeepAlive: the tenants sweep is the cost sweep
// restricted to keepalive-<d> policies, so both report the same counters,
// instance-seconds, latency summary and virtual time for every keep-alive,
// with exact and wheel-routed expiries and at any worker count.
func TestTenantsMatchesCostKeepAlive(t *testing.T) {
	kas := []time.Duration{time.Minute, 5 * time.Minute, 20 * time.Minute}
	for _, slack := range []time.Duration{0, 500 * time.Millisecond} {
		for _, workers := range []int{1, 8} {
			opts := smallTenantsOpts()
			opts.Tenants = 120
			opts.KeepAlives = kas
			opts.SlackTick = slack
			opts.Workers = workers
			tenants, err := RunTenants(opts)
			if err != nil {
				t.Fatal(err)
			}
			var policies []CostPolicy
			for _, ka := range kas {
				policies = append(policies, CostPolicy{Name: "keepalive-" + ka.String(), KeepAlive: ka})
			}
			cost, err := RunCost(CostOptions{
				Provider: opts.Provider, Tenants: opts.Tenants, Duration: opts.Duration,
				Shards: opts.Shards, Workers: workers, Seed: opts.Seed,
				Policies: policies, SlackTick: slack,
			})
			if err != nil {
				t.Fatal(err)
			}
			for i, tp := range tenants.Points {
				cp := cost.Points[i]
				if tp.KeepAlive != kas[i] {
					t.Fatalf("point %d keep-alive %v, want %v", i, tp.KeepAlive, kas[i])
				}
				if tp.Invocations != cp.Invocations || tp.ColdServed != cp.ColdServed ||
					tp.WarmServed != cp.WarmServed || tp.Errors != cp.Errors ||
					tp.Expirations != cp.Expirations || tp.ColdRate != cp.ColdRate {
					t.Errorf("slack=%v workers=%d %s: counters differ: tenants %+v, cost %+v",
						slack, workers, cp.Policy, tp, cp)
				}
				if tp.InstanceSeconds != cp.InstanceSeconds {
					t.Errorf("slack=%v workers=%d %s: instance-seconds %v != %v",
						slack, workers, cp.Policy, tp.InstanceSeconds, cp.InstanceSeconds)
				}
				if tp.Latency != cp.Latency {
					t.Errorf("slack=%v workers=%d %s: latency %+v != %+v",
						slack, workers, cp.Policy, tp.Latency, cp.Latency)
				}
				if tp.VirtualTime != cp.VirtualTime {
					t.Errorf("slack=%v workers=%d %s: virtual time %v != %v",
						slack, workers, cp.Policy, tp.VirtualTime, cp.VirtualTime)
				}
			}
		}
	}
}

// TestTenantsWorkerCountInvariance: the sweep is byte-identical at any
// Workers setting (index-ordered deterministic merge).
func TestTenantsWorkerCountInvariance(t *testing.T) {
	render := func(workers int) []byte {
		opts := smallTenantsOpts()
		opts.Workers = workers
		opts.Top = 3
		res, err := RunTenants(opts)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(res); err != nil {
			t.Fatal(err)
		}
		WriteTenantsReport(&buf, res)
		return buf.Bytes()
	}
	serial := render(1)
	parallel := render(8)
	if !bytes.Equal(serial, parallel) {
		t.Fatal("tenants sweep differs between Workers=1 and Workers=8")
	}
}

// TestTenantsSlackTickKeepsFrontierShape: replaying on the timer wheel
// must not change what was served, and may only shift the cold/warm split
// toward warm. The wheel fires an expiry never early and at most one tick
// late, so an arrival inside that tick can find the instance still alive
// and turn warm; it can never turn a warm serve cold.
func TestTenantsSlackTickKeepsFrontierShape(t *testing.T) {
	opts := smallTenantsOpts()
	exact, err := RunTenants(opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.SlackTick = 500 * time.Millisecond
	slacked, err := RunTenants(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range exact.Points {
		e, s := exact.Points[i], slacked.Points[i]
		if e.Invocations != s.Invocations || e.Errors != s.Errors {
			t.Fatalf("keepalive %v: slack changed serves: exact inv=%d errors=%d, slacked inv=%d errors=%d",
				e.KeepAlive, e.Invocations, e.Errors, s.Invocations, s.Errors)
		}
		if s.ColdServed > e.ColdServed {
			t.Errorf("keepalive %v: slack added cold starts: exact %d, slacked %d",
				e.KeepAlive, e.ColdServed, s.ColdServed)
		} else if diff := e.ColdServed - s.ColdServed; diff*100 > e.Invocations {
			t.Errorf("keepalive %v: slack moved %d of %d invocations from cold to warm, want <= 1%%",
				e.KeepAlive, diff, e.Invocations)
		}
	}
}

// TestParetoFront: the one Pareto helper marks exactly the non-dominated
// set on both frontiers it serves, (cold rate, instance-seconds) and
// (cost per million requests, p99). Exact ties and duplicate points do not
// dominate each other, so they stay on the front together.
func TestParetoFront(t *testing.T) {
	type pt struct{ x, y float64 }
	for _, tc := range []struct {
		name   string
		points []pt
		want   []bool
	}{
		{"cold-rate/instance-seconds", []pt{
			{0.10, 100}, // front
			{0.05, 200}, // front
			{0.05, 300}, // dominated by [1]: equal x, worse y
			{0.20, 100}, // dominated by [0]: equal y, worse x
			{0.02, 400}, // front
		}, []bool{true, true, false, false, true}},
		{"duplicates", []pt{{1, 1}, {1, 1}, {2, 2}, {2, 2}}, []bool{true, true, false, false}},
		{"exact tie on one axis", []pt{{3, 1}, {1, 3}, {2, 2}, {3, 3}}, []bool{true, true, true, false}},
		{"single", []pt{{5, 5}}, []bool{true}},
		{"empty", nil, []bool{}},
	} {
		got := paretoFront(len(tc.points), func(i int) (float64, float64) {
			return tc.points[i].x, tc.points[i].y
		})
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s: front = %v, want %v", tc.name, got, tc.want)
		}
	}

	// The cost frontier's coordinates are (dollars, duration).
	cells := []struct {
		usd float64
		p99 time.Duration
	}{
		{1.0, 300 * time.Millisecond}, // front
		{2.0, 100 * time.Millisecond}, // front
		{2.0, 100 * time.Millisecond}, // duplicate of [1]: front
		{1.0, 400 * time.Millisecond}, // dominated by [0]
		{3.0, 100 * time.Millisecond}, // dominated by [1]
	}
	got := paretoFront(len(cells), func(i int) (float64, time.Duration) { return cells[i].usd, cells[i].p99 })
	if want := []bool{true, true, true, false, false}; !slices.Equal(got, want) {
		t.Errorf("cost/p99: front = %v, want %v", got, want)
	}
}

// TestTenantsThousandTenantsBoundedHeap is the scale gate: a 1000-tenant
// replay must fit in a bounded heap — pooled tenant records plus one
// bounded sketch per tenant, no O(invocations) retention anywhere.
func TestTenantsThousandTenantsBoundedHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("scale gate skipped in -short")
	}
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	opts := TenantsOptions{
		Provider:   "aws",
		Tenants:    1000,
		Duration:   10 * time.Minute,
		Shards:     8,
		Seed:       11,
		KeepAlives: []time.Duration{5 * time.Minute},
	}
	res, err := RunTenants(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 1 || res.Points[0].Invocations == 0 {
		t.Fatalf("bad result: %+v", res.Points)
	}

	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	grown := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	// Budget: ~20KB/tenant of durable state (sketch + records) plus slack
	// for the runtime. The replay itself issues tens of thousands of
	// invocations; any O(invocations) retention blows straight past this.
	const budget = 25 << 20
	if grown > budget {
		t.Fatalf("heap grew %d bytes over the replay, budget %d", grown, budget)
	}
	t.Logf("replayed %d invocations across %d tenants; retained heap growth %.1f MB",
		res.Points[0].Invocations, opts.Tenants, float64(grown)/(1<<20))
}
