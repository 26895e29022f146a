package experiments

import (
	"bytes"
	"runtime"
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
// tenant and one shard reduces exactly to one direct shard replay — the
// merge layer adds nothing.
func TestTenantsSingleTenantMatchesDirectShard(t *testing.T) {
	opts := smallTenantsOpts().normalized()
	opts.Tenants = 1
	opts.Shards = 1
	opts.KeepAlives = []time.Duration{5 * time.Minute}
	res, err := RunTenants(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 1 {
		t.Fatalf("points = %d, want 1", len(res.Points))
	}
	pop := synthesizeTenants(opts)
	direct, err := runTenantsShard(opts, pop, 5*time.Minute, 0)
	if err != nil {
		t.Fatal(err)
	}
	p := res.Points[0]
	if p.Invocations != direct.inv || p.ColdServed != direct.cold ||
		p.WarmServed != direct.warm || p.Errors != direct.errs {
		t.Fatalf("sweep %+v != direct shard inv=%d cold=%d warm=%d errs=%d",
			p, direct.inv, direct.cold, direct.warm, direct.errs)
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
		if err := WriteTenantsJSON(&buf, res); err != nil {
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

// TestTenantsParetoMarking: the frontier marking is exactly the
// non-dominated set.
func TestTenantsParetoMarking(t *testing.T) {
	points := []TenantsPolicyPoint{
		{ColdRate: 0.10, InstanceSeconds: 100}, // pareto
		{ColdRate: 0.05, InstanceSeconds: 200}, // pareto
		{ColdRate: 0.05, InstanceSeconds: 300}, // dominated by [1]
		{ColdRate: 0.20, InstanceSeconds: 100}, // dominated by [0]
		{ColdRate: 0.02, InstanceSeconds: 400}, // pareto
	}
	markPareto(points)
	want := []bool{true, true, false, false, true}
	for i, p := range points {
		if p.Pareto != want[i] {
			t.Errorf("point %d pareto = %v, want %v", i, p.Pareto, want[i])
		}
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
