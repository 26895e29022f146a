package cloud

import (
	"math"
	"testing"
	"time"

	"github.com/stellar-repro/stellar/internal/des"
	"github.com/stellar-repro/stellar/internal/econ"
	"github.com/stellar-repro/stellar/internal/stats"
)

// TestPerTenantKeepAliveOverride: a function deployed with its own
// keep-alive policy expires on that schedule, not the provider-wide one.
func TestPerTenantKeepAliveOverride(t *testing.T) {
	cfg := testConfig()
	cfg.KeepAlive = KeepAlivePolicy{Fixed: time.Hour}
	eng, c := newTestCloud(t, cfg)
	deploy(t, c, FunctionSpec{Name: "short", KeepAlive: &KeepAlivePolicy{Fixed: time.Second}})
	deploy(t, c, FunctionSpec{Name: "long"})
	for _, name := range []string{"short", "long"} {
		name := name
		eng.Spawn("warm", func(p *des.Proc) {
			if _, err := c.Invoke(p, &Request{Fn: name}); err != nil {
				t.Error(err)
			}
		})
	}
	eng.Run(900 * time.Millisecond) // invocations done, no keep-alive elapsed yet
	if got := c.Metrics().Expirations; got != 0 {
		t.Fatalf("expirations before any keep-alive elapsed: %d", got)
	}
	eng.Run(eng.Now() + 2*time.Second)
	if got := c.Metrics().Expirations; got != 1 {
		t.Fatalf("after 2s: expirations = %d, want 1 (only the short-keep-alive tenant)", got)
	}
	eng.Run(eng.Now() + 2*time.Hour)
	if got := c.Metrics().Expirations; got != 2 {
		t.Fatalf("after 2h: expirations = %d, want 2", got)
	}
}

func TestDeployRejectsBadTenantOverrides(t *testing.T) {
	_, c := newTestCloud(t, testConfig())
	err := c.Deploy(FunctionSpec{Name: "ka", Runtime: RuntimePython, Method: DeployZIP,
		KeepAlive: &KeepAlivePolicy{}})
	if err == nil {
		t.Error("unset keep-alive override accepted")
	}
	err = c.Deploy(FunctionSpec{Name: "mi", Runtime: RuntimePython, Method: DeployZIP,
		MaxInstances: -1})
	if err == nil {
		t.Error("negative MaxInstances accepted")
	}
	for _, spec := range []FunctionSpec{
		{Name: "mem", MemoryMB: -5},
		{Name: "base", BaseImageBytes: -1},
		{Name: "extra", ExtraImageBytes: -999999999999},
	} {
		spec.Runtime, spec.Method = RuntimePython, DeployZIP
		if err := c.Deploy(spec); err == nil {
			t.Errorf("%s: negative size accepted: %+v", spec.Name, spec)
		}
	}
}

// TestMaxInstancesCap: a tenant capped at 2 instances never scales past the
// cap, yet all requests complete — freed instances absorb the backlog even
// under the no-queue policy.
func TestMaxInstancesCap(t *testing.T) {
	cfg := testConfig()
	cfg.Policy = PolicyConfig{Kind: PolicyNoQueue}
	eng, c := newTestCloud(t, cfg)
	deploy(t, c, FunctionSpec{Name: "capped", MaxInstances: 2})
	const n = 12
	done := 0
	for i := 0; i < n; i++ {
		eng.Spawn("req", func(p *des.Proc) {
			if _, err := c.Invoke(p, &Request{Fn: "capped", ExecTime: 50 * time.Millisecond}); err != nil {
				t.Error(err)
				return
			}
			done++
		})
	}
	eng.Run(0)
	if done != n {
		t.Fatalf("completed %d of %d", done, n)
	}
	if got := c.Metrics().Spawns; got > 2 {
		t.Fatalf("spawns = %d, want <= cap of 2", got)
	}
	tm, ok := c.FunctionMetrics("capped")
	if !ok {
		t.Fatal("capped not found")
	}
	if tm.Invocations != n {
		t.Fatalf("tenant invocations = %d, want %d", tm.Invocations, n)
	}
	if tm.ColdServed+tm.WarmServed != n {
		t.Fatalf("serves = %d+%d, want %d", tm.ColdServed, tm.WarmServed, n)
	}
}

// TestFunctionRecorderIsolation: per-tenant recorders see only their own
// tenant's successful external latencies, and the cloud-wide recorder sees
// everything, in both execution forms.
func TestFunctionRecorderIsolation(t *testing.T) {
	for _, form := range invokeForms {
		eng, c := newTestCloud(t, testConfig())
		deploy(t, c, FunctionSpec{Name: "a"})
		deploy(t, c, FunctionSpec{Name: "b"})
		recA, recB := stats.NewSample(8), stats.NewSample(8)
		all := stats.NewSample(16)
		if err := c.SetFunctionRecorder("a", recA); err != nil {
			t.Fatal(err)
		}
		if err := c.SetFunctionRecorder("b", recB); err != nil {
			t.Fatal(err)
		}
		c.SetLatencyRecorder(all)
		if err := c.SetFunctionRecorder("missing", recA); err == nil {
			t.Error("recorder on undeployed function accepted")
		}
		for i, name := range []string{"a", "a", "b"} {
			name := name
			eng.At(time.Duration(i)*time.Second, func() { // sequential: no contention
				form.invoke(c, &Request{Fn: name}, func(_ *Response, err error) {
					if err != nil {
						t.Error(err)
					}
				})
			})
		}
		eng.Run(0)
		if recA.Len() != 2 || recB.Len() != 1 {
			t.Fatalf("form %s: recorder counts a=%d b=%d, want 2/1", form.name, recA.Len(), recB.Len())
		}
		if all.Len() != 3 {
			t.Fatalf("form %s: cloud recorder count %d, want 3", form.name, all.Len())
		}
	}
}

// TestFunctionMetricsConservation: per-tenant counters sum to the
// cloud-wide metrics, and instance-seconds match the analytic value.
func TestFunctionMetricsConservation(t *testing.T) {
	cfg := testConfig()
	cfg.KeepAlive = KeepAlivePolicy{Fixed: 10 * time.Second}
	const exec = 100 * time.Millisecond
	eng, c := newTestCloud(t, cfg)
	names := []string{"t0", "t1", "t2"}
	for _, name := range names {
		deploy(t, c, FunctionSpec{Name: name})
	}
	for i := 0; i < 9; i++ {
		name := names[i%len(names)]
		eng.Spawn("req", func(p *des.Proc) {
			if _, err := c.Invoke(p, &Request{Fn: name, ExecTime: exec}); err != nil {
				t.Error(err)
			}
		})
	}
	eng.Run(0) // drains through keep-alive expiry
	var inv, cold, warm uint64
	var instSec float64
	for _, name := range names {
		tm, ok := c.FunctionMetrics(name)
		if !ok {
			t.Fatalf("%s not found", name)
		}
		inv += tm.Invocations
		cold += tm.ColdServed
		warm += tm.WarmServed
		instSec += tm.InstanceSeconds
	}
	m := c.Metrics()
	if inv != m.Invocations {
		t.Errorf("tenant invocations sum %d != cloud %d", inv, m.Invocations)
	}
	if cold != m.ColdServed || warm != m.WarmServed {
		t.Errorf("tenant serves %d/%d != cloud %d/%d", cold, warm, m.ColdServed, m.WarmServed)
	}
	// Every instance has expired, so each tenant's figure is closed. All
	// nine requests forced cold starts (no-queue, concurrent arrival), so
	// each of the nine instances lived from its spawn, when it was handed
	// its request at once, through the warm overhead and the execution to
	// its release, and then the 10s keep-alive. testConfig's delays are
	// constants, so that lifetime is exact.
	pc := c.Config()
	busy := pc.QueueHandoffDelay.Sample(nil) + pc.WarmOverhead.Sample(nil) + exec
	want := 9 * (busy + cfg.KeepAlive.Fixed).Seconds()
	if math.Abs(instSec-want) > 1e-9 {
		t.Errorf("instance-seconds %.12f, want %.12f (9 instances x (%v busy + %v keep-alive))",
			instSec, want, busy, cfg.KeepAlive.Fixed)
	}
	if len(c.functions["t0"].live) != 0 {
		t.Error("instances still live after drain")
	}
}

// TestInstancePoolingReuse: expired instance records are recycled by later
// spawns instead of reallocated, and identity stays fresh (new IDs).
func TestInstancePoolingReuse(t *testing.T) {
	cfg := testConfig()
	cfg.KeepAlive = KeepAlivePolicy{Fixed: time.Second}
	eng, c := newTestCloud(t, cfg)
	deploy(t, c, FunctionSpec{Name: "f"})
	var firstID, secondID int
	eng.Spawn("gen", func(p *des.Proc) {
		resp, err := c.Invoke(p, &Request{Fn: "f"})
		if err != nil {
			t.Error(err)
			return
		}
		firstID = resp.InstanceID
		p.Sleep(5 * time.Second) // keep-alive reaps; record goes to the free list
		if c.instFree == nil {
			t.Error("no pooled instance record after expiry")
		}
		resp, err = c.Invoke(p, &Request{Fn: "f"})
		if err != nil {
			t.Error(err)
			return
		}
		secondID = resp.InstanceID
	})
	eng.Run(0)
	if firstID == 0 || secondID == 0 {
		t.Fatal("invocations did not run")
	}
	if secondID == firstID {
		t.Fatalf("recycled instance kept its old id %d", firstID)
	}
}

// TestFunctionPoolingOnRemove: removing a quiesced tenant recycles its
// record, and a redeploy under the same name starts from clean state.
func TestFunctionPoolingOnRemove(t *testing.T) {
	cfg := testConfig()
	cfg.KeepAlive = KeepAlivePolicy{Fixed: time.Second}
	eng, c := newTestCloud(t, cfg)
	deploy(t, c, FunctionSpec{Name: "f"})
	eng.Spawn("warm", func(p *des.Proc) {
		if _, err := c.Invoke(p, &Request{Fn: "f"}); err != nil {
			t.Error(err)
		}
	})
	eng.Run(0)
	if err := c.Remove("f"); err != nil {
		t.Fatal(err)
	}
	if c.fnFree == nil {
		t.Fatal("quiesced function record not pooled on Remove")
	}
	deploy(t, c, FunctionSpec{Name: "f"})
	tm, ok := c.FunctionMetrics("f")
	if !ok {
		t.Fatal("redeployed function missing")
	}
	if tm.Invocations != 0 || tm.InstanceSeconds != 0 {
		t.Fatalf("recycled record leaked state: %+v", tm)
	}
}

// TestFunctionMetricsReadIsPure: reading a function's metrics mid-run is an
// observation, not a state change. With many instances open, busy and idle,
// a read at any instant must leave the run's final FunctionMetrics and
// FunctionUsage bit-identical to those of a run nobody read.
func TestFunctionMetricsReadIsPure(t *testing.T) {
	type final struct {
		tm TenantMetrics
		u  econ.Usage
	}
	run := func(readAt time.Duration) final {
		cfg := testConfig()
		cfg.KeepAlive = KeepAlivePolicy{Fixed: 7 * time.Second}
		eng, c := newTestCloud(t, cfg)
		deploy(t, c, FunctionSpec{Name: "f", MemoryMB: 1769})
		// Staggered arrivals with uneven execution times keep a mix of
		// busy and idle instances open through the read window. Execution
		// times and read instants carry odd nanoseconds, so a window split
		// at the read would round differently from the whole window.
		for i := 0; i < 40; i++ {
			at := time.Duration(i) * 93 * time.Millisecond
			exec := 600*time.Millisecond + time.Duration(i%7)*131*time.Millisecond + time.Duration(i)*7919
			eng.Spawn("req", func(p *des.Proc) {
				p.Sleep(at)
				if _, err := c.Invoke(p, &Request{Fn: "f", ExecTime: exec}); err != nil {
					t.Error(err)
				}
			})
		}
		if readAt > 0 {
			eng.At(readAt, func() {
				live, idle := c.LiveInstances("f"), c.IdleInstances("f")
				if live < 8 || idle == 0 || idle == live {
					t.Errorf("read at %v: %d live, %d idle; want >= 8 live, busy and idle", readAt, live, idle)
				}
				if tm, _ := c.FunctionMetrics("f"); tm.InstanceSeconds <= 0 {
					t.Errorf("read at %v: instance-seconds %v", readAt, tm.InstanceSeconds)
				}
			})
		}
		eng.Run(0)
		var out final
		out.tm, _ = c.FunctionMetrics("f")
		out.u, _ = c.FunctionUsage("f")
		return out
	}
	want := run(0)
	for k := 0; k < 50; k++ {
		readAt := 2200*time.Millisecond + time.Duration(k)*37*time.Millisecond + 123457
		if got := run(readAt); got != want {
			t.Errorf("read at %v changed the run's totals:\n got %+v\nwant %+v", readAt, got, want)
		}
	}
}
