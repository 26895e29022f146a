package cloud

import (
	"testing"
	"time"

	"github.com/stellar-repro/stellar/internal/des"
	"github.com/stellar-repro/stellar/internal/dist"
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
// everything.
func TestFunctionRecorderIsolation(t *testing.T) {
	for _, mode := range []EngineMode{EngineProc, EngineAuto} {
		eng, c := newTestCloud(t, testConfig())
		deploy(t, c, FunctionSpec{Name: "a"})
		deploy(t, c, FunctionSpec{Name: "b"})
		c.SetEngineMode(mode)
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
			eng.Spawn("req", func(p *des.Proc) {
				p.Sleep(time.Duration(i) * time.Second) // sequential: no contention
				if _, err := c.Invoke(p, &Request{Fn: name}); err != nil {
					t.Error(err)
				}
			})
		}
		eng.Run(0)
		if recA.Len() != 2 || recB.Len() != 1 {
			t.Fatalf("mode %v: recorder counts a=%d b=%d, want 2/1", mode, recA.Len(), recB.Len())
		}
		if all.Len() != 3 {
			t.Fatalf("mode %v: cloud recorder count %d, want 3", mode, all.Len())
		}
	}
}

// TestFunctionMetricsConservation: per-tenant counters sum to the
// cloud-wide metrics, and instance-seconds match the analytic value.
func TestFunctionMetricsConservation(t *testing.T) {
	cfg := testConfig()
	cfg.KeepAlive = KeepAlivePolicy{Fixed: 10 * time.Second}
	eng, c := newTestCloud(t, cfg)
	names := []string{"t0", "t1", "t2"}
	for _, name := range names {
		deploy(t, c, FunctionSpec{Name: name})
	}
	for i := 0; i < 9; i++ {
		name := names[i%len(names)]
		eng.Spawn("req", func(p *des.Proc) {
			if _, err := c.Invoke(p, &Request{Fn: name, ExecTime: 100 * time.Millisecond}); err != nil {
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
	// Every instance has expired, so each tenant's integral is closed. All
	// nine requests forced cold starts (no-queue, concurrent arrival), so
	// nine instances each lived busy-window + 10s keep-alive. The exact
	// span depends on pipeline overlap; just require the integral to cover
	// at least 9 x 10s of keep-alive and to be fully closed.
	if instSec < 90 {
		t.Errorf("instance-seconds %.2f, want >= 90 (9 instances x 10s keep-alive)", instSec)
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

// TestKeepAliveSlackEquivalence: the same workload with and without
// keep-alive slack serves identically (slack only quantizes expiry
// instants, and the drain horizon far exceeds one tick).
func TestKeepAliveSlackEquivalence(t *testing.T) {
	run := func(slack time.Duration) (Metrics, time.Duration) {
		cfg := testConfig()
		cfg.KeepAlive = KeepAlivePolicy{Fixed: 2 * time.Second}
		cfg.KeepAliveSlack = slack
		eng := des.NewEngine()
		defer eng.Close()
		c, err := New(eng, cfg, dist.NewStreams(1))
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Deploy(FunctionSpec{Name: "f", Runtime: RuntimePython, Method: DeployZIP}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			i := i
			eng.Spawn("req", func(p *des.Proc) {
				p.Sleep(time.Duration(i) * 300 * time.Millisecond)
				if _, err := c.Invoke(p, &Request{Fn: "f"}); err != nil {
					t.Error(err)
				}
			})
		}
		eng.Run(0)
		return c.Metrics(), eng.Now()
	}
	exact, exactEnd := run(0)
	slacked, slackEnd := run(100 * time.Millisecond)
	if exact.Invocations != slacked.Invocations ||
		exact.ColdServed != slacked.ColdServed ||
		exact.Expirations != slacked.Expirations {
		t.Fatalf("slack changed serve counts: exact=%+v slacked=%+v", exact, slacked)
	}
	// Expiries may land up to one tick later, never earlier.
	if slackEnd < exactEnd {
		t.Fatalf("slacked run ended earlier (%v) than exact (%v)", slackEnd, exactEnd)
	}
	if slackEnd > exactEnd+200*time.Millisecond {
		t.Fatalf("slacked run overshot: %v vs %v", slackEnd, exactEnd)
	}
}
