package cloud

import (
	"math"
	"testing"
	"time"

	"github.com/stellar-repro/stellar/internal/dist"
)

func TestBreakdownSumsToLatencyWarm(t *testing.T) {
	eng, c := newTestCloud(t, testConfig())
	deploy(t, c, FunctionSpec{Name: "f"})
	invokeAt(eng, c, 0, &Request{Fn: "f"})
	warm := invokeAt(eng, c, time.Minute, &Request{Fn: "f", ExecTime: 100 * time.Millisecond})
	eng.Run(2 * time.Minute)
	bd := warm.resp.Breakdown
	if bd.Total() != warm.lat {
		t.Fatalf("breakdown total %v != latency %v (%+v)", bd.Total(), warm.lat, bd)
	}
	if bd.Exec != 100*time.Millisecond {
		t.Errorf("exec component = %v", bd.Exec)
	}
	if bd.Propagation != 20*time.Millisecond {
		t.Errorf("propagation = %v", bd.Propagation)
	}
	if bd.QueueWait != 0 || bd.ColdStart.Total() != 0 {
		t.Errorf("warm request has cold components: %+v", bd)
	}
}

func TestBreakdownSumsToLatencyCold(t *testing.T) {
	eng, c := newTestCloud(t, testConfig())
	deploy(t, c, FunctionSpec{Name: "f"})
	cold := invokeAt(eng, c, 0, &Request{Fn: "f"})
	eng.Run(time.Minute)
	bd := cold.resp.Breakdown
	if bd.Total() != cold.lat {
		t.Fatalf("breakdown total %v != latency %v", bd.Total(), cold.lat)
	}
	cb := bd.ColdStart
	if cb.Placement != 10*time.Millisecond || cb.SandboxBoot != 100*time.Millisecond {
		t.Errorf("cold phases wrong: %+v", cb)
	}
	if cb.ImageFetch == 0 || cb.RuntimeInit != 50*time.Millisecond {
		t.Errorf("cold phases wrong: %+v", cb)
	}
	// The spawn happens concurrently with the request waiting, so the
	// cold phases are bounded by (and here equal to) the queue wait.
	if cb.Total() != bd.QueueWait {
		t.Errorf("cold phases %v != queue wait %v", cb.Total(), bd.QueueWait)
	}
}

func TestBreakdownChainComponents(t *testing.T) {
	eng, c := newTestCloud(t, testConfig())
	deploy(t, c, FunctionSpec{Name: "consumer", Runtime: RuntimeGo})
	deploy(t, c, FunctionSpec{Name: "producer", Runtime: RuntimeGo,
		Chain: &ChainSpec{Next: "consumer", Transfer: TransferStorage, PayloadBytes: 1e6}})
	invokeAt(eng, c, 0, &Request{Fn: "producer"})
	warm := invokeAt(eng, c, time.Minute, &Request{Fn: "producer"})
	eng.Run(2 * time.Minute)
	bd := warm.resp.Breakdown
	if bd.Total() != warm.lat {
		t.Fatalf("breakdown total %v != latency %v", bd.Total(), warm.lat)
	}
	if bd.PayloadStore == 0 {
		t.Error("producer PUT not accounted")
	}
	if bd.Downstream == 0 {
		t.Error("downstream invocation not accounted")
	}
	// The downstream call includes the consumer's GET; the producer's own
	// PayloadFetch stays zero.
	if bd.PayloadFetch != 0 {
		t.Errorf("producer should not fetch payloads, got %v", bd.PayloadFetch)
	}
}

func TestBreakdownQueueHandoff(t *testing.T) {
	cfg := testConfig()
	cfg.Policy = PolicyConfig{Kind: PolicyBoundedQueue, MaxQueuePerInstance: 10}
	cfg.QueueHandoffDelay = dist.Constant(7 * time.Millisecond)
	eng, c := newTestCloud(t, cfg)
	deploy(t, c, FunctionSpec{Name: "f"})
	var rs []*result
	for i := 0; i < 5; i++ {
		rs = append(rs, invokeAt(eng, c, 0, &Request{Fn: "f", ExecTime: 50 * time.Millisecond}))
	}
	eng.Run(time.Minute)
	handoffs := 0
	for _, r := range rs {
		if r.resp.Breakdown.Total() != r.lat {
			t.Fatalf("breakdown total %v != latency %v", r.resp.Breakdown.Total(), r.lat)
		}
		if r.resp.Breakdown.QueueHandoff == 7*time.Millisecond {
			handoffs++
		}
	}
	if handoffs == 0 {
		t.Error("expected at least one queued request to pay the handoff cost")
	}
}

func TestCPUThrottlingStretchesExecution(t *testing.T) {
	cfg := testConfig()
	cfg.FullSpeedMemoryMB = 2048
	cfg.DefaultMemoryMB = 2048
	eng, c := newTestCloud(t, cfg)
	deploy(t, c, FunctionSpec{Name: "full", MemoryMB: 2048})
	deploy(t, c, FunctionSpec{Name: "half", MemoryMB: 1024})
	deploy(t, c, FunctionSpec{Name: "dflt"}) // default = full speed
	invokeAt(eng, c, 0, &Request{Fn: "full"})
	invokeAt(eng, c, 0, &Request{Fn: "half"})
	invokeAt(eng, c, 0, &Request{Fn: "dflt"})
	full := invokeAt(eng, c, time.Minute, &Request{Fn: "full", ExecTime: 400 * time.Millisecond})
	half := invokeAt(eng, c, time.Minute, &Request{Fn: "half", ExecTime: 400 * time.Millisecond})
	dflt := invokeAt(eng, c, time.Minute, &Request{Fn: "dflt", ExecTime: 400 * time.Millisecond})
	eng.Run(2 * time.Minute)
	if full.resp.Breakdown.Exec != 400*time.Millisecond {
		t.Errorf("full-memory exec = %v, want 400ms", full.resp.Breakdown.Exec)
	}
	if half.resp.Breakdown.Exec != 800*time.Millisecond {
		t.Errorf("half-memory exec = %v, want 800ms (2x throttle)", half.resp.Breakdown.Exec)
	}
	if dflt.resp.Breakdown.Exec != 400*time.Millisecond {
		t.Errorf("default-memory exec = %v, want 400ms", dflt.resp.Breakdown.Exec)
	}
}

func TestBillingAccumulates(t *testing.T) {
	cfg := testConfig()
	cfg.DefaultMemoryMB = 2048 // 2 GB
	eng, c := newTestCloud(t, cfg)
	deploy(t, c, FunctionSpec{Name: "f"})
	cold := invokeAt(eng, c, 0, &Request{Fn: "f"})
	warm := invokeAt(eng, c, time.Minute, &Request{Fn: "f", ExecTime: time.Second})
	eng.Run(2 * time.Minute)
	// Busy time = overhead (4ms) + exec (1s); memory 2GB.
	want := 1.004 * 2
	if got := warm.resp.BilledGBSeconds; math.Abs(got-want) > 0.01 {
		t.Errorf("billed = %.4f GB-s, want %.3f", got, want)
	}
	if total := cold.resp.BilledGBSeconds + warm.resp.BilledGBSeconds; total <= warm.resp.BilledGBSeconds {
		t.Errorf("run bill %.4f should include both invocations", total)
	}
}

func TestBillingIncludesDownstreamWait(t *testing.T) {
	cfg := testConfig()
	cfg.DefaultMemoryMB = 1024 // 1 GB for easy math
	eng, c := newTestCloud(t, cfg)
	deploy(t, c, FunctionSpec{Name: "consumer", Runtime: RuntimeGo, ExecTime: 500 * time.Millisecond})
	deploy(t, c, FunctionSpec{Name: "producer", Runtime: RuntimeGo,
		Chain: &ChainSpec{Next: "consumer", Transfer: TransferInline, PayloadBytes: 1 << 10}})
	invokeAt(eng, c, 0, &Request{Fn: "producer"})
	warm := invokeAt(eng, c, time.Minute, &Request{Fn: "producer"})
	eng.Run(2 * time.Minute)
	// The producer is billed while blocked on the consumer's 500ms run.
	if warm.resp.BilledGBSeconds < 0.5 {
		t.Errorf("producer bill %.4f GB-s should include downstream wait", warm.resp.BilledGBSeconds)
	}
}

func TestThrottleFactor(t *testing.T) {
	cfg := Config{DefaultMemoryMB: 2048, FullSpeedMemoryMB: 1769}
	cases := []struct {
		mem  int
		want float64
	}{
		{0, 1},     // default 2048 >= 1769
		{1769, 1},  // exactly full speed
		{3008, 1},  // above
		{884, 2.0}, // half
		{-1, 1},    // nonsense treated as unthrottled
	}
	for _, tc := range cases {
		got := cfg.throttleFactor(tc.mem)
		if math.Abs(got-tc.want) > 0.01 {
			t.Errorf("throttleFactor(%d) = %.3f, want %.2f", tc.mem, got, tc.want)
		}
	}
}

func TestMemoryGB(t *testing.T) {
	cfg := Config{DefaultMemoryMB: 1536}
	if got := cfg.memoryGB(0); math.Abs(got-1.5) > 0.001 {
		t.Errorf("default memoryGB = %v", got)
	}
	if got := cfg.memoryGB(512); math.Abs(got-0.5) > 0.001 {
		t.Errorf("memoryGB(512) = %v", got)
	}
	if got := (&Config{}).memoryGB(0); math.Abs(got-1.0) > 0.001 {
		t.Errorf("fallback memoryGB = %v", got)
	}
}
