package cloud

import (
	"errors"
	"testing"
	"time"

	"github.com/stellar-repro/stellar/internal/des"
	"github.com/stellar-repro/stellar/internal/dist"
)

func TestCrashWithoutRetriesSurfaces(t *testing.T) {
	cfg := testConfig()
	cfg.Faults = FaultConfig{CrashProb: 1}
	eng, c := newTestCloud(t, cfg)
	deploy(t, c, FunctionSpec{Name: "f"})
	r := invokeAt(eng, c, 0, &Request{Fn: "f"})
	eng.Run(time.Minute)
	if !errors.Is(r.err, ErrInstanceCrash) {
		t.Fatalf("err = %v, want instance crash", r.err)
	}
	if r.resp.Attempts != 1 {
		t.Fatalf("attempts = %d", r.resp.Attempts)
	}
	if c.Metrics().Crashes != 1 {
		t.Fatalf("crashes = %d", c.Metrics().Crashes)
	}
	// The crashed instance must be gone, not recycled.
	if c.LiveInstances("f") != 0 {
		t.Fatalf("crashed instance still live")
	}
	if r.resp.Breakdown.Total() != r.lat {
		t.Fatalf("breakdown %v != latency %v", r.resp.Breakdown.Total(), r.lat)
	}
}

func TestCrashRetriesEventuallySucceed(t *testing.T) {
	cfg := testConfig()
	cfg.Faults = FaultConfig{
		CrashProb:    0.5,
		Retries:      10,
		RetryBackoff: dist.Constant(20 * time.Millisecond),
	}
	eng, c := newTestCloud(t, cfg)
	deploy(t, c, FunctionSpec{Name: "f"})
	var rs []*result
	for i := 0; i < 40; i++ {
		rs = append(rs, invokeAt(eng, c, time.Duration(i)*3*time.Second, &Request{Fn: "f"}))
	}
	eng.Run(10 * time.Minute)
	retried := 0
	for i, r := range rs {
		if r.err != nil {
			t.Fatalf("request %d failed despite retries: %v", i, r.err)
		}
		if r.resp.Attempts > 1 {
			retried++
			if r.resp.Breakdown.Retried == 0 {
				t.Fatalf("request %d retried without Retried time", i)
			}
		}
		if r.resp.Breakdown.Total() != r.lat {
			t.Fatalf("request %d breakdown %v != latency %v", i, r.resp.Breakdown.Total(), r.lat)
		}
	}
	if retried == 0 {
		t.Fatal("expected some requests to retry at 50% crash rate")
	}
	m := c.Metrics()
	if m.Crashes == 0 || m.Retries == 0 || m.Crashes < m.Retries {
		t.Fatalf("metrics = %+v", m)
	}
}

func TestRetryLatencyExceedsCleanRun(t *testing.T) {
	clean := testConfig()
	eng1, c1 := newTestCloud(t, clean)
	deploy(t, c1, FunctionSpec{Name: "f"})
	invokeAt(eng1, c1, 0, &Request{Fn: "f"})
	base := invokeAt(eng1, c1, time.Minute, &Request{Fn: "f"})
	eng1.Run(2 * time.Minute)

	faulty := testConfig()
	faulty.Faults = FaultConfig{CrashProb: 0.6, Retries: 20, RetryBackoff: dist.Constant(50 * time.Millisecond)}
	eng2, c2 := newTestCloud(t, faulty)
	deploy(t, c2, FunctionSpec{Name: "f"})
	var rs []*result
	for i := 0; i < 60; i++ {
		rs = append(rs, invokeAt(eng2, c2, time.Duration(i)*3*time.Second, &Request{Fn: "f"}))
	}
	eng2.Run(time.Hour)
	var worst time.Duration
	for _, r := range rs {
		if r.lat > worst {
			worst = r.lat
		}
	}
	if worst <= base.lat+100*time.Millisecond {
		t.Fatalf("retried tail %v should well exceed clean latency %v", worst, base.lat)
	}
}

func TestSpawnFailuresRetryUntilSuccess(t *testing.T) {
	cfg := testConfig()
	cfg.Faults = FaultConfig{SpawnFailureProb: 0.6}
	// A single cold start escapes failure with probability 0.4, so take the
	// first seed whose stream samples at least one failed spawn.
	var (
		c *Cloud
		r *result
	)
	for seed := int64(1); seed <= 64; seed++ {
		eng := des.NewEngine()
		t.Cleanup(eng.Close)
		var err error
		c, err = New(eng, cfg, dist.NewStreams(seed))
		if err != nil {
			t.Fatal(err)
		}
		deploy(t, c, FunctionSpec{Name: "f"})
		r = invokeAt(eng, c, 0, &Request{Fn: "f"})
		eng.Run(5 * time.Minute) // stop before keep-alive reaps the instance
		if r.err != nil {
			t.Fatalf("seed %d: cold start failed: %v", seed, r.err)
		}
		if !r.resp.Cold {
			t.Fatalf("seed %d: expected cold serve", seed)
		}
		if c.Metrics().SpawnFailures > 0 {
			break
		}
	}
	if c.Metrics().SpawnFailures == 0 {
		t.Fatal("no spawn failure sampled in 64 seeds at p=0.6")
	}
	// Worker reservations balance out: exactly one live instance.
	total := 0
	for _, w := range c.Workers() {
		total += w.Instances
	}
	if total != 1 {
		t.Fatalf("worker instance total = %d after failed spawns, want 1", total)
	}
	// Cold breakdown accumulates the failed attempts.
	if r.resp.Breakdown.ColdStart.Total() != r.resp.Breakdown.QueueWait {
		t.Fatalf("cold phases %v != queue wait %v",
			r.resp.Breakdown.ColdStart.Total(), r.resp.Breakdown.QueueWait)
	}
}

func TestFaultConfigValidation(t *testing.T) {
	bad := []FaultConfig{
		{CrashProb: -0.1},
		{CrashProb: 1.1},
		{SpawnFailureProb: 1},
		{Retries: -1},
	}
	for i, f := range bad {
		cfg := testConfig()
		cfg.Faults = f
		if err := cfg.Validate(); err == nil {
			t.Errorf("fault config %d passed validation", i)
		}
	}
}

func TestChainConsumerCrashPropagates(t *testing.T) {
	cfg := testConfig()
	cfg.Faults = FaultConfig{CrashProb: 1}
	eng, c := newTestCloud(t, cfg)
	deploy(t, c, FunctionSpec{Name: "consumer", Runtime: RuntimeGo})
	deploy(t, c, FunctionSpec{Name: "producer", Runtime: RuntimeGo,
		Chain: &ChainSpec{Next: "consumer", Transfer: TransferInline, PayloadBytes: 1}})
	r := invokeAt(eng, c, 0, &Request{Fn: "producer"})
	eng.Run(time.Minute)
	// With CrashProb 1, the producer itself crashes before chaining.
	if !errors.Is(r.err, ErrInstanceCrash) {
		t.Fatalf("err = %v", r.err)
	}
}

func TestQueueTimeout(t *testing.T) {
	cfg := testConfig()
	// Rate-limited policy that never spawns: every request queues forever.
	cfg.Policy = PolicyConfig{
		Kind:                PolicyRateLimited,
		MaxQueuePerInstance: 10,
		InitialTokens:       0,
		MaxTokens:           0.5,
		TokensPerSec:        0.0001,
		EvalInterval:        time.Second,
	}
	cfg.QueueTimeout = 2 * time.Second
	eng, c := newTestCloud(t, cfg)
	deploy(t, c, FunctionSpec{Name: "f"})
	r := invokeAt(eng, c, 0, &Request{Fn: "f"})
	eng.Run(time.Minute)
	if !errors.Is(r.err, ErrQueueTimeout) {
		t.Fatalf("err = %v, want queue timeout", r.err)
	}
	if c.Metrics().QueueTimeouts != 1 {
		t.Fatalf("queue timeouts = %d", c.Metrics().QueueTimeouts)
	}
	// The abandoned request must be gone from the buffer.
	if got := len(c.functions["f"].buffer); got != 0 {
		t.Fatalf("buffer len = %d after timeout", got)
	}
}

func TestQueueTimeoutNotTriggeredWhenServed(t *testing.T) {
	cfg := testConfig()
	cfg.QueueTimeout = 30 * time.Second // far above a cold start
	eng, c := newTestCloud(t, cfg)
	deploy(t, c, FunctionSpec{Name: "f"})
	r := invokeAt(eng, c, 0, &Request{Fn: "f"})
	eng.Run(time.Minute)
	if r.err != nil {
		t.Fatalf("unexpected error: %v", r.err)
	}
	if c.Metrics().QueueTimeouts != 0 {
		t.Fatal("spurious queue timeout")
	}
}
