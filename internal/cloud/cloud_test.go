package cloud

import (
	"strings"
	"testing"
	"time"

	"github.com/stellar-repro/stellar/internal/blobstore"
	"github.com/stellar-repro/stellar/internal/des"
	"github.com/stellar-repro/stellar/internal/dist"
)

// testConfig returns a deterministic, constant-latency profile that makes
// component contributions easy to assert on.
func testConfig() Config {
	return Config{
		Name:              "testcloud",
		PropagationRTT:    20 * time.Millisecond,
		FrontendDelay:     dist.Constant(2 * time.Millisecond),
		ResponseDelay:     dist.Constant(1 * time.Millisecond),
		InternalDelay:     dist.Constant(3 * time.Millisecond),
		RoutingDelay:      dist.Constant(1 * time.Millisecond),
		WarmOverhead:      dist.Constant(4 * time.Millisecond),
		SchedulerCapacity: 16,
		PlacementDelay:    dist.Constant(10 * time.Millisecond),
		Policy:            PolicyConfig{Kind: PolicyNoQueue},
		SandboxBoot:       dist.Constant(100 * time.Millisecond),
		WarmGenericPool:   true,
		PooledInit:        dist.Constant(50 * time.Millisecond),
		RuntimeInit: map[string]dist.Dist{
			RuntimeMethodKey(RuntimePython, DeployContainer): dist.Constant(80 * time.Millisecond),
			RuntimeMethodKey(RuntimeGo, DeployContainer):     dist.Constant(55 * time.Millisecond),
		},
		ContainerChunkReads: map[Runtime]int{RuntimePython: 10},
		ChunkReadLatency:    dist.Constant(5 * time.Millisecond),
		ImageStore: blobstore.Config{
			Name:            "images",
			GetLatency:      dist.Constant(40 * time.Millisecond),
			GetBandwidthBps: 800e6,
		},
		PayloadStore: blobstore.Config{
			Name:            "payloads",
			GetLatency:      dist.Constant(15 * time.Millisecond),
			PutLatency:      dist.Constant(25 * time.Millisecond),
			GetBandwidthBps: 80e6,
			PutBandwidthBps: 80e6,
		},
		InlineLimitBytes:   6 << 20,
		InlineBandwidthBps: 264e6,
		KeepAlive:          KeepAlivePolicy{Fixed: 10 * time.Minute},
		Workers:            8,
	}
}

func newTestCloud(t *testing.T, cfg Config) (*des.Engine, *Cloud) {
	t.Helper()
	eng := des.NewEngine()
	t.Cleanup(eng.Close)
	c, err := New(eng, cfg, dist.NewStreams(1))
	if err != nil {
		t.Fatal(err)
	}
	return eng, c
}

func deploy(t *testing.T, c *Cloud, spec FunctionSpec) {
	t.Helper()
	if spec.Runtime == "" {
		spec.Runtime = RuntimePython
	}
	if spec.Method == "" {
		spec.Method = DeployZIP
	}
	if err := c.Deploy(spec); err != nil {
		t.Fatal(err)
	}
}

// invokeAt runs a single invocation at the given virtual time and returns
// its latency and response.
type result struct {
	lat  time.Duration
	resp *Response
	err  error
}

func invokeAt(eng *des.Engine, c *Cloud, at time.Duration, req *Request) *result {
	r := &result{}
	eng.At(at, func() {
		eng.Spawn("client", func(p *des.Proc) {
			start := p.Now()
			r.resp, r.err = c.Invoke(p, req)
			r.lat = p.Now() - start
		})
	})
	return r
}

func TestDeployValidation(t *testing.T) {
	_, c := newTestCloud(t, testConfig())
	if err := c.Deploy(FunctionSpec{Runtime: RuntimePython, Method: DeployZIP}); err == nil {
		t.Error("expected error for empty name")
	}
	if err := c.Deploy(FunctionSpec{Name: "f", Runtime: "rust", Method: DeployZIP}); err == nil {
		t.Error("expected error for unknown runtime")
	}
	if err := c.Deploy(FunctionSpec{Name: "f", Runtime: RuntimeGo, Method: "tarball"}); err == nil {
		t.Error("expected error for unknown method")
	}
	if err := c.Deploy(FunctionSpec{Name: "f", Runtime: RuntimeGo, Method: DeployZIP,
		Chain: &ChainSpec{Next: "g", Transfer: "pigeon"}}); err == nil {
		t.Error("expected error for unknown transfer")
	}
	deploy(t, c, FunctionSpec{Name: "f"})
	if err := c.Deploy(FunctionSpec{Name: "f", Runtime: RuntimePython, Method: DeployZIP}); err == nil {
		t.Error("expected error for duplicate deploy")
	}
	if !c.HasFunction("f") || c.HasFunction("g") {
		t.Error("HasFunction wrong")
	}
}

func TestConfigValidation(t *testing.T) {
	eng := des.NewEngine()
	defer eng.Close()
	bad := []Config{
		{},                                // no name
		{Name: "x"},                       // no scheduler capacity
		{Name: "x", SchedulerCapacity: 1}, // no workers
		func() Config { c := testConfig(); c.Policy.Kind = "weird"; return c }(),
		func() Config { c := testConfig(); c.Policy = PolicyConfig{Kind: PolicyBoundedQueue}; return c }(),
		func() Config {
			c := testConfig()
			c.Policy = PolicyConfig{Kind: PolicyRateLimited, MaxQueuePerInstance: 1}
			return c
		}(),
		func() Config { c := testConfig(); c.KeepAlive = KeepAlivePolicy{}; return c }(),
	}
	for i, cfg := range bad {
		if _, err := New(eng, cfg, dist.NewStreams(1)); err == nil {
			t.Errorf("config %d: expected validation error", i)
		}
	}
}

func TestColdThenWarmInvocation(t *testing.T) {
	eng, c := newTestCloud(t, testConfig())
	deploy(t, c, FunctionSpec{Name: "f"})

	cold := invokeAt(eng, c, 0, &Request{Fn: "f"})
	warm := invokeAt(eng, c, time.Minute, &Request{Fn: "f"})
	eng.Run(0)

	if cold.err != nil || warm.err != nil {
		t.Fatalf("errors: %v, %v", cold.err, warm.err)
	}
	if !cold.resp.Cold {
		t.Error("first invocation should be cold")
	}
	if warm.resp.Cold {
		t.Error("second invocation should be warm")
	}
	if cold.resp.InstanceID != warm.resp.InstanceID {
		t.Error("warm invocation should reuse the instance")
	}
	// Warm latency: prop(20) + frontend(2) + routing(1) + overhead(4) +
	// response(1) = 28ms.
	if warm.lat != 28*time.Millisecond {
		t.Errorf("warm latency = %v, want 28ms", warm.lat)
	}
	// Cold adds placement(10) + boot(100) + image fetch(40 + ~8MB/800Mbps
	// = ~80ms) + pooled init(50).
	if cold.lat < 250*time.Millisecond || cold.lat > 350*time.Millisecond {
		t.Errorf("cold latency = %v, want ~290ms", cold.lat)
	}
	if cold.resp.QueueWait == 0 {
		t.Error("cold invocation should report queue wait")
	}
	if warm.resp.QueueWait != 0 {
		t.Error("warm invocation should not report queue wait")
	}
}

func TestExecTimeAddsToLatency(t *testing.T) {
	eng, c := newTestCloud(t, testConfig())
	deploy(t, c, FunctionSpec{Name: "f"})
	invokeAt(eng, c, 0, &Request{Fn: "f"}) // warm it up
	base := invokeAt(eng, c, time.Minute, &Request{Fn: "f"})
	busy := invokeAt(eng, c, 2*time.Minute, &Request{Fn: "f", ExecTime: time.Second})
	eng.Run(0)
	if got := busy.lat - base.lat; got != time.Second {
		t.Fatalf("exec-time delta = %v, want 1s", got)
	}
}

func TestSpecExecTimeDefault(t *testing.T) {
	eng, c := newTestCloud(t, testConfig())
	deploy(t, c, FunctionSpec{Name: "f", ExecTime: 300 * time.Millisecond})
	invokeAt(eng, c, 0, &Request{Fn: "f"})
	warm := invokeAt(eng, c, time.Minute, &Request{Fn: "f"})
	eng.Run(0)
	if warm.lat != 28*time.Millisecond+300*time.Millisecond {
		t.Fatalf("latency = %v, want 328ms", warm.lat)
	}
}

func TestKeepAliveExpiry(t *testing.T) {
	cfg := testConfig()
	cfg.KeepAlive = KeepAlivePolicy{Fixed: 10 * time.Minute}
	eng, c := newTestCloud(t, cfg)
	deploy(t, c, FunctionSpec{Name: "f"})

	invokeAt(eng, c, 0, &Request{Fn: "f"})
	before := invokeAt(eng, c, 9*time.Minute, &Request{Fn: "f"})
	after := invokeAt(eng, c, 25*time.Minute, &Request{Fn: "f"})
	eng.Run(0)

	if before.resp.Cold {
		t.Error("invocation before keep-alive expiry should be warm")
	}
	if !after.resp.Cold {
		t.Error("invocation after keep-alive expiry should be cold")
	}
	if c.Metrics().Expirations == 0 {
		t.Error("expected an instance expiration")
	}
}

func TestKeepAliveRefreshOnUse(t *testing.T) {
	cfg := testConfig()
	cfg.KeepAlive = KeepAlivePolicy{Fixed: 10 * time.Minute}
	eng, c := newTestCloud(t, cfg)
	deploy(t, c, FunctionSpec{Name: "f"})
	// Invoke every 9 minutes for 5 rounds: instance should stay warm
	// because each use re-arms the keep-alive.
	var results []*result
	for i := 0; i < 5; i++ {
		results = append(results, invokeAt(eng, c, time.Duration(i)*9*time.Minute, &Request{Fn: "f"}))
	}
	eng.Run(0)
	for i, r := range results[1:] {
		if r.resp.Cold {
			t.Fatalf("invocation %d should be warm", i+1)
		}
	}
}

func TestStochasticKeepAlive(t *testing.T) {
	cfg := testConfig()
	cfg.KeepAlive = KeepAlivePolicy{Dist: dist.Exponential{Mean: 5 * time.Minute}}
	eng, c := newTestCloud(t, cfg)
	// Many functions invoked twice 15 minutes apart: most second
	// invocations should be cold (P(alive) = exp(-3) ~ 5%).
	var seconds []*result
	for i := 0; i < 40; i++ {
		name := "f" + string(rune('a'+i%26)) + string(rune('a'+i/26))
		deploy(t, c, FunctionSpec{Name: name})
		invokeAt(eng, c, 0, &Request{Fn: name})
		seconds = append(seconds, invokeAt(eng, c, 15*time.Minute, &Request{Fn: name}))
	}
	eng.Run(0)
	coldCount := 0
	for _, r := range seconds {
		if r.resp.Cold {
			coldCount++
		}
	}
	if coldCount < 30 {
		t.Fatalf("only %d/40 second invocations cold; keep-alive too sticky", coldCount)
	}
}

func TestNoQueuePolicySpawnsPerRequest(t *testing.T) {
	eng, c := newTestCloud(t, testConfig())
	deploy(t, c, FunctionSpec{Name: "f"})
	const n = 20
	var results []*result
	for i := 0; i < n; i++ {
		results = append(results, invokeAt(eng, c, 0, &Request{Fn: "f", ExecTime: time.Second}))
	}
	eng.Run(0)
	instances := map[int]bool{}
	for _, r := range results {
		if r.err != nil {
			t.Fatal(r.err)
		}
		instances[r.resp.InstanceID] = true
	}
	if len(instances) != n {
		t.Fatalf("%d distinct instances for %d requests; no-queue must not share", len(instances), n)
	}
}

func TestBoundedQueuePolicySharesInstances(t *testing.T) {
	cfg := testConfig()
	cfg.Policy = PolicyConfig{Kind: PolicyBoundedQueue, MaxQueuePerInstance: 4}
	eng, c := newTestCloud(t, cfg)
	deploy(t, c, FunctionSpec{Name: "f"})
	const n = 20
	var results []*result
	for i := 0; i < n; i++ {
		results = append(results, invokeAt(eng, c, 0, &Request{Fn: "f", ExecTime: time.Second}))
	}
	eng.Run(0)
	instances := map[int]int{}
	for _, r := range results {
		instances[r.resp.InstanceID]++
	}
	if len(instances) != n/4 {
		t.Fatalf("%d instances for %d requests with depth 4, want %d", len(instances), n, n/4)
	}
	for id, served := range instances {
		if served > 4 {
			t.Fatalf("instance %d served %d > depth 4 in one burst", id, served)
		}
	}
}

func TestRateLimitedPolicyThrottlesScaleOut(t *testing.T) {
	cfg := testConfig()
	cfg.Policy = PolicyConfig{
		Kind:                PolicyRateLimited,
		MaxQueuePerInstance: 100,
		InitialTokens:       2,
		MaxTokens:           2,
		TokensPerSec:        1,
		EvalInterval:        500 * time.Millisecond,
	}
	eng, c := newTestCloud(t, cfg)
	deploy(t, c, FunctionSpec{Name: "f"})
	const n = 30
	var results []*result
	for i := 0; i < n; i++ {
		results = append(results, invokeAt(eng, c, 0, &Request{Fn: "f", ExecTime: time.Second}))
	}
	eng.Run(0)
	instances := map[int]int{}
	var maxLat time.Duration
	for _, r := range results {
		if r.err != nil {
			t.Fatal(r.err)
		}
		instances[r.resp.InstanceID]++
		if r.lat > maxLat {
			maxLat = r.lat
		}
	}
	if len(instances) >= n {
		t.Fatalf("rate-limited policy spawned %d instances for %d requests", len(instances), n)
	}
	shared := false
	for _, served := range instances {
		if served > 1 {
			shared = true
		}
	}
	if !shared {
		t.Fatal("expected requests to queue at shared instances")
	}
	if maxLat < 3*time.Second {
		t.Fatalf("max latency %v too low for deep queueing", maxLat)
	}
}

func TestCongestionDelaysBursts(t *testing.T) {
	cfg := testConfig()
	cfg.CongestionThreshold = 2
	cfg.CongestionUnit = time.Millisecond
	eng, c := newTestCloud(t, cfg)
	deploy(t, c, FunctionSpec{Name: "f"})
	// Warm 100 instances first.
	for i := 0; i < 100; i++ {
		invokeAt(eng, c, 0, &Request{Fn: "f"})
	}
	single := invokeAt(eng, c, time.Minute, &Request{Fn: "f"})
	var burst []*result
	for i := 0; i < 100; i++ {
		burst = append(burst, invokeAt(eng, c, 2*time.Minute, &Request{Fn: "f"}))
	}
	eng.Run(0)
	var maxBurst time.Duration
	for _, r := range burst {
		if r.lat > maxBurst {
			maxBurst = r.lat
		}
	}
	if maxBurst <= single.lat+50*time.Millisecond {
		t.Fatalf("burst max %v should exceed single %v by >50ms of congestion", maxBurst, single.lat)
	}
}

func TestSlowPathHiccups(t *testing.T) {
	cfg := testConfig()
	cfg.CongestionThreshold = 0
	cfg.SlowPathProbPerInflight = 0.01
	cfg.SlowPathMaxProb = 0.5
	cfg.SlowPathDelay = dist.Constant(400 * time.Millisecond)
	eng, c := newTestCloud(t, cfg)
	deploy(t, c, FunctionSpec{Name: "f"})
	for i := 0; i < 100; i++ {
		invokeAt(eng, c, 0, &Request{Fn: "f"})
	}
	var burst []*result
	for i := 0; i < 100; i++ {
		burst = append(burst, invokeAt(eng, c, time.Minute, &Request{Fn: "f"}))
	}
	eng.Run(0)
	slow := 0
	for _, r := range burst {
		if r.lat > 400*time.Millisecond {
			slow++
		}
	}
	if slow == 0 {
		t.Fatal("expected some slow-path hiccups in a 100-burst")
	}
	if slow > 80 {
		t.Fatalf("%d/100 slow paths; cap not applied", slow)
	}
	if c.Metrics().SlowPaths == 0 {
		t.Fatal("slow-path metric not incremented")
	}
}

func TestImageSizeSlowsColdStart(t *testing.T) {
	eng, c := newTestCloud(t, testConfig())
	deploy(t, c, FunctionSpec{Name: "small", Runtime: RuntimeGo, ExtraImageBytes: 10 << 20})
	deploy(t, c, FunctionSpec{Name: "large", Runtime: RuntimeGo, ExtraImageBytes: 100 << 20})
	small := invokeAt(eng, c, 0, &Request{Fn: "small"})
	large := invokeAt(eng, c, 0, &Request{Fn: "large"})
	eng.Run(0)
	// 90MB extra at 800Mb/s is 900ms more transfer.
	delta := large.lat - small.lat
	if delta < 800*time.Millisecond || delta > time.Second {
		t.Fatalf("100MB vs 10MB cold delta = %v, want ~900ms", delta)
	}
}

func TestContainerChunkReadsPenalizePython(t *testing.T) {
	eng, c := newTestCloud(t, testConfig())
	deploy(t, c, FunctionSpec{Name: "py", Runtime: RuntimePython, Method: DeployContainer})
	deploy(t, c, FunctionSpec{Name: "go", Runtime: RuntimeGo, Method: DeployContainer})
	py := invokeAt(eng, c, 0, &Request{Fn: "py"})
	goRes := invokeAt(eng, c, 0, &Request{Fn: "go"})
	eng.Run(0)
	// Python container pays 10 chunk reads * 5ms plus the init delta.
	if py.lat <= goRes.lat+50*time.Millisecond {
		t.Fatalf("python container %v should exceed go container %v by chunk-read cost", py.lat, goRes.lat)
	}
}

func TestWarmGenericPoolEqualizesZipRuntimes(t *testing.T) {
	eng, c := newTestCloud(t, testConfig())
	deploy(t, c, FunctionSpec{Name: "py", Runtime: RuntimePython, Method: DeployZIP, BaseImageBytes: 4 << 20})
	deploy(t, c, FunctionSpec{Name: "go", Runtime: RuntimeGo, Method: DeployZIP, BaseImageBytes: 4 << 20})
	py := invokeAt(eng, c, 0, &Request{Fn: "py"})
	goRes := invokeAt(eng, c, 0, &Request{Fn: "go"})
	eng.Run(0)
	if py.lat != goRes.lat {
		t.Fatalf("ZIP cold starts should match under warm generic pool: py=%v go=%v", py.lat, goRes.lat)
	}
}

func TestChainInlineTransfer(t *testing.T) {
	eng, c := newTestCloud(t, testConfig())
	deploy(t, c, FunctionSpec{Name: "consumer", Runtime: RuntimeGo})
	deploy(t, c, FunctionSpec{Name: "producer", Runtime: RuntimeGo,
		Chain: &ChainSpec{Next: "consumer", Transfer: TransferInline, PayloadBytes: 1 << 20}})
	// Warm both.
	invokeAt(eng, c, 0, &Request{Fn: "producer"})
	r := invokeAt(eng, c, time.Minute, &Request{Fn: "producer"})
	eng.Run(0)
	if r.err != nil {
		t.Fatal(r.err)
	}
	transfer, ok := r.resp.TransferTime("producer", "consumer")
	if !ok {
		t.Fatalf("missing instrumentation timestamps: %v", r.resp.Timestamps)
	}
	// Wire time for 1MiB at 264Mb/s is ~31.8ms; plus internal ingress 3ms,
	// routing 1ms, overhead 4ms.
	if transfer < 35*time.Millisecond || transfer > 55*time.Millisecond {
		t.Fatalf("inline transfer = %v, want ~40ms", transfer)
	}
}

func TestChainInlineLimitRejected(t *testing.T) {
	eng, c := newTestCloud(t, testConfig())
	deploy(t, c, FunctionSpec{Name: "consumer", Runtime: RuntimeGo})
	deploy(t, c, FunctionSpec{Name: "producer", Runtime: RuntimeGo,
		Chain: &ChainSpec{Next: "consumer", Transfer: TransferInline, PayloadBytes: 10 << 20}})
	r := invokeAt(eng, c, 0, &Request{Fn: "producer"})
	eng.Run(0)
	if r.err == nil || !strings.Contains(r.err.Error(), "inline payload") {
		t.Fatalf("expected inline-limit error, got %v", r.err)
	}
}

func TestChainStorageTransfer(t *testing.T) {
	eng, c := newTestCloud(t, testConfig())
	deploy(t, c, FunctionSpec{Name: "consumer", Runtime: RuntimeGo})
	deploy(t, c, FunctionSpec{Name: "producer", Runtime: RuntimeGo,
		Chain: &ChainSpec{Next: "consumer", Transfer: TransferStorage, PayloadBytes: 1e6}})
	invokeAt(eng, c, 0, &Request{Fn: "producer"})
	r := invokeAt(eng, c, time.Minute, &Request{Fn: "producer"})
	eng.Run(0)
	if r.err != nil {
		t.Fatal(r.err)
	}
	transfer, ok := r.resp.TransferTime("producer", "consumer")
	if !ok {
		t.Fatal("missing instrumentation timestamps")
	}
	// PUT 25ms + 100ms xfer, GET 15ms + 100ms xfer, plus internal hop ~8ms.
	if transfer < 200*time.Millisecond || transfer > 300*time.Millisecond {
		t.Fatalf("storage transfer = %v, want ~250ms", transfer)
	}
	m := c.PayloadStore().Metrics()
	if m.Puts != 2 || m.Gets != 2 {
		t.Fatalf("payload store ops = %+v, want 2 puts / 2 gets", m)
	}
}

func TestChainPayloadOverride(t *testing.T) {
	eng, c := newTestCloud(t, testConfig())
	deploy(t, c, FunctionSpec{Name: "consumer", Runtime: RuntimeGo})
	deploy(t, c, FunctionSpec{Name: "producer", Runtime: RuntimeGo,
		Chain: &ChainSpec{Next: "consumer", Transfer: TransferInline, PayloadBytes: 1 << 10}})
	invokeAt(eng, c, 0, &Request{Fn: "producer"})
	smallR := invokeAt(eng, c, time.Minute, &Request{Fn: "producer"})
	bigR := invokeAt(eng, c, 2*time.Minute, &Request{Fn: "producer", ChainPayloadBytes: 4 << 20})
	eng.Run(0)
	small, _ := smallR.resp.TransferTime("producer", "consumer")
	big, _ := bigR.resp.TransferTime("producer", "consumer")
	if big <= small+50*time.Millisecond {
		t.Fatalf("4MB transfer %v should well exceed 1KB transfer %v", big, small)
	}
}

// contFunc adapts a function to the Downstream interface.
type contFunc func(p *des.Proc, env *DownstreamEnv) error

func (f contFunc) Run(p *des.Proc, env *DownstreamEnv) error { return f(p, env) }

// TestChainNegativePayloads: a negative chain payload or fan-out never
// reaches the payload store. Deploy rejects it in the spec, a request's
// override applies only when positive, and Prepare rejects it in a call.
func TestChainNegativePayloads(t *testing.T) {
	for _, ch := range []ChainSpec{
		{PayloadBytes: -5},
		{Fanout: -3},
		{PayloadBytes: -5, Fanout: -3},
	} {
		_, c := newTestCloud(t, testConfig())
		ch.Next, ch.Transfer = "consumer", TransferStorage
		if err := c.Deploy(FunctionSpec{Name: "producer", Runtime: RuntimeGo, Method: DeployZIP, Chain: &ch}); err == nil {
			t.Errorf("Deploy accepted %+v", ch)
		}
	}

	for _, tc := range []struct {
		override, want int64
	}{
		{-1, 1024},
		{0, 1024},
		{2048, 2048},
	} {
		eng, c := newTestCloud(t, testConfig())
		deploy(t, c, FunctionSpec{Name: "consumer", Runtime: RuntimeGo})
		deploy(t, c, FunctionSpec{Name: "producer", Runtime: RuntimeGo,
			Chain: &ChainSpec{Next: "consumer", Transfer: TransferStorage, PayloadBytes: 1024}})
		r := invokeAt(eng, c, 0, &Request{Fn: "producer", ChainPayloadBytes: tc.override})
		eng.Run(0)
		if r.err != nil {
			t.Fatalf("override %d: %v", tc.override, r.err)
		}
		m := c.PayloadStore().Metrics()
		if m.BytesPut != uint64(tc.want) || m.BytesRead != uint64(tc.want) {
			t.Errorf("override %d: put %d, read %d bytes; want %d", tc.override, m.BytesPut, m.BytesRead, tc.want)
		}
	}

	for _, tr := range []TransferKind{TransferInline, TransferStorage} {
		eng, c := newTestCloud(t, testConfig())
		deploy(t, c, FunctionSpec{Name: "consumer", Runtime: RuntimeGo})
		deploy(t, c, FunctionSpec{Name: "producer", Runtime: RuntimeGo})
		var prepErr error
		cont := contFunc(func(_ *des.Proc, env *DownstreamEnv) error {
			_, prepErr = env.Prepare(DownstreamCall{Fn: "consumer", Transfer: tr, PayloadBytes: -1})
			return prepErr
		})
		r := invokeAt(eng, c, 0, &Request{Fn: "producer", Cont: cont})
		eng.Run(0)
		if prepErr == nil || !strings.Contains(prepErr.Error(), "negative payload") || r.err != prepErr {
			t.Errorf("%s: Prepare error %v, invocation error %v", tr, prepErr, r.err)
		}
		if m := c.PayloadStore().Metrics(); m.Puts != 0 || m.BytesPut != 0 {
			t.Errorf("%s: payload store touched: %+v", tr, m)
		}
	}
}

func TestThreeFunctionChain(t *testing.T) {
	eng, c := newTestCloud(t, testConfig())
	deploy(t, c, FunctionSpec{Name: "c3", Runtime: RuntimeGo})
	deploy(t, c, FunctionSpec{Name: "c2", Runtime: RuntimeGo,
		Chain: &ChainSpec{Next: "c3", Transfer: TransferInline, PayloadBytes: 1 << 10}})
	deploy(t, c, FunctionSpec{Name: "c1", Runtime: RuntimeGo,
		Chain: &ChainSpec{Next: "c2", Transfer: TransferInline, PayloadBytes: 1 << 10}})
	r := invokeAt(eng, c, 0, &Request{Fn: "c1"})
	eng.Run(0)
	if r.err != nil {
		t.Fatal(r.err)
	}
	for _, key := range []string{"c1.recv", "c1.send", "c2.recv", "c2.send", "c3.recv"} {
		if _, ok := r.resp.Timestamps[key]; !ok {
			t.Fatalf("missing timestamp %s in %v", key, r.resp.Timestamps)
		}
	}
	if c.Metrics().InternalInvocations != 2 {
		t.Fatalf("internal invocations = %d, want 2", c.Metrics().InternalInvocations)
	}
}

func TestChainToMissingFunction(t *testing.T) {
	eng, c := newTestCloud(t, testConfig())
	deploy(t, c, FunctionSpec{Name: "producer", Runtime: RuntimeGo,
		Chain: &ChainSpec{Next: "ghost", Transfer: TransferInline, PayloadBytes: 1}})
	r := invokeAt(eng, c, 0, &Request{Fn: "producer"})
	eng.Run(0)
	if r.err == nil || !strings.Contains(r.err.Error(), "ghost") {
		t.Fatalf("expected chain error naming ghost, got %v", r.err)
	}
}

func TestInvokeUnknownFunction(t *testing.T) {
	eng, c := newTestCloud(t, testConfig())
	r := invokeAt(eng, c, 0, &Request{Fn: "nope"})
	eng.Run(0)
	if r.err == nil {
		t.Fatal("expected error for unknown function")
	}
}

func TestRemoveFunction(t *testing.T) {
	eng, c := newTestCloud(t, testConfig())
	deploy(t, c, FunctionSpec{Name: "f"})
	invokeAt(eng, c, 0, &Request{Fn: "f"})
	eng.Run(time.Minute) // stop before keep-alive expiry
	if got := c.LiveInstances("f"); got != 1 {
		t.Fatalf("live instances = %d", got)
	}
	if err := c.Remove("f"); err != nil {
		t.Fatal(err)
	}
	if c.HasFunction("f") {
		t.Fatal("function still deployed after Remove")
	}
	if err := c.Remove("f"); err == nil {
		t.Fatal("expected error removing twice")
	}
	r := invokeAt(eng, c, time.Minute, &Request{Fn: "f"})
	eng.Run(0)
	if r.err == nil {
		t.Fatal("expected error invoking removed function")
	}
}

func TestMetricsAndWorkers(t *testing.T) {
	eng, c := newTestCloud(t, testConfig())
	deploy(t, c, FunctionSpec{Name: "f"})
	for i := 0; i < 10; i++ {
		invokeAt(eng, c, 0, &Request{Fn: "f", ExecTime: time.Second})
	}
	eng.Run(time.Minute) // stop before keep-alive expiry
	m := c.Metrics()
	if m.Invocations != 10 || m.ColdServed != 10 || m.Spawns != 10 {
		t.Fatalf("metrics = %+v", m)
	}
	total := 0
	for _, w := range c.Workers() {
		total += w.Instances
	}
	if total != 10 {
		t.Fatalf("worker instance total = %d, want 10", total)
	}
	if c.IdleInstances("f") != 10 {
		t.Fatalf("idle = %d, want 10", c.IdleInstances("f"))
	}
}

func TestInternalSkipsPropagation(t *testing.T) {
	eng, c := newTestCloud(t, testConfig())
	deploy(t, c, FunctionSpec{Name: "f", Runtime: RuntimeGo})
	invokeAt(eng, c, 0, &Request{Fn: "f"})
	ext := invokeAt(eng, c, time.Minute, &Request{Fn: "f"})
	intl := invokeAt(eng, c, 2*time.Minute, &Request{Fn: "f", Internal: true})
	eng.Run(0)
	// Internal: internal(3) + routing(1) + overhead(4) = 8ms.
	if intl.lat != 8*time.Millisecond {
		t.Fatalf("internal latency = %v, want 8ms", intl.lat)
	}
	if ext.lat <= intl.lat {
		t.Fatal("external invocation must include propagation")
	}
}

func TestImageStoreCacheSpeedsBurstColdStarts(t *testing.T) {
	cfg := testConfig()
	cfg.ImageStore.Cache = blobstore.CacheConfig{
		Enabled:          true,
		ActivationCount:  1,
		ActivationWindow: time.Minute,
		TTL:              2 * time.Minute,
		HitLatency:       dist.Constant(2 * time.Millisecond),
		HitBandwidthBps:  8e9,
	}
	eng, c := newTestCloud(t, cfg)
	deploy(t, c, FunctionSpec{Name: "f"})
	var burst []*result
	for i := 0; i < 50; i++ {
		burst = append(burst, invokeAt(eng, c, 0, &Request{Fn: "f", ExecTime: time.Second}))
	}
	eng.Run(0)
	hits := c.ImageStore().Metrics().CacheHits
	if hits < 45 {
		t.Fatalf("image cache hits = %d, want ~49", hits)
	}
}

func TestPlacementStrategies(t *testing.T) {
	// Round-robin spreads instances evenly across workers.
	rrCfg := testConfig()
	rrCfg.Workers = 4
	eng, c := newTestCloud(t, rrCfg)
	deploy(t, c, FunctionSpec{Name: "f"})
	for i := 0; i < 8; i++ {
		invokeAt(eng, c, 0, &Request{Fn: "f", ExecTime: time.Second})
	}
	eng.Run(time.Minute)
	for _, w := range c.Workers() {
		if w.Instances != 2 {
			t.Fatalf("round-robin worker %d has %d instances, want 2", w.ID, w.Instances)
		}
	}

	// Least-loaded rebalances after skewed expiry.
	llCfg := testConfig()
	llCfg.Workers = 2
	llCfg.Placement = PlacementLeastLoaded
	eng2, c2 := newTestCloud(t, llCfg)
	deploy(t, c2, FunctionSpec{Name: "f"})
	for i := 0; i < 6; i++ {
		invokeAt(eng2, c2, 0, &Request{Fn: "f", ExecTime: time.Second})
	}
	eng2.Run(time.Minute)
	if c2.Workers()[0].Instances != 3 || c2.Workers()[1].Instances != 3 {
		t.Fatalf("least-loaded split = %d/%d, want 3/3",
			c2.Workers()[0].Instances, c2.Workers()[1].Instances)
	}
}

func TestPlacementValidation(t *testing.T) {
	cfg := testConfig()
	cfg.Placement = "teleport"
	eng := des.NewEngine()
	defer eng.Close()
	if _, err := New(eng, cfg, dist.NewStreams(1)); err == nil {
		t.Fatal("expected error for unknown placement strategy")
	}
}

func TestWorkerCapacitySaturation(t *testing.T) {
	cfg := testConfig()
	cfg.Workers = 2
	cfg.WorkerCapacity = 3 // cluster holds at most 6 instances
	eng, c := newTestCloud(t, cfg)
	deploy(t, c, FunctionSpec{Name: "f"})
	var rs []*result
	for i := 0; i < 12; i++ {
		rs = append(rs, invokeAt(eng, c, 0, &Request{Fn: "f", ExecTime: time.Second}))
	}
	eng.Run(time.Minute)
	// All requests eventually succeed, but live instances never exceeded
	// the cluster bound: the last batch waited for slots.
	for i, r := range rs {
		if r.err != nil {
			t.Fatalf("request %d: %v", i, r.err)
		}
	}
	total := 0
	for _, w := range c.Workers() {
		total += w.Instances
	}
	if total > 6 {
		t.Fatalf("live instances %d exceed cluster capacity 6", total)
	}
	// Saturation shows up as queue waits far beyond one cold start for
	// the overflow requests (they wait ~1s for a slot).
	var maxWait time.Duration
	for _, r := range rs {
		if r.resp.QueueWait > maxWait {
			maxWait = r.resp.QueueWait
		}
	}
	if maxWait < 1200*time.Millisecond {
		t.Fatalf("max queue wait %v; expected slot waiting beyond one cold start", maxWait)
	}
}

func TestWorkerCapacityValidation(t *testing.T) {
	cfg := testConfig()
	cfg.WorkerCapacity = -1
	eng := des.NewEngine()
	defer eng.Close()
	if _, err := New(eng, cfg, dist.NewStreams(1)); err == nil {
		t.Fatal("expected error for negative capacity")
	}
}
