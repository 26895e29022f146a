package core

import (
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/stellar-repro/stellar/internal/blobstore"
	"github.com/stellar-repro/stellar/internal/cloud"
	"github.com/stellar-repro/stellar/internal/des"
	"github.com/stellar-repro/stellar/internal/dist"
)

// testCloudConfig is a small deterministic provider profile.
func testCloudConfig(name string) cloud.Config {
	return cloud.Config{
		Name:              name,
		PropagationRTT:    20 * time.Millisecond,
		FrontendDelay:     dist.Constant(2 * time.Millisecond),
		ResponseDelay:     dist.Constant(1 * time.Millisecond),
		InternalDelay:     dist.Constant(3 * time.Millisecond),
		RoutingDelay:      dist.Constant(1 * time.Millisecond),
		WarmOverhead:      dist.Constant(4 * time.Millisecond),
		SchedulerCapacity: 16,
		PlacementDelay:    dist.Constant(10 * time.Millisecond),
		Policy:            cloud.PolicyConfig{Kind: cloud.PolicyNoQueue},
		SandboxBoot:       dist.Constant(50 * time.Millisecond),
		WarmGenericPool:   true,
		PooledInit:        dist.Constant(40 * time.Millisecond),
		ImageStore:        blobstore.Config{Name: name + "-img", GetLatency: dist.Constant(30 * time.Millisecond)},
		PayloadStore: blobstore.Config{
			Name:       name + "-blob",
			GetLatency: dist.Constant(10 * time.Millisecond),
			PutLatency: dist.Constant(10 * time.Millisecond),
		},
		InlineLimitBytes:   6 << 20,
		InlineBandwidthBps: 264e6,
		KeepAlive:          cloud.KeepAlivePolicy{Fixed: 10 * time.Minute},
		Workers:            8,
	}
}

type harness struct {
	eng      *des.Engine
	cloud    *cloud.Cloud
	provider *SimProvider
	client   *Client
	deployer *Deployer
}

func newHarness(t *testing.T) *harness {
	t.Helper()
	eng := des.NewEngine()
	t.Cleanup(eng.Close)
	cl, err := cloud.New(eng, testCloudConfig("sim"), dist.NewStreams(7))
	if err != nil {
		t.Fatal(err)
	}
	sp := &SimProvider{Cloud: cl}
	return &harness{
		eng:      eng,
		cloud:    cl,
		provider: sp,
		client:   &Client{Transport: NewSimTransport(eng, cl), RNG: rand.New(rand.NewSource(1))},
		deployer: NewDeployer(sp),
	}
}

func TestStaticConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		sc   StaticConfig
		ok   bool
	}{
		{"valid", StaticConfig{Provider: "sim", Functions: []FunctionConfig{{Name: "f", Runtime: "python3"}}}, true},
		{"no provider", StaticConfig{Functions: []FunctionConfig{{Name: "f"}}}, false},
		{"no functions", StaticConfig{Provider: "sim"}, false},
		{"unnamed", StaticConfig{Provider: "sim", Functions: []FunctionConfig{{}}}, false},
		{"dup", StaticConfig{Provider: "sim", Functions: []FunctionConfig{{Name: "f"}, {Name: "f"}}}, false},
		{"bad chain len", StaticConfig{Provider: "sim", Functions: []FunctionConfig{
			{Name: "f", Chain: &ChainConfig{Length: 1, Transfer: "inline"}}}}, false},
		{"bad transfer", StaticConfig{Provider: "sim", Functions: []FunctionConfig{
			{Name: "f", Chain: &ChainConfig{Length: 2, Transfer: "smoke"}}}}, false},
		{"negative payload", StaticConfig{Provider: "sim", Functions: []FunctionConfig{
			{Name: "f", Chain: &ChainConfig{Length: 2, Transfer: "storage", PayloadBytes: -1 << 20}}}}, false},
		{"negative exec time", StaticConfig{Provider: "sim", Functions: []FunctionConfig{
			{Name: "f", ExecTime: Duration(-time.Millisecond)}}}, false},
	}
	for _, tc := range cases {
		err := tc.sc.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

func TestRuntimeConfigValidateDefaults(t *testing.T) {
	rc := RuntimeConfig{Samples: 10, IAT: Duration(time.Second)}
	if err := rc.Validate(); err != nil {
		t.Fatal(err)
	}
	if rc.BurstSize != 1 || rc.IATDist != IATFixed {
		t.Fatalf("defaults not applied: %+v", rc)
	}
	bad := []RuntimeConfig{
		{},
		{Samples: 10},
		{Samples: 10, IAT: Duration(time.Second), BurstSize: -1},
		{Samples: 10, IAT: Duration(time.Second), IATDist: "zipf"},
		{Samples: 10, IAT: Duration(time.Second), WarmupDiscard: -1},
		{Samples: 10, IAT: Duration(time.Second), ExecTime: Duration(-time.Millisecond)},
		{Samples: 10, IAT: Duration(time.Second), PayloadBytes: -1 << 20},
	}
	for i, rc := range bad {
		if err := rc.Validate(); err == nil {
			t.Errorf("bad config %d passed validation", i)
		}
	}
}

func TestConfigFilesRoundTrip(t *testing.T) {
	dir := t.TempDir()
	staticPath := filepath.Join(dir, "static.json")
	sc := &StaticConfig{Provider: "sim", Functions: []FunctionConfig{{
		Name: "f", Runtime: "go1.x", Method: "zip", Replicas: 3,
		Chain: &ChainConfig{Length: 2, Transfer: "storage", PayloadBytes: 1 << 20},
	}}}
	data := `{"provider":"sim","functions":[{"name":"f","runtime":"go1.x","method":"zip","replicas":3,` +
		`"chain":{"length":2,"transfer":"storage","payload_bytes":1048576}}]}`
	if err := writeFile(staticPath, data); err != nil {
		t.Fatal(err)
	}
	got, err := LoadStaticConfig(staticPath)
	if err != nil {
		t.Fatal(err)
	}
	if got.Functions[0].Chain.PayloadBytes != sc.Functions[0].Chain.PayloadBytes {
		t.Fatalf("static config mismatch: %+v", got.Functions[0])
	}

	rtPath := filepath.Join(dir, "rt.json")
	if err := writeFile(rtPath, `{"samples":100,"iat":"3s","burst_size":10,"exec_time":"1s"}`); err != nil {
		t.Fatal(err)
	}
	rc, err := LoadRuntimeConfig(rtPath)
	if err != nil {
		t.Fatal(err)
	}
	if rc.IAT.Std() != 3*time.Second || rc.ExecTime.Std() != time.Second || rc.BurstSize != 10 {
		t.Fatalf("runtime config mismatch: %+v", rc)
	}
	if _, err := LoadRuntimeConfig(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("expected error for missing file")
	}
}

func TestDurationJSON(t *testing.T) {
	var d Duration
	if err := d.UnmarshalJSON([]byte(`"250ms"`)); err != nil || d.Std() != 250*time.Millisecond {
		t.Fatalf("string form: %v %v", d, err)
	}
	if err := d.UnmarshalJSON([]byte(`1000000`)); err != nil || d.Std() != time.Millisecond {
		t.Fatalf("numeric form: %v %v", d, err)
	}
	if err := d.UnmarshalJSON([]byte(`"soon"`)); err == nil {
		t.Fatal("expected parse error")
	}
	out, err := Duration(3 * time.Second).MarshalJSON()
	if err != nil || string(out) != `"3s"` {
		t.Fatalf("marshal: %s %v", out, err)
	}
}

func TestDeployReplicasAndEndpointsFile(t *testing.T) {
	h := newHarness(t)
	eps, err := h.deployer.Deploy(&StaticConfig{Provider: "sim", Functions: []FunctionConfig{{
		Name: "f", Runtime: "python3", Method: "zip", Replicas: 4,
	}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(eps.Endpoints) != 4 {
		t.Fatalf("%d endpoints, want 4", len(eps.Endpoints))
	}
	names := map[string]bool{}
	for _, ep := range eps.Endpoints {
		if !h.cloud.HasFunction(ep.Function) {
			t.Fatalf("endpoint %q not deployed in cloud", ep.Function)
		}
		if !strings.HasPrefix(ep.URL, "sim://sim/") {
			t.Fatalf("bad URL %q", ep.URL)
		}
		names[ep.Function] = true
	}
	if len(names) != 4 {
		t.Fatalf("replica names not unique: %v", names)
	}

	path := filepath.Join(t.TempDir(), "endpoints.json")
	if err := eps.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadEndpoints(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Endpoints) != 4 || loaded.Provider != "sim" {
		t.Fatalf("roundtrip mismatch: %+v", loaded)
	}
}

func TestDeployChainCreatesMembers(t *testing.T) {
	h := newHarness(t)
	eps, err := h.deployer.Deploy(&StaticConfig{Provider: "sim", Functions: []FunctionConfig{{
		Name: "chain", Runtime: "go1.x", Method: "zip",
		Chain: &ChainConfig{Length: 3, Transfer: "inline", PayloadBytes: 1 << 10},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	ep := eps.Endpoints[0]
	if len(ep.Chain) != 3 {
		t.Fatalf("chain names = %v, want 3", ep.Chain)
	}
	for _, name := range ep.Chain {
		if !h.cloud.HasFunction(name) {
			t.Fatalf("chain member %q not deployed", name)
		}
	}
}

func TestDeployUnknownProvider(t *testing.T) {
	h := newHarness(t)
	_, err := h.deployer.Deploy(&StaticConfig{Provider: "nope", Functions: []FunctionConfig{{Name: "f"}}})
	if err == nil {
		t.Fatal("expected error for unknown provider")
	}
	_ = h
}

func TestTeardown(t *testing.T) {
	h := newHarness(t)
	_, err := h.provider.Deploy(FunctionConfig{Name: "f", Runtime: "python3", Method: "zip", Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.provider.Teardown("f"); err != nil {
		t.Fatal(err)
	}
	if h.cloud.HasFunction("f-r000") || h.cloud.HasFunction("f-r001") {
		t.Fatal("functions remain after teardown")
	}
	if err := h.provider.Teardown("f"); err == nil {
		t.Fatal("expected error tearing down twice")
	}
}

func TestBuildPlanFixedIAT(t *testing.T) {
	h := newHarness(t)
	eps := []Endpoint{{Function: "a", Provider: "sim"}, {Function: "b", Provider: "sim"}}
	plan, err := h.client.BuildPlan(eps, RuntimeConfig{Samples: 6, IAT: Duration(time.Second)})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) != 6 {
		t.Fatalf("plan length %d", len(plan))
	}
	for i, pr := range plan {
		if pr.At != time.Duration(i)*time.Second {
			t.Fatalf("request %d at %v", i, pr.At)
		}
		want := eps[i%2].Function
		if pr.Endpoint.Function != want {
			t.Fatalf("request %d to %s, want round-robin %s", i, pr.Endpoint.Function, want)
		}
	}
}

func TestBuildPlanBursts(t *testing.T) {
	h := newHarness(t)
	eps := []Endpoint{{Function: "a", Provider: "sim"}}
	plan, err := h.client.BuildPlan(eps, RuntimeConfig{Samples: 10, IAT: Duration(time.Second), BurstSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) != 10 {
		t.Fatalf("plan length %d", len(plan))
	}
	// Bursts of 4,4,2 at t=0,1s,2s.
	for i, pr := range plan {
		want := time.Duration(i/4) * time.Second
		if pr.At != want {
			t.Fatalf("request %d at %v, want %v", i, pr.At, want)
		}
	}
}

func TestBuildPlanExponentialIAT(t *testing.T) {
	h := newHarness(t)
	eps := []Endpoint{{Function: "a", Provider: "sim"}}
	plan, err := h.client.BuildPlan(eps, RuntimeConfig{
		Samples: 50, IAT: Duration(time.Second), IATDist: IATExponential,
	})
	if err != nil {
		t.Fatal(err)
	}
	varied := false
	var prev time.Duration
	for i := 1; i < len(plan); i++ {
		gap := plan[i].At - plan[i-1].At
		if gap < 0 {
			t.Fatal("non-monotonic schedule")
		}
		if i > 1 && gap != prev {
			varied = true
		}
		prev = gap
	}
	if !varied {
		t.Fatal("exponential IATs look constant")
	}
	// Without an RNG the build must fail.
	h.client.RNG = nil
	if _, err := h.client.BuildPlan(eps, RuntimeConfig{
		Samples: 5, IAT: Duration(time.Second), IATDist: IATExponential,
	}); err == nil {
		t.Fatal("expected error without RNG")
	}
}

func TestBuildPlanNoEndpoints(t *testing.T) {
	h := newHarness(t)
	if _, err := h.client.BuildPlan(nil, RuntimeConfig{Samples: 5, IAT: Duration(time.Second)}); err == nil {
		t.Fatal("expected error for empty endpoints")
	}
}

func TestClientRunEndToEnd(t *testing.T) {
	h := newHarness(t)
	eps, err := h.deployer.Deploy(&StaticConfig{Provider: "sim", Functions: []FunctionConfig{{
		Name: "f", Runtime: "python3", Method: "zip",
	}}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.client.Run(eps.Endpoints, RuntimeConfig{
		Samples:       20,
		IAT:           Duration(3 * time.Second),
		WarmupDiscard: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Latencies.Len() != 20 {
		t.Fatalf("measured %d samples", res.Latencies.Len())
	}
	if res.Colds != 0 {
		t.Fatalf("colds = %d after warmup discard", res.Colds)
	}
	// Warm latency is deterministic: 20 prop + 2 + 1 + 4 + 1 = 28ms.
	if med := res.Latencies.Median(); med != 28*time.Millisecond {
		t.Fatalf("median = %v", med)
	}
	if res.Summary().Count != 20 {
		t.Fatal("summary count wrong")
	}
}

func TestClientRunChainTransfers(t *testing.T) {
	h := newHarness(t)
	eps, err := h.deployer.Deploy(&StaticConfig{Provider: "sim", Functions: []FunctionConfig{{
		Name: "chain", Runtime: "go1.x", Method: "zip",
		Chain: &ChainConfig{Length: 2, Transfer: "storage", PayloadBytes: 1 << 20},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.client.Run(eps.Endpoints, RuntimeConfig{
		Samples:       10,
		IAT:           Duration(3 * time.Second),
		WarmupDiscard: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Transfers.Len() != 10 {
		t.Fatalf("transfers = %d, want 10", res.Transfers.Len())
	}
	if res.Transfers.Median() <= 20*time.Millisecond {
		t.Fatalf("transfer median %v too small for storage path", res.Transfers.Median())
	}
}

func TestClientRunAllFailures(t *testing.T) {
	h := newHarness(t)
	eps := []Endpoint{{Function: "ghost", Provider: "sim"}}
	_, err := h.client.Run(eps, RuntimeConfig{Samples: 3, IAT: Duration(time.Second)})
	if err == nil {
		t.Fatal("expected error when all requests fail")
	}
}

func TestSimTransportUnknownProvider(t *testing.T) {
	h := newHarness(t)
	_, err := h.client.Transport.Execute([]PlannedRequest{{Endpoint: Endpoint{Provider: "other"}}})
	if err == nil {
		t.Fatal("expected error for unknown provider")
	}
}

func TestExecTimeAndPayloadOverridesReachCloud(t *testing.T) {
	h := newHarness(t)
	eps, err := h.deployer.Deploy(&StaticConfig{Provider: "sim", Functions: []FunctionConfig{{
		Name: "f", Runtime: "python3", Method: "zip",
	}}})
	if err != nil {
		t.Fatal(err)
	}
	base, err := h.client.Run(eps.Endpoints, RuntimeConfig{
		Samples: 5, IAT: Duration(3 * time.Second), WarmupDiscard: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	busy, err := h.client.Run(eps.Endpoints, RuntimeConfig{
		Samples: 5, IAT: Duration(3 * time.Second), WarmupDiscard: 1,
		ExecTime: Duration(500 * time.Millisecond),
	})
	if err != nil {
		t.Fatal(err)
	}
	if delta := busy.Latencies.Median() - base.Latencies.Median(); delta != 500*time.Millisecond {
		t.Fatalf("exec-time override delta = %v", delta)
	}
}

// writeFile is a tiny helper for config fixtures.
func writeFile(path, content string) error {
	return writeFileBytes(path, []byte(content))
}

func writeFileBytes(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644)
}

func TestFunctionConfigExecTime(t *testing.T) {
	h := newHarness(t)
	eps, err := h.deployer.Deploy(&StaticConfig{Provider: "sim", Functions: []FunctionConfig{{
		Name: "f", Runtime: "go1.x", Method: "zip",
		ExecTime: Duration(300 * time.Millisecond),
	}}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.client.Run(eps.Endpoints, RuntimeConfig{
		Samples: 4, IAT: Duration(3 * time.Second), WarmupDiscard: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Warm deterministic latency 28ms + configured 300ms busy spin.
	if med := res.Latencies.Median(); med != 328*time.Millisecond {
		t.Fatalf("median = %v, want 328ms", med)
	}
}

func TestFanoutThroughDeployer(t *testing.T) {
	h := newHarness(t)
	eps, err := h.deployer.Deploy(&StaticConfig{Provider: "sim", Functions: []FunctionConfig{{
		Name: "sg", Runtime: "go1.x", Method: "zip",
		Chain: &ChainConfig{Length: 2, Transfer: "inline", PayloadBytes: 1 << 10, Fanout: 3},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.client.Run(eps.Endpoints, RuntimeConfig{
		Samples: 3, IAT: Duration(3 * time.Second), WarmupDiscard: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("errors = %d", res.Errors)
	}
	if got := h.cloud.Metrics().InternalInvocations; got != 12 {
		t.Fatalf("internal invocations = %d, want 12 (4 requests x fanout 3)", got)
	}
}
