package providers

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"github.com/stellar-repro/stellar/internal/cloud"
	"github.com/stellar-repro/stellar/internal/des"
	"github.com/stellar-repro/stellar/internal/dist"
)

func TestRegistryNames(t *testing.T) {
	names := Names()
	want := []string{"aws", "azure", "google"}
	if len(names) < 3 {
		t.Fatalf("names = %v", names)
	}
	for _, w := range want {
		found := false
		for _, n := range names {
			if n == w {
				found = true
			}
		}
		if !found {
			t.Errorf("provider %q missing from %v", w, names)
		}
	}
}

func TestGetUnknown(t *testing.T) {
	if _, err := Get("oracle"); err == nil {
		t.Fatal("expected error for unknown provider")
	}
}

func TestMustGetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustGet should panic on unknown provider")
		}
	}()
	MustGet("oracle")
}

func TestProfilesValidateAndBoot(t *testing.T) {
	for _, name := range []string{"aws", "google", "azure"} {
		cfg := MustGet(name)
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s profile invalid: %v", name, err)
		}
		eng := des.NewEngine()
		c, err := cloud.New(eng, cfg, dist.NewStreams(1))
		if err != nil {
			t.Errorf("%s: %v", name, err)
			eng.Close()
			continue
		}
		if err := c.Deploy(cloud.FunctionSpec{
			Name: "probe", Runtime: cloud.RuntimePython, Method: cloud.DeployZIP,
		}); err != nil {
			t.Errorf("%s deploy: %v", name, err)
		}
		eng.Close()
	}
}

func TestProfilesMatchPaperMechanisms(t *testing.T) {
	aws := MustGet("aws")
	google := MustGet("google")
	azure := MustGet("azure")

	// Propagation RTTs from §V.
	if aws.PropagationRTT.Milliseconds() != 26 ||
		google.PropagationRTT.Milliseconds() != 14 ||
		azure.PropagationRTT.Milliseconds() != 32 {
		t.Error("propagation RTTs diverge from the paper's ping measurements")
	}
	// Scheduling policies (§VI-D).
	if aws.Policy.Kind != cloud.PolicyNoQueue {
		t.Error("AWS must not queue at instances")
	}
	if azure.Policy.Kind != cloud.PolicyRateLimited {
		t.Error("Azure must rate-limit scale-out")
	}
	// AWS keeps idle instances exactly 10 minutes (§V footnote 5).
	if aws.KeepAlive.Fixed.Minutes() != 10 {
		t.Error("AWS keep-alive should be fixed at 10 minutes")
	}
	if google.KeepAlive.Fixed != 0 || google.KeepAlive.Dist == nil {
		t.Error("Google keep-alive should be stochastic")
	}
	// AWS warm generic pool equalizes ZIP runtimes (Obs. 3).
	if !aws.WarmGenericPool || google.WarmGenericPool {
		t.Error("warm generic pool: AWS yes, Google no")
	}
	// Image-store caching: AWS always-cache, Google load-adaptive.
	if !aws.ImageStore.Cache.Enabled || aws.ImageStore.Cache.ActivationCount != 1 {
		t.Error("AWS image store should cache after the first fetch")
	}
	if !google.ImageStore.Cache.Enabled || google.ImageStore.Cache.ActivationCount < 100 {
		t.Error("Google image store cache should be load-adaptive")
	}
	if azure.ImageStore.Cache.Enabled {
		t.Error("Azure image store has no caching mechanism in the model")
	}
	// Inline limits from §VI-C1.
	if aws.InlineLimitBytes != 6<<20 || google.InlineLimitBytes != 10<<20 {
		t.Error("inline size limits diverge from the paper (6MB AWS, 10MB Google)")
	}
	// Azure has the lowest image-fetch bandwidth (strongest Fig. 4 slope).
	if azure.ImageStore.GetBandwidthBps >= aws.ImageStore.GetBandwidthBps ||
		azure.ImageStore.GetBandwidthBps >= google.ImageStore.GetBandwidthBps {
		t.Error("Azure should have the slowest image fetches")
	}
	// Python container chunk loads on AWS (§VI-B3).
	if aws.ContainerChunkReads[cloud.RuntimePython] == 0 {
		t.Error("AWS Python containers should perform on-demand chunk reads")
	}
	if aws.ContainerChunkReads[cloud.RuntimeGo] != 0 {
		t.Error("AWS Go containers should not chunk-read (static binary)")
	}
}

func TestRegisterCustomProfile(t *testing.T) {
	Register("custom-test", func() cloud.Config {
		cfg := AWS()
		cfg.Name = "custom-test"
		return cfg
	})
	cfg, err := Get("custom-test")
	if err != nil || cfg.Name != "custom-test" {
		t.Fatalf("custom profile: %v %v", cfg.Name, err)
	}
	delete(registry, "custom-test")
}

func TestBaseZipBytes(t *testing.T) {
	m := BaseZipBytes()
	if m[cloud.RuntimePython] <= m[cloud.RuntimeGo] {
		t.Error("python ZIPs should be larger than Go ZIPs")
	}
}

func TestVHiveProfile(t *testing.T) {
	cfg := MustGet("vhive")
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	// The research stack lacks the production optimizations.
	if cfg.WarmGenericPool {
		t.Error("vhive should not have a warm generic pool")
	}
	if cfg.ImageStore.Cache.Enabled {
		t.Error("vhive's local registry needs no adaptive cache")
	}
	if cfg.Policy.Kind != cloud.PolicyBoundedQueue {
		t.Error("vhive should use Knative-style bounded queueing")
	}
	// Runtime choice matters on the academic stack (contrast to Obs. 3):
	// python init is much slower than Go. Compare medians over fresh
	// functions, each invoked once so every call is a cold start, rather
	// than a single draw per runtime.
	eng := des.NewEngine()
	defer eng.Close()
	c, err := cloud.New(eng, cfg, dist.NewStreams(5))
	if err != nil {
		t.Fatal(err)
	}
	const colds = 31
	runtimes := []cloud.Runtime{cloud.RuntimePython, cloud.RuntimeGo}
	lats := make(map[cloud.Runtime][]time.Duration, len(runtimes))
	for _, rt := range runtimes {
		for i := 0; i < colds; i++ {
			spec := cloud.FunctionSpec{Name: fmt.Sprintf("%s-%d", rt, i), Runtime: rt, Method: cloud.DeployZIP}
			if err := c.Deploy(spec); err != nil {
				t.Fatal(err)
			}
		}
	}
	eng.Spawn("t", func(p *des.Proc) {
		for _, rt := range runtimes {
			for i := 0; i < colds; i++ {
				t0 := p.Now()
				if _, err := c.Invoke(p, &cloud.Request{Fn: fmt.Sprintf("%s-%d", rt, i)}); err != nil {
					t.Error(err)
				}
				lats[rt] = append(lats[rt], p.Now()-t0)
			}
		}
	})
	eng.Run(time.Hour)
	median := func(ds []time.Duration) time.Duration {
		if len(ds) == 0 {
			return 0
		}
		slices.Sort(ds)
		return ds[len(ds)/2]
	}
	pyMed, goMed := median(lats[cloud.RuntimePython]), median(lats[cloud.RuntimeGo])
	if pyMed < goMed+100*time.Millisecond {
		t.Errorf("vhive median python cold %v should clearly exceed go %v over %d cold starts each (no warm pool)",
			pyMed, goMed, colds)
	}
}
