package cloud

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"github.com/stellar-repro/stellar/internal/des"
	"github.com/stellar-repro/stellar/internal/dist"
)

// TestQuickInvocationInvariants drives randomized schedules through all
// three scheduling policies and checks structural invariants that must hold
// for any workload:
//
//   - every response's breakdown sums exactly to its observed latency;
//   - cold + warm served equals total invocations (incl. internal);
//   - spawned instances never exceed invocations;
//   - billed GB-seconds and the metered GB-ms are non-negative;
//   - queue waits are non-negative.
func TestQuickInvocationInvariants(t *testing.T) {
	policies := []PolicyConfig{
		{Kind: PolicyNoQueue},
		{Kind: PolicyBoundedQueue, MaxQueuePerInstance: 3},
		{Kind: PolicyRateLimited, MaxQueuePerInstance: 5, InitialTokens: 1,
			MaxTokens: 2, TokensPerSec: 1, EvalInterval: 500 * time.Millisecond},
	}
	f := func(seed int64, polRaw, nRaw, burstRaw uint8, execMs uint16) bool {
		policy := policies[int(polRaw)%len(policies)]
		n := int(nRaw)%40 + 1
		burst := int(burstRaw)%8 + 1
		exec := time.Duration(execMs%2000) * time.Millisecond

		cfg := testConfig()
		cfg.Policy = policy
		cfg.CongestionThreshold = 1
		cfg.CongestionUnit = time.Millisecond
		cfg.SlowPathProbPerInflight = 0.01
		cfg.SlowPathMaxProb = 0.2
		cfg.SlowPathDelay = dist.Constant(100 * time.Millisecond)
		if policy.Kind != PolicyNoQueue {
			cfg.QueueHandoffDelay = dist.Constant(2 * time.Millisecond)
		}
		eng := des.NewEngine()
		defer eng.Close()
		c, err := New(eng, cfg, dist.NewStreams(seed))
		if err != nil {
			return false
		}
		if err := c.Deploy(FunctionSpec{Name: "f", Runtime: RuntimePython, Method: DeployZIP}); err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		var results []*result
		at := time.Duration(0)
		for i := 0; i < n; i++ {
			for b := 0; b < burst; b++ {
				results = append(results, invokeAt(eng, c, at, &Request{Fn: "f", ExecTime: exec}))
			}
			at += time.Duration(rng.Intn(5000)) * time.Millisecond
		}
		eng.Run(at + time.Hour)

		colds := 0
		for _, r := range results {
			if r.err != nil || r.resp == nil {
				return false
			}
			if r.resp.Breakdown.Total() != r.lat {
				t.Logf("breakdown %v != latency %v", r.resp.Breakdown.Total(), r.lat)
				return false
			}
			if r.resp.QueueWait < 0 || r.lat < 0 || r.resp.BilledGBSeconds < 0 {
				return false
			}
			if r.resp.Cold {
				colds++
			}
		}
		m := c.Metrics()
		if m.ColdServed+m.WarmServed != m.Invocations+m.InternalInvocations {
			return false
		}
		if int(m.ColdServed) != colds {
			return false
		}
		if m.Spawns < m.ColdServed {
			// Every cold-serve requires a spawn (spawns may exceed colds
			// when pre-spawned instances park unused).
			return false
		}
		if u := c.Usage(); u.BusyGBms < 0 || u.IdleGBms < 0 || u.SuspendedGBms < 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickChainInvariants checks chained invocations: timestamps are
// ordered and transfer times are consistent for random payloads/transports.
func TestQuickChainInvariants(t *testing.T) {
	f := func(seed int64, payloadRaw uint32, storage bool) bool {
		payload := int64(payloadRaw%(4<<20)) + 1
		transfer := TransferInline
		if storage {
			transfer = TransferStorage
		}
		eng := des.NewEngine()
		defer eng.Close()
		c, err := New(eng, testConfig(), dist.NewStreams(seed))
		if err != nil {
			return false
		}
		if err := c.Deploy(FunctionSpec{Name: "b", Runtime: RuntimeGo, Method: DeployZIP}); err != nil {
			return false
		}
		if err := c.Deploy(FunctionSpec{Name: "a", Runtime: RuntimeGo, Method: DeployZIP,
			Chain: &ChainSpec{Next: "b", Transfer: transfer, PayloadBytes: payload}}); err != nil {
			return false
		}
		r := invokeAt(eng, c, 0, &Request{Fn: "a"})
		eng.Run(time.Hour)
		if r.err != nil {
			return false
		}
		send, okS := r.resp.Timestamps["a.send"]
		recv, okR := r.resp.Timestamps["b.recv"]
		aRecv, okA := r.resp.Timestamps["a.recv"]
		if !okS || !okR || !okA {
			return false
		}
		if aRecv > send || send > recv {
			return false
		}
		xfer, ok := r.resp.TransferTime("a", "b")
		if !ok || xfer != recv-send || xfer <= 0 {
			return false
		}
		// Transfer is bounded by the producer's downstream time plus the
		// PUT (for storage transfers, the PUT precedes the invoke).
		if xfer > r.resp.Breakdown.Downstream+r.resp.Breakdown.PayloadStore {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
