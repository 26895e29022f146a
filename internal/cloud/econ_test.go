package cloud

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"github.com/stellar-repro/stellar/internal/des"
	"github.com/stellar-repro/stellar/internal/dist"
	"github.com/stellar-repro/stellar/internal/econ"
)

// econConfig is testConfig with the autoscaler control plane enabled.
func econConfig(suspend bool) Config {
	cfg := testConfig()
	cfg.Autoscaler = &econ.AutoscalerConfig{
		Target:          1,
		TickInterval:    500 * time.Millisecond,
		ScaleDownWindow: 2 * time.Second,
		Suspend:         suspend,
	}
	cfg.ResumeDelay = dist.Constant(30 * time.Millisecond)
	return cfg
}

// runPoisson drives n invocations of each named function at a fixed spacing
// and returns per-function success/error counts.
func runOpenLoop(eng *des.Engine, c *Cloud, fns []string, n int, gap time.Duration) (oks, errs []int) {
	oks = make([]int, len(fns))
	errs = make([]int, len(fns))
	for fi, name := range fns {
		fi, name := fi, name
		for i := 0; i < n; i++ {
			at := time.Duration(i) * gap
			eng.At(at, func() {
				c.InvokeAsync(&Request{Fn: name}, func(_ *Response, err error) {
					if err != nil {
						errs[fi]++
					} else {
						oks[fi]++
					}
				})
			})
		}
	}
	eng.Run(0)
	return oks, errs
}

// TestBillingConservation pins the conservation invariant: every GB-ms and
// every request lands in exactly one tenant meter and the fleet meter, so
// the per-tenant sum equals the fleet total to float-ordering precision.
func TestBillingConservation(t *testing.T) {
	eng, c := newTestCloud(t, econConfig(true))
	names := []string{"a", "b", "c"}
	for i, name := range names {
		deploy(t, c, FunctionSpec{Name: name, ExecTime: time.Duration(i+1) * 10 * time.Millisecond})
	}
	runOpenLoop(eng, c, names, 40, 150*time.Millisecond)

	total := c.Usage()
	var sum econ.Usage
	for _, name := range names {
		u, ok := c.FunctionUsage(name)
		if !ok {
			t.Fatalf("no usage for %s", name)
		}
		sum.Add(u)
	}
	relEq := func(a, b float64) bool {
		if a == b {
			return true
		}
		return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
	}
	if !relEq(sum.BusyGBms, total.BusyGBms) || !relEq(sum.IdleGBms, total.IdleGBms) ||
		!relEq(sum.SuspendedGBms, total.SuspendedGBms) || sum.Requests != total.Requests {
		t.Fatalf("conservation broken:\n tenants sum %+v\n fleet total %+v", sum, total)
	}
	if total.BusyGBms <= 0 || total.Requests == 0 {
		t.Fatalf("no usage accumulated: %+v", total)
	}
	// A plan prices the same usage whether summed per tenant or fleet-wide.
	plan, err := econ.Plan("provisioned")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := plan.Price(sum).Total, plan.Price(total).Total; !relEq(got, want) {
		t.Fatalf("priced totals diverge: %v vs %v", got, want)
	}
}

// TestSuspendResumeChurn is the never-lose-an-instance invariant: across a
// bursty on/off workload that repeatedly suspends and resumes, every
// suspended instance is either resumed or still parked, worker occupancy
// matches the live set, and the simulation quiesces with no pending events.
func TestSuspendResumeChurn(t *testing.T) {
	eng, c := newTestCloud(t, econConfig(true))
	deploy(t, c, FunctionSpec{Name: "churn", ExecTime: 5 * time.Millisecond})

	var errs int
	// Five bursts separated by gaps longer than the scale-down window, so
	// each gap drains the fleet to suspended and each burst resumes it.
	for burst := 0; burst < 5; burst++ {
		base := time.Duration(burst) * 10 * time.Second
		for i := 0; i < 12; i++ {
			at := base + time.Duration(i)*20*time.Millisecond
			eng.At(at, func() {
				c.InvokeAsync(&Request{Fn: "churn"}, func(_ *Response, err error) {
					if err != nil {
						errs++
					}
				})
			})
		}
	}
	eng.Run(0)

	if errs != 0 {
		t.Fatalf("%d invocations failed", errs)
	}
	if n := eng.PendingEvents(); n != 0 {
		t.Fatalf("%d events still pending after quiesce", n)
	}
	m := c.Metrics()
	if m.Suspends == 0 || m.Resumes == 0 {
		t.Fatalf("churn exercised no suspend/resume: %+v", m)
	}
	susp := c.SuspendedInstances("churn")
	if int(m.Suspends)-int(m.Resumes) != susp {
		t.Fatalf("instance leak: %d suspends - %d resumes != %d parked",
			m.Suspends, m.Resumes, susp)
	}
	live := c.LiveInstances("churn")
	occupancy := 0
	for _, w := range c.Workers() {
		occupancy += w.Instances
	}
	if occupancy != live {
		t.Fatalf("worker occupancy %d != live instances %d", occupancy, live)
	}
	// Resumed instances serve warm: far fewer cold serves than bursts×size.
	if m.Resumes > 0 && m.ColdServed >= m.WarmServed {
		t.Fatalf("resume did not preserve warmth: cold %d, warm %d", m.ColdServed, m.WarmServed)
	}
	u := c.Usage()
	if u.SuspendedGBms <= 0 {
		t.Fatalf("suspended time never billed: %+v", u)
	}
}

// TestResumeFasterThanCold pins the lifecycle ordering that motivates the
// suspended state: a resume costs ResumeDelay, far below the cold-boot
// pipeline, and the resumed instance serves warm.
func TestResumeFasterThanCold(t *testing.T) {
	eng, c := newTestCloud(t, econConfig(true))
	deploy(t, c, FunctionSpec{Name: "f", ExecTime: 5 * time.Millisecond})

	cold := invokeAt(eng, c, 0, &Request{Fn: "f"})
	// Well past the scale-down window: the instance is suspended by then.
	resumed := invokeAt(eng, c, 20*time.Second, &Request{Fn: "f"})
	eng.Run(0)

	if cold.err != nil || resumed.err != nil {
		t.Fatalf("errors: %v, %v", cold.err, resumed.err)
	}
	if !cold.resp.Cold {
		t.Fatal("first invocation not cold")
	}
	if resumed.resp.Cold {
		t.Fatal("post-suspend invocation served cold: resume lost instance state")
	}
	m := c.Metrics()
	if m.Suspends == 0 || m.Resumes == 0 {
		t.Fatalf("suspend/resume not exercised: %+v", m)
	}
	if resumed.lat >= cold.lat {
		t.Fatalf("resume latency %v not below cold latency %v", resumed.lat, cold.lat)
	}
}

// TestAutoscalerEvict covers Suspend=false: scale-down evicts outright, so
// a revival after idleness is a full cold start and nothing stays parked.
func TestAutoscalerEvict(t *testing.T) {
	eng, c := newTestCloud(t, econConfig(false))
	deploy(t, c, FunctionSpec{Name: "f", ExecTime: 5 * time.Millisecond})

	first := invokeAt(eng, c, 0, &Request{Fn: "f"})
	second := invokeAt(eng, c, 20*time.Second, &Request{Fn: "f"})
	eng.Run(0)

	if first.err != nil || second.err != nil {
		t.Fatalf("errors: %v, %v", first.err, second.err)
	}
	if !second.resp.Cold {
		t.Fatal("eviction mode kept the instance alive past the window")
	}
	m := c.Metrics()
	if m.Suspends != 0 || m.Resumes != 0 {
		t.Fatalf("eviction mode suspended: %+v", m)
	}
	if m.Expirations == 0 {
		t.Fatal("scale-down never evicted")
	}
	if c.SuspendedInstances("f") != 0 {
		t.Fatal("suspended pool non-empty in eviction mode")
	}
}

// TestAutoscalerTinyTargetCapped: a Target so small that ceil(inflight /
// Target) leaves int range must still scale up, to the instance cap, and
// drain. Before the decision saturated it converted to a negative count,
// nothing spawned, the buffered requests never ran and the tick re-armed
// forever; the bounded Run turns that hang into a failure.
func TestAutoscalerTinyTargetCapped(t *testing.T) {
	cfg := econConfig(false)
	cfg.Autoscaler.Target = 1e-300
	eng, c := newTestCloud(t, cfg)
	deploy(t, c, FunctionSpec{Name: "f", ExecTime: 5 * time.Millisecond, MaxInstances: 2})

	const n = 20
	served := 0
	for i := 0; i < n; i++ {
		eng.CallAt(time.Duration(i)*time.Millisecond, func() {
			c.InvokeAsync(&Request{Fn: "f"}, func(_ *Response, err error) {
				if err != nil {
					t.Error(err)
				}
				served++
			})
		})
	}
	eng.Run(10 * time.Minute)
	if served != n {
		t.Fatalf("served %d of %d requests", served, n)
	}
	if pe := eng.PendingEvents(); pe != 0 {
		t.Fatalf("%d events still pending after the run", pe)
	}
}

// TestConcurrencyLimit pins per-tenant admission control in both execution
// forms: with MaxConcurrent=2, a 5-wide simultaneous burst admits 2 and
// rejects 3 with ErrConcurrencyLimit.
func TestConcurrencyLimit(t *testing.T) {
	for _, form := range invokeForms {
		t.Run(form.name, func(t *testing.T) {
			eng, c := newTestCloud(t, testConfig())
			deploy(t, c, FunctionSpec{Name: "f", ExecTime: 50 * time.Millisecond, MaxConcurrent: 2})
			var oks, rejects, others int
			for i := 0; i < 5; i++ {
				eng.At(0, func() {
					form.invoke(c, &Request{Fn: "f"}, func(_ *Response, err error) {
						switch {
						case err == nil:
							oks++
						case errors.Is(err, ErrConcurrencyLimit):
							rejects++
						default:
							others++
						}
					})
				})
			}
			eng.Run(0)
			if oks != 2 || rejects != 3 || others != 0 {
				t.Fatalf("oks=%d rejects=%d others=%d, want 2/3/0", oks, rejects, others)
			}
			m := c.Metrics()
			if m.ConcurrencyRejects != 3 {
				t.Fatalf("ConcurrencyRejects = %d, want 3", m.ConcurrencyRejects)
			}
			tm, _ := c.FunctionMetrics("f")
			if tm.Errors != 3 {
				t.Fatalf("tenant errors = %d, want 3", tm.Errors)
			}
			u, _ := c.FunctionUsage("f")
			if u.Requests != 5 {
				t.Fatalf("metered requests = %d, want 5 (rejects still billed a request)", u.Requests)
			}
		})
	}
}

// econFingerprint summarizes a run for byte-identity comparisons; billed is
// the sum of the run's per-response bills, in completion order.
func econFingerprint(c *Cloud, lats []time.Duration, billed float64) string {
	m := c.Metrics()
	u := c.Usage()
	s := fmt.Sprintf("inv=%d cold=%d warm=%d spawns=%d susp=%d res=%d rej=%d gbs=%.9f busy=%.6f idle=%.6f sus=%.6f req=%d",
		m.Invocations, m.ColdServed, m.WarmServed, m.Spawns, m.Suspends, m.Resumes,
		m.ConcurrencyRejects, billed, u.BusyGBms, u.IdleGBms, u.SuspendedGBms, u.Requests)
	for _, l := range lats {
		s += fmt.Sprintf(" %d", l)
	}
	return s
}

// TestEconFormsEquivalent extends the proc/callback equivalence contract to
// the autoscaler control plane: the same bursty workload in the proc form
// and through InvokeAsync produces identical latencies, counters, and usage.
func TestEconFormsEquivalent(t *testing.T) {
	run := func(invoke func(*Cloud, *Request, func(*Response, error))) string {
		eng := des.NewEngine()
		defer eng.Close()
		c, err := New(eng, econConfig(true), dist.NewStreams(7))
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Deploy(FunctionSpec{
			Name: "f", Runtime: RuntimePython, Method: DeployZIP,
			ExecTime: 8 * time.Millisecond, MaxConcurrent: 24,
		}); err != nil {
			t.Fatal(err)
		}
		var lats []time.Duration
		var billed float64
		for burst := 0; burst < 3; burst++ {
			base := time.Duration(burst) * 8 * time.Second
			for i := 0; i < 10; i++ {
				at := base + time.Duration(i)*5*time.Millisecond
				eng.At(at, func() {
					start := eng.Now()
					invoke(c, &Request{Fn: "f"}, func(resp *Response, err error) {
						if err == nil {
							lats = append(lats, eng.Now()-start)
							billed += resp.BilledGBSeconds
						} else {
							lats = append(lats, -1)
						}
					})
				})
			}
		}
		eng.Run(0)
		return econFingerprint(c, lats, billed)
	}
	proc, callback := run(invokeProc), run((*Cloud).InvokeAsync)
	if proc != callback {
		t.Fatalf("forms diverge under autoscaler:\n proc:     %s\n callback: %s", proc, callback)
	}
}

// TestBillingPassiveByteIdentical pins the golden-safety contract for the
// billing meter: enabling Config.Billing (with no autoscaler) changes no
// schedule, latency, or counter — metering is pure arithmetic on
// transitions the simulator already performs.
func TestBillingPassiveByteIdentical(t *testing.T) {
	run := func(withBilling bool) string {
		cfg := testConfig()
		if withBilling {
			plan, err := econ.Plan("ondemand")
			if err != nil {
				t.Fatal(err)
			}
			cfg.Billing = &plan
		}
		eng := des.NewEngine()
		defer eng.Close()
		c, err := New(eng, cfg, dist.NewStreams(3))
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Deploy(FunctionSpec{
			Name: "f", Runtime: RuntimePython, Method: DeployZIP,
			ExecTime: 10 * time.Millisecond,
		}); err != nil {
			t.Fatal(err)
		}
		var lats []time.Duration
		var billed float64
		for i := 0; i < 30; i++ {
			at := time.Duration(i) * 120 * time.Millisecond
			eng.At(at, func() {
				start := eng.Now()
				c.InvokeAsync(&Request{Fn: "f"}, func(resp *Response, err error) {
					if err == nil {
						lats = append(lats, eng.Now()-start)
						billed += resp.BilledGBSeconds
					}
				})
			})
		}
		eng.Run(0)
		return econFingerprint(c, lats, billed)
	}
	if off, on := run(false), run(true); off != on {
		t.Fatalf("billing config perturbed the schedule:\n off: %s\n on:  %s", off, on)
	}
}

// TestBillEndToEnd covers Cloud.Bill: priced usage under the configured
// plan, and false when no plan is configured.
func TestBillEndToEnd(t *testing.T) {
	cfg := econConfig(true)
	plan, err := econ.Plan("provisioned")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Billing = &plan
	eng, c := newTestCloud(t, cfg)
	deploy(t, c, FunctionSpec{Name: "f", ExecTime: 20 * time.Millisecond})
	runOpenLoop(eng, c, []string{"f"}, 20, 100*time.Millisecond)
	cost, ok := c.Bill()
	if !ok {
		t.Fatal("Bill reported no plan")
	}
	if cost.Total <= 0 || cost.Compute <= 0 || cost.Requests <= 0 {
		t.Fatalf("bill missing dimensions: %+v", cost)
	}
	wantTotal := cost.Compute + cost.Idle + cost.Suspended + cost.Requests
	if math.Abs(cost.Total-wantTotal) > 1e-12 {
		t.Fatalf("total %v != sum of parts %v", cost.Total, wantTotal)
	}

	_, c2 := newTestCloud(t, testConfig())
	if _, ok := c2.Bill(); ok {
		t.Fatal("Bill priced without a configured plan")
	}
}

// TestEconRemoveReapsSuspended ensures Remove folds and reaps the suspended
// pool so tenant teardown leaks nothing.
func TestEconRemoveReapsSuspended(t *testing.T) {
	eng, c := newTestCloud(t, econConfig(true))
	deploy(t, c, FunctionSpec{Name: "f", ExecTime: 5 * time.Millisecond})
	runOpenLoop(eng, c, []string{"f"}, 5, 10*time.Millisecond)
	if c.SuspendedInstances("f") == 0 {
		t.Fatal("workload left nothing suspended")
	}
	before := c.Usage()
	if err := c.Remove("f"); err != nil {
		t.Fatal(err)
	}
	eng.Run(0)
	if n := eng.PendingEvents(); n != 0 {
		t.Fatalf("%d events pending after Remove", n)
	}
	after := c.Usage()
	if after.SuspendedGBms < before.SuspendedGBms {
		t.Fatal("Remove lost suspended usage")
	}
	// The record pool accepts and redeploys the reaped tenant.
	deploy(t, c, FunctionSpec{Name: "g"})
	if c.SuspendedInstances("g") != 0 {
		t.Fatal("recycled record kept suspended instances")
	}
}

// TestAutoscalerConfigValidationSurface pins Config-level validation of the
// econ sections.
func TestAutoscalerConfigValidationSurface(t *testing.T) {
	cfg := testConfig()
	cfg.Autoscaler = &econ.AutoscalerConfig{Target: -1}
	eng := des.NewEngine()
	defer eng.Close()
	if _, err := New(eng, cfg, dist.NewStreams(1)); err == nil {
		t.Fatal("bad autoscaler target accepted")
	}
	cfg = testConfig()
	cfg.Billing = &econ.BillingConfig{BusyGBmsRate: math.Inf(1)}
	if _, err := New(eng, cfg, dist.NewStreams(1)); err == nil {
		t.Fatal("bad billing rate accepted")
	}
	_, c := newTestCloud(t, testConfig())
	if err := c.Deploy(FunctionSpec{Name: "f", Runtime: RuntimePython, Method: DeployZIP, MaxConcurrent: -1}); err == nil {
		t.Fatal("negative MaxConcurrent accepted")
	}
}
