package cloud

import (
	"math/rand"
	"testing"
	"time"

	"github.com/stellar-repro/stellar/internal/des"
)

// Keep-alive expiry is lazy: reusing an idle instance only moves its
// deadline, and the one pending timer re-arms itself at that deadline when
// it fires early. These tests pin that the laziness is invisible: every
// expiry lands where a timer re-armed on every release would have put it.

// kaCloud is a single-function cloud under a keep-alive policy.
func kaCloud(t *testing.T, ka KeepAlivePolicy) (*des.Engine, *Cloud) {
	t.Helper()
	cfg := testConfig()
	cfg.KeepAlive = ka
	eng, c := newTestCloud(t, cfg)
	deploy(t, c, FunctionSpec{Name: "f"})
	return eng, c
}

// releases records the instant each completed request released its
// instance: the response instant minus the response path and the return
// propagation leg.
type releases []des.Time

func (r *releases) invokeAt(eng *des.Engine, c *Cloud, at time.Duration, req Request) {
	eng.CallAt(at, func() {
		c.InvokeAsync(&req, func(resp *Response, err error) {
			if err != nil {
				panic(err)
			}
			*r = append(*r, eng.Now()-resp.Breakdown.ResponsePath-c.cfg.PropagationRTT/2)
		})
	})
}

func (r releases) last() des.Time { return r[len(r)-1] }

// expiresAt runs the engine to just before at and then to at, asserting
// that fn's one instance is live at the first stop and reaped at the second.
func expiresAt(t *testing.T, eng *des.Engine, c *Cloud, fn string, at des.Time) {
	t.Helper()
	eng.Run(at - 1)
	if n := c.LiveInstances(fn); n != 1 {
		t.Fatalf("%s: %d live instances at %v, want 1 until the expiry at %v", fn, n, at-1, at)
	}
	eng.Run(at)
	if n := c.LiveInstances(fn); n != 0 {
		t.Fatalf("%s: %d live instances at %v, want the expiry there", fn, n, at)
	}
}

// drained asserts the engine has nothing left after Run(0).
func drained(t *testing.T, eng *des.Engine) {
	t.Helper()
	eng.Run(0)
	if n := eng.PendingEvents(); n != 0 {
		t.Fatalf("%d events pending after Run(0)", n)
	}
}

// TestKeepAliveExpiresAtLastRelease: an instance reused several times
// within its keep-alive expires at its last release plus the keep-alive,
// exactly. The first timer, armed after the cold start, fires early and
// re-arms.
func TestKeepAliveExpiresAtLastRelease(t *testing.T) {
	const life = 30 * time.Second
	eng, c := kaCloud(t, KeepAlivePolicy{Fixed: life})
	var rel releases
	for _, at := range []time.Duration{0, 10 * time.Second, 20 * time.Second, 27 * time.Second} {
		rel.invokeAt(eng, c, at, Request{Fn: "f", ExecTime: 5 * time.Millisecond})
	}
	eng.Run(28 * time.Second)
	if len(rel) != 4 || c.Metrics().WarmServed != 3 {
		t.Fatalf("%d served, %d warm; want 4 and 3", len(rel), c.Metrics().WarmServed)
	}
	expiresAt(t, eng, c, "f", rel.last()+life)
	if got := c.Metrics().Expirations; got != 1 {
		t.Fatalf("%d expirations, want 1", got)
	}
	if got := eng.Stats().TimersCanceled; got != 0 {
		t.Fatalf("exact keep-alive canceled %d timers, want 0", got)
	}
	drained(t, eng)
}

// seqDist is a keep-alive distribution that returns its values in order.
type seqDist struct{ vals []time.Duration }

func (d *seqDist) Sample(*rand.Rand) time.Duration {
	v := d.vals[0]
	d.vals = d.vals[1:]
	return v
}

func (d *seqDist) String() string { return "seq" }

// TestKeepAliveShorterDistRedraw: when a Dist policy draws a life shorter
// than the pending timer's, the timer moves earlier and the instance
// expires at the shorter deadline.
func TestKeepAliveShorterDistRedraw(t *testing.T) {
	ka := KeepAlivePolicy{Dist: &seqDist{vals: []time.Duration{time.Minute, 10 * time.Second}}}
	eng, c := kaCloud(t, ka)
	var rel releases
	rel.invokeAt(eng, c, 0, Request{Fn: "f"})
	rel.invokeAt(eng, c, 5*time.Second, Request{Fn: "f"})
	eng.Run(6 * time.Second)
	if len(rel) != 2 {
		t.Fatalf("%d served, want 2", len(rel))
	}
	expiresAt(t, eng, c, "f", rel.last()+10*time.Second)
	drained(t, eng)
	if got := c.Metrics().Expirations; got != 1 {
		t.Fatalf("%d expirations, want 1", got)
	}
}

// TestKeepAliveStaleTimerOnBusyInstance: the timer armed after the cold
// start fires while a long request holds the instance. It changes nothing,
// and the next release arms a fresh timer for release plus keep-alive.
func TestKeepAliveStaleTimerOnBusyInstance(t *testing.T) {
	const life = 10 * time.Second
	eng, c := kaCloud(t, KeepAlivePolicy{Fixed: life})
	var rel releases
	rel.invokeAt(eng, c, 0, Request{Fn: "f"})
	rel.invokeAt(eng, c, 5*time.Second, Request{Fn: "f", ExecTime: 20 * time.Second})
	eng.Run(time.Second)
	firstDeadline := rel.last() + life
	eng.Run(firstDeadline)
	if n := c.LiveInstances("f"); n != 1 || len(rel) != 1 {
		t.Fatalf("at the first deadline: %d live, %d served; want the busy instance kept", n, len(rel))
	}
	eng.Run(30 * time.Second)
	if len(rel) != 2 {
		t.Fatalf("%d served, want 2", len(rel))
	}
	expiresAt(t, eng, c, "f", rel.last()+life)
	drained(t, eng)
	if m := c.Metrics(); m.Expirations != 1 || m.WarmServed != 1 {
		t.Fatalf("metrics %+v, want 1 expiration and 1 warm serve", m)
	}
}

// TestKeepAliveStaleTimerAfterLifecycleExit: an instance that leaves the
// idle pool with its timer pending — suspended, its function removed, or
// crashed while serving — is never reaped by that timer, and a later
// instance that recycles its record expires on its own deadline only.
func TestKeepAliveStaleTimerAfterLifecycleExit(t *testing.T) {
	const life = 10 * time.Second
	for name, exit := range map[string]func(c *Cloud, fn *Function){
		"suspended": func(_ *Cloud, fn *Function) { fn.suspend(fn.popOldestIdle()) },
		"removed": func(c *Cloud, _ *Function) {
			if err := c.Remove("f"); err != nil {
				t.Fatal(err)
			}
		},
		"crashed": func(_ *Cloud, fn *Function) { fn.destroy(fn.claimIdle()) },
	} {
		eng, c := kaCloud(t, KeepAlivePolicy{Fixed: life})
		deploy(t, c, FunctionSpec{Name: "g"})
		var rel releases
		rel.invokeAt(eng, c, 0, Request{Fn: "f"})
		eng.Run(2 * time.Second)
		fn := c.functions["f"]
		old := fn.idle[0]
		staleAt := rel.last() + life
		if !old.keepAlive.Pending() {
			t.Fatalf("%s: no keep-alive pending on the idle instance", name)
		}
		exit(c, fn)
		if n := eng.PendingEvents(); n != 0 {
			t.Fatalf("%s: %d events pending after the instance left the idle pool, want its timer gone", name, n)
		}
		recycled := c.instFree == old
		if name == "removed" && !recycled {
			t.Fatal("removed: the idle record was not pooled")
		}
		var relG releases
		relG.invokeAt(eng, c, 3*time.Second, Request{Fn: "g"})
		eng.Run(staleAt + time.Second)
		if recycled && old.fn != c.functions["g"] {
			t.Fatalf("%s: g's spawn did not recycle the exited record", name)
		}
		if len(relG) != 1 || c.LiveInstances("g") != 1 {
			t.Fatalf("%s: g has %d live instances after the stale deadline, want 1", name, c.LiveInstances("g"))
		}
		if got := c.Metrics().Expirations; got != 0 {
			t.Fatalf("%s: %d expirations by the stale deadline, want 0", name, got)
		}
		expiresAt(t, eng, c, "g", relG.last()+life)
		drained(t, eng)
		if name == "suspended" && c.SuspendedInstances("f") != 1 {
			t.Fatalf("suspended instance lost: %d suspended", c.SuspendedInstances("f"))
		}
		if got := c.Metrics().Expirations; got != 1 {
			t.Fatalf("%s: %d expirations, want only g's", name, got)
		}
	}
}
