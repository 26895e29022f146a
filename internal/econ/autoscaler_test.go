package econ

import (
	"math"
	"strings"
	"testing"
	"time"
)

func validASConfig() AutoscalerConfig {
	return AutoscalerConfig{
		Target:          1,
		TickInterval:    2 * time.Second,
		ScaleDownWindow: time.Minute,
	}
}

func TestAutoscalerConfigValidate(t *testing.T) {
	valid := validASConfig()
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*AutoscalerConfig)
		want string
	}{
		{"zero target", func(c *AutoscalerConfig) { c.Target = 0 }, "target"},
		{"negative target", func(c *AutoscalerConfig) { c.Target = -1 }, "target"},
		{"nan target", func(c *AutoscalerConfig) { c.Target = nan() }, "target"},
		{"inf target", func(c *AutoscalerConfig) { c.Target = inf() }, "target"},
		{"zero tick", func(c *AutoscalerConfig) { c.TickInterval = 0 }, "tick interval"},
		{"window below tick", func(c *AutoscalerConfig) { c.ScaleDownWindow = time.Second }, "scale-down window"},
		{"negative panic factor", func(c *AutoscalerConfig) { c.PanicFactor = -1 }, "panic factor"},
		{"nan panic factor", func(c *AutoscalerConfig) { c.PanicFactor = nan() }, "panic factor"},
		{"negative panic window", func(c *AutoscalerConfig) { c.PanicWindow = -time.Second }, "panic window"},
		{"negative up step", func(c *AutoscalerConfig) { c.MaxScaleUpStep = -1 }, "step"},
		{"negative down step", func(c *AutoscalerConfig) { c.MaxScaleDownStep = -1 }, "step"},
	}
	for _, tc := range cases {
		cfg := validASConfig()
		tc.mut(&cfg)
		err := cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want error containing %q", tc.name, err, tc.want)
		}
	}
}

func TestAutoscalerDefaults(t *testing.T) {
	a := NewAutoscaler(validASConfig())
	cfg := a.Config()
	if cfg.PanicFactor != 2 {
		t.Errorf("default panic factor = %v, want 2", cfg.PanicFactor)
	}
	if cfg.PanicWindow != 6*cfg.TickInterval {
		t.Errorf("default panic window = %v, want %v", cfg.PanicWindow, 6*cfg.TickInterval)
	}
	if got := len(a.ring); got != 30 {
		t.Errorf("ring slots = %d, want 30 (60s window / 2s tick)", got)
	}
}

func TestAutoscalerRingMinOneSlot(t *testing.T) {
	cfg := validASConfig()
	cfg.ScaleDownWindow = cfg.TickInterval // exactly one slot
	a := NewAutoscaler(cfg)
	if len(a.ring) != 1 {
		t.Fatalf("ring slots = %d, want 1", len(a.ring))
	}
}

func TestAutoscalerScaleUpImmediate(t *testing.T) {
	a := NewAutoscaler(validASConfig())
	d := a.Observe(0, 4, 1)
	if d.Desired != 4 {
		t.Fatalf("desired = %d, want 4 (target 1, inflight 4)", d.Desired)
	}
}

func TestAutoscalerTargetDivision(t *testing.T) {
	cfg := validASConfig()
	cfg.Target = 2.5
	a := NewAutoscaler(cfg)
	if d := a.Observe(0, 5, 2); d.Desired != 2 {
		t.Errorf("ceil(5/2.5) = %d, want 2", d.Desired)
	}
	if d := a.Observe(0, 6, 2); d.Desired != 3 {
		t.Errorf("ceil(6/2.5) = %d, want 3", d.Desired)
	}
	if d := a.Observe(0, 0, 3); d.Desired != 3 {
		// windowMax still holds 3 from the prior sample in this slot.
		t.Errorf("zero inflight within window: desired = %d, want 3", d.Desired)
	}
}

// TestAutoscalerTinyTargetSaturates: a quotient beyond int range saturates
// instead of wrapping negative, so the function still scales up.
func TestAutoscalerTinyTargetSaturates(t *testing.T) {
	cfg := validASConfig()
	cfg.Target = 1e-300
	a := NewAutoscaler(cfg)
	if d := a.Observe(0, 5, 0); d.Desired != math.MaxInt32 {
		t.Fatalf("desired = %d, want math.MaxInt32 (saturated)", d.Desired)
	}
}

func TestAutoscalerScaleDownWaitsForWindow(t *testing.T) {
	cfg := validASConfig()
	a := NewAutoscaler(cfg)
	tick := int64(cfg.TickInterval)
	// Burst to 8 at t=0.
	if d := a.Observe(0, 8, 8); d.Desired != 8 {
		t.Fatalf("burst desired = %d, want 8", d.Desired)
	}
	// Ticks with zero inflight: windowed max keeps desired at 8 until the
	// burst sample ages out of the 30-slot window.
	for i := int64(1); i < 30; i++ {
		if d := a.Tick(i*tick, 0, 8); d.Desired != 8 {
			t.Fatalf("tick %d: desired = %d, want 8 (window not drained)", i, d.Desired)
		}
	}
	if d := a.Tick(30*tick, 0, 8); d.Desired != 0 {
		t.Fatalf("after window drained: desired = %d, want 0", d.Desired)
	}
}

func TestAutoscalerObserveNeverScalesDown(t *testing.T) {
	cfg := validASConfig()
	cfg.ScaleDownWindow = cfg.TickInterval
	a := NewAutoscaler(cfg)
	a.Observe(0, 8, 8)
	// Far in the future, window empty: Observe reports the low desired but
	// callers only scale up toward it; the contract tested here is that the
	// tick=false path never applies MaxScaleDownStep flooring.
	cfg2 := validASConfig()
	cfg2.ScaleDownWindow = cfg2.TickInterval
	cfg2.MaxScaleDownStep = 1
	b := NewAutoscaler(cfg2)
	b.Observe(0, 8, 8)
	far := int64(time.Hour)
	if d := b.Observe(far, 0, 8); d.Desired != 0 {
		t.Fatalf("observe floor applied on non-tick path: desired = %d, want 0", d.Desired)
	}
	if d := b.Tick(far+int64(cfg2.TickInterval), 0, 8); d.Desired != 7 {
		t.Fatalf("tick with MaxScaleDownStep=1: desired = %d, want 7", d.Desired)
	}
}

func TestAutoscalerMaxScaleUpStep(t *testing.T) {
	cfg := validASConfig()
	cfg.MaxScaleUpStep = 2
	cfg.PanicFactor = 0.5 // sentinel below 1 after defaults? no: withDefaults only fills 0
	a := NewAutoscaler(cfg)
	if got := a.Config().PanicFactor; got != 0.5 {
		t.Fatalf("explicit panic factor overwritten: %v", got)
	}
	if d := a.Observe(0, 10, 1); d.Desired != 3 {
		t.Fatalf("capped scale-up: desired = %d, want 3 (current 1 + step 2)", d.Desired)
	}
}

func TestAutoscalerPanicMode(t *testing.T) {
	cfg := validASConfig()
	a := NewAutoscaler(cfg)
	tick := int64(cfg.TickInterval)
	// inflight 6 vs current 2: raw 6 >= 2*2 -> panic.
	d := a.Observe(0, 6, 2)
	if !d.Panic || d.Desired != 6 {
		t.Fatalf("burst: got %+v, want panic desired 6", d)
	}
	// During panic, desired never drops below current even if the window
	// would allow it (use a fresh far-future slot to clear the window).
	// Panic window is 6 ticks (12s) from the last trigger.
	if d := a.Tick(2*tick, 0, 6); !d.Panic || d.Desired != 6 {
		t.Fatalf("in panic: got %+v, want panic desired 6", d)
	}
	// After the panic window expires panic clears; the 0-inflight ticks keep
	// the window populated with low samples, but the burst slot (tick 0) is
	// still inside the 30-slot scale-down window, so desired stays 6 via
	// windowMax until that ages out too.
	if d := a.Tick(7*tick, 0, 6); d.Panic {
		t.Fatalf("panic did not exit after panic window: %+v", d)
	}
	if d := a.Tick(31*tick, 0, 6); d.Desired != 0 {
		t.Fatalf("after both windows drained: got %+v, want desired 0", d)
	}
}

func TestAutoscalerPanicPeakSticks(t *testing.T) {
	cfg := validASConfig()
	a := NewAutoscaler(cfg)
	tick := int64(cfg.TickInterval)
	a.Observe(0, 10, 2) // panic, peak 10
	// Demand collapses next slot but panic persists: desired pinned to peak.
	// windowMax still sees 10 anyway; the pin matters versus current.
	if d := a.Tick(tick, 1, 10); !d.Panic || d.Desired != 10 {
		t.Fatalf("panic peak: got %+v, want desired 10", d)
	}
	// A bigger burst during panic refreshes the trigger time and the peak.
	if d := a.Observe(2*tick, 30, 10); !d.Panic || d.Desired != 30 {
		t.Fatalf("re-trigger: got %+v, want desired 30", d)
	}
}

func TestAutoscalerPanicDisabled(t *testing.T) {
	cfg := validASConfig()
	cfg.PanicFactor = 0.5 // < 1 disables panic entirely
	a := NewAutoscaler(cfg)
	if d := a.Observe(0, 100, 1); d.Panic {
		t.Fatalf("panic fired with factor < 1: %+v", d)
	}
}

func TestAutoscalerReset(t *testing.T) {
	a := NewAutoscaler(validASConfig())
	a.Observe(0, 50, 1)
	a.Reset()
	if d := a.Observe(0, 0, 0); d.Desired != 0 || d.Panic {
		t.Fatalf("after reset: got %+v, want zero decision", d)
	}
}

func TestAutoscalerZeroAlloc(t *testing.T) {
	a := NewAutoscaler(validASConfig())
	tick := int64(a.Config().TickInterval)
	allocs := testing.AllocsPerRun(100, func() {
		a.Observe(3*tick, 7, 2)
		a.Tick(4*tick, 1, 7)
	})
	if allocs != 0 {
		t.Fatalf("Observe+Tick allocated %v per run, want 0", allocs)
	}
}

func nan() float64 { return math.NaN() }
func inf() float64 { return math.Inf(1) }
