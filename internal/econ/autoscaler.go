// Package econ models the provider control plane's economic machinery: a
// target-concurrency autoscaler (desired instances = ceil(inflight/target)
// with panic-mode bursts and asymmetric scale-up/scale-down windows), and a
// per-ms billing meter that integrates busy/idle/suspended GB-time plus
// per-request fees in virtual time. Together they turn the simulator's
// keep-alive knob into an explicit cost/latency trade-off: experiments can
// report cost-per-million-requests alongside TMR, the pairing SeBS makes a
// first-class benchmark metric.
//
// The package is pure decision logic and accounting — it never touches the
// DES engine. internal/cloud drives it from the instance-lifecycle seams
// (admission, park-idle, keep-alive/tick expiry) so that a nil config
// leaves every existing schedule byte-identical.
package econ

import (
	"fmt"
	"math"
	"time"
)

// AutoscalerConfig parameterizes the target-concurrency autoscaler. The
// shape follows Knative's KPA: desired capacity tracks observed in-flight
// concurrency divided by the per-instance target, scale-up applies
// immediately, scale-down waits for the demand to stay low across a full
// window, and a burst that overwhelms current capacity enters panic mode,
// during which the fleet never scales down.
type AutoscalerConfig struct {
	// Target is the per-instance concurrency target: desired instances =
	// ceil(inflight / Target). Must be positive and finite.
	Target float64
	// TickInterval is the evaluation cadence of the scale controller in
	// virtual time. Scale-up also triggers on demand (request arrival), so
	// the tick mostly drives scale-down and panic-exit decisions.
	TickInterval time.Duration
	// ScaleDownWindow is how long demand must stay below the current
	// capacity before surplus instances are removed: the controller scales
	// down to the maximum desired capacity observed over this window, so
	// short dips never kill instances a burst will want back.
	ScaleDownWindow time.Duration
	// PanicFactor enters panic mode when instantaneous desired capacity
	// reaches PanicFactor x current capacity (default 2; values < 1
	// disable panic mode entirely).
	PanicFactor float64
	// PanicWindow is how long panic mode persists after the last
	// panic-triggering observation (default 6 x TickInterval).
	PanicWindow time.Duration
	// MaxScaleUpStep caps instances added per evaluation (0 = unlimited).
	MaxScaleUpStep int
	// MaxScaleDownStep caps instances removed per tick (0 = unlimited).
	MaxScaleDownStep int
	// Suspend selects what happens to surplus instances on scale-down:
	// true parks them in the suspended state (resume latency well below a
	// cold boot, billed at the plan's reduced suspended rate); false
	// evicts them outright, as a pure keep-alive provider would.
	Suspend bool
}

// Validate reports configuration errors.
func (c *AutoscalerConfig) Validate() error {
	if math.IsNaN(c.Target) || math.IsInf(c.Target, 0) || c.Target <= 0 {
		return fmt.Errorf("econ: autoscaler target must be positive and finite, got %v", c.Target)
	}
	if c.TickInterval <= 0 {
		return fmt.Errorf("econ: autoscaler tick interval must be positive, got %v", c.TickInterval)
	}
	if c.ScaleDownWindow < c.TickInterval {
		return fmt.Errorf("econ: scale-down window %v below tick interval %v", c.ScaleDownWindow, c.TickInterval)
	}
	if math.IsNaN(c.PanicFactor) || math.IsInf(c.PanicFactor, 0) || c.PanicFactor < 0 {
		return fmt.Errorf("econ: panic factor must be finite and non-negative, got %v", c.PanicFactor)
	}
	if c.PanicWindow < 0 {
		return fmt.Errorf("econ: negative panic window %v", c.PanicWindow)
	}
	if c.MaxScaleUpStep < 0 || c.MaxScaleDownStep < 0 {
		return fmt.Errorf("econ: negative scale step bounds")
	}
	return nil
}

// withDefaults fills derived defaults without mutating the original.
func (c AutoscalerConfig) withDefaults() AutoscalerConfig {
	if c.PanicFactor == 0 {
		c.PanicFactor = 2
	}
	if c.PanicWindow == 0 {
		c.PanicWindow = 6 * c.TickInterval
	}
	return c
}

// Decision is one autoscaler evaluation's outcome.
type Decision struct {
	// Desired is the instance count the controller wants right now,
	// after windowing and panic rules (before any tenant caps the caller
	// applies).
	Desired int
	// Panic reports whether the controller is in panic mode.
	Panic bool
}

// Autoscaler is the per-function scale controller state: a ring of desired
// samples covering the scale-down window, plus panic-mode state. All state
// is fixed-size and reused, so Observe and Tick allocate nothing.
type Autoscaler struct {
	cfg AutoscalerConfig

	// ring holds the max desired capacity observed in each tick slot of
	// the scale-down window; slot identity is the absolute tick index so
	// stale slots are lazily cleared as the window advances.
	ring     []int
	ringTick []int64

	inPanic    bool
	panicSince int64 // virtual ns of the last panic-triggering observation
	panicPeak  int   // max desired seen during the current panic
}

// NewAutoscaler builds a controller for a validated config. The ring is
// sized once from ScaleDownWindow/TickInterval; all later operations are
// allocation-free.
func NewAutoscaler(cfg AutoscalerConfig) *Autoscaler {
	cfg = cfg.withDefaults()
	slots := int(cfg.ScaleDownWindow / cfg.TickInterval)
	if slots < 1 {
		slots = 1
	}
	a := &Autoscaler{
		cfg:      cfg,
		ring:     make([]int, slots),
		ringTick: make([]int64, slots),
	}
	a.Reset()
	return a
}

// Config returns the controller's effective (defaults-filled) config.
func (a *Autoscaler) Config() AutoscalerConfig { return a.cfg }

// Reset clears all window and panic state, as after a fresh deploy.
func (a *Autoscaler) Reset() {
	for i := range a.ring {
		a.ring[i] = 0
		a.ringTick[i] = -1
	}
	a.inPanic = false
	a.panicSince = 0
	a.panicPeak = 0
}

// rawDesired is the instantaneous desired capacity for an observed
// in-flight concurrency. A tiny Target can push the quotient past any int,
// where the float conversion is implementation-defined (negative on amd64),
// so the result saturates at math.MaxInt32; callers clamp it to their
// instance cap.
func (a *Autoscaler) rawDesired(inflight int) int {
	if inflight <= 0 {
		return 0
	}
	d := math.Ceil(float64(inflight) / a.cfg.Target)
	if d >= math.MaxInt32 {
		return math.MaxInt32
	}
	return int(d)
}

// record merges a desired sample into the tick slot covering nowNS,
// lazily clearing slots the window has advanced past.
func (a *Autoscaler) record(nowNS int64, desired int) {
	tick := nowNS / int64(a.cfg.TickInterval)
	slot := int(tick % int64(len(a.ring)))
	if a.ringTick[slot] != tick {
		a.ringTick[slot] = tick
		a.ring[slot] = desired
	} else if desired > a.ring[slot] {
		a.ring[slot] = desired
	}
}

// windowMax is the maximum desired capacity across live window slots.
func (a *Autoscaler) windowMax(nowNS int64) int {
	tick := nowNS / int64(a.cfg.TickInterval)
	lo := tick - int64(len(a.ring)) + 1
	max := 0
	for i, t := range a.ringTick {
		if t >= lo && t <= tick && a.ring[i] > max {
			max = a.ring[i]
		}
	}
	return max
}

// updatePanic enters, sustains, or exits panic mode for one observation.
func (a *Autoscaler) updatePanic(nowNS int64, raw, current int) {
	if a.cfg.PanicFactor < 1 {
		return
	}
	base := current
	if base < 1 {
		base = 1
	}
	if raw > current && float64(raw) >= a.cfg.PanicFactor*float64(base) {
		if !a.inPanic {
			a.inPanic = true
			a.panicPeak = 0
		}
		a.panicSince = nowNS
	}
	if a.inPanic {
		if raw > a.panicPeak {
			a.panicPeak = raw
		}
		if nowNS-a.panicSince >= int64(a.cfg.PanicWindow) {
			a.inPanic = false
			a.panicPeak = 0
		}
	}
}

// eval is the shared evaluation: record the observation, update panic
// state, and produce the windowed decision.
func (a *Autoscaler) eval(nowNS int64, inflight, current int, tick bool) Decision {
	raw := a.rawDesired(inflight)
	a.record(nowNS, raw)
	a.updatePanic(nowNS, raw, current)
	desired := a.windowMax(nowNS)
	if a.inPanic {
		// Panic mode: never below the current capacity (no scale-down),
		// and at least the panic peak, so a burst's full demand sticks
		// until the panic window drains.
		if a.panicPeak > desired {
			desired = a.panicPeak
		}
		if current > desired {
			desired = current
		}
	}
	if desired > current && a.cfg.MaxScaleUpStep > 0 {
		if step := current + a.cfg.MaxScaleUpStep; desired > step {
			desired = step
		}
	}
	if tick && desired < current && a.cfg.MaxScaleDownStep > 0 {
		if floor := current - a.cfg.MaxScaleDownStep; desired < floor {
			desired = floor
		}
	}
	return Decision{Desired: desired, Panic: a.inPanic}
}

// Observe is the demand-path evaluation, called when a request finds no
// idle instance: it folds the instantaneous demand into the current window
// slot and returns the (possibly panic-boosted) desired capacity. Callers
// scale up toward the decision but never down — scale-down is Tick's job.
func (a *Autoscaler) Observe(nowNS int64, inflight, current int) Decision {
	return a.eval(nowNS, inflight, current, false)
}

// Tick is the periodic evaluation: identical to Observe but additionally
// authoritative for scale-down (the returned Desired may drop below
// current once the scale-down window has drained, subject to
// MaxScaleDownStep).
func (a *Autoscaler) Tick(nowNS int64, inflight, current int) Decision {
	return a.eval(nowNS, inflight, current, true)
}
