package cloud

import "fmt"

// EngineMode selects how InvokeAsync executes external invocations on the
// DES engine. The two forms are observationally equivalent — the
// differential suite in internal/experiments proves byte-identical outputs
// — so the knob exists to keep both forms runnable and comparable forever.
type EngineMode int

const (
	// EngineAuto (the zero value) uses the callback fast path for
	// eligible warm-path requests and goroutine procs for everything
	// else (chains, faults, tracing). This is the default everywhere.
	EngineAuto EngineMode = iota
	// EngineProc forces every invocation onto the goroutine proc path,
	// reproducing the pre-callback engine exactly.
	EngineProc
)

// String renders the mode as its CLI spelling.
func (m EngineMode) String() string {
	switch m {
	case EngineProc:
		return "proc"
	default:
		return "auto"
	}
}

// ParseEngineMode parses a -engine flag value.
func ParseEngineMode(s string) (EngineMode, error) {
	switch s {
	case "", "auto":
		return EngineAuto, nil
	case "proc":
		return EngineProc, nil
	}
	return EngineAuto, fmt.Errorf("cloud: unknown engine mode %q (want proc or auto)", s)
}

// SetEngineMode selects the execution form for subsequent InvokeAsync
// calls. Safe to change between runs on the same cloud.
func (c *Cloud) SetEngineMode(m EngineMode) { c.mode = m }

// Mode reports the cloud's current execution form.
func (c *Cloud) Mode() EngineMode { return c.mode }
