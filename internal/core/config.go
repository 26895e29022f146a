// Package core implements STeLLAR itself — the paper's contribution: a
// provider-agnostic serverless benchmarking framework for tail-latency
// analysis (§IV). It comprises a deployer with provider-specific plugins
// driven by a static function configuration, and a load-generating client
// driven by a runtime configuration, plus the intra-function
// instrumentation plumbing and sample aggregation.
//
// The client is transport-agnostic: the same load plans execute against a
// virtual-time simulated cloud (SimTransport) or live HTTP endpoints
// (HTTPTransport), mirroring the paper's provider-agnostic client design.
package core

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// Duration wraps time.Duration with human-readable JSON ("3s", "15m").
type Duration time.Duration

// MarshalJSON implements json.Marshaler.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON implements json.Unmarshaler, accepting either a duration
// string or nanoseconds as a number.
func (d *Duration) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err == nil {
		parsed, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("core: bad duration %q: %w", s, err)
		}
		*d = Duration(parsed)
		return nil
	}
	var n int64
	if err := json.Unmarshal(data, &n); err != nil {
		return fmt.Errorf("core: duration must be a string or integer: %s", data)
	}
	*d = Duration(n)
	return nil
}

// Std converts to time.Duration.
func (d Duration) Std() time.Duration { return time.Duration(d) }

// ChainConfig describes a producer->consumer(s) function chain (§IV): the
// deployer creates Length functions where each invokes the next, passing a
// payload over the selected transport.
type ChainConfig struct {
	// Length is the number of functions in the chain (>= 2 to transfer).
	Length int `json:"length"`
	// Transfer is "inline" or "storage".
	Transfer string `json:"transfer"`
	// PayloadBytes is the default payload size per hop.
	PayloadBytes int64 `json:"payload_bytes"`
	// Fanout invokes that many parallel downstream copies per hop
	// (scatter-gather); zero or one is a plain sequential chain.
	Fanout int `json:"fanout,omitempty"`
}

// FunctionConfig is one entry of the static function configuration file:
// the provider-independent description of a function deployment (§IV).
type FunctionConfig struct {
	// Name is the base function name.
	Name string `json:"name"`
	// Runtime is the language runtime ("python3" or "go1.x").
	Runtime string `json:"runtime"`
	// Method is the deployment method ("zip" or "container").
	Method string `json:"method"`
	// MemoryMB is the instance memory size; zero selects the provider's
	// maximum single-core configuration (the paper's setup, §V).
	MemoryMB int `json:"memory_mb,omitempty"`
	// ExtraImageBytes inflates the image with a random-content file.
	ExtraImageBytes int64 `json:"extra_image_bytes,omitempty"`
	// Replicas deploys that many identical copies, used to parallelize
	// cold-start measurement (§IV). Zero means 1.
	Replicas int `json:"replicas,omitempty"`
	// ExecTime is the deployed handlers' default busy-spin duration
	// (applies to the function and its chain members); the runtime
	// configuration's exec_time overrides it per run for the entry
	// function.
	ExecTime Duration `json:"exec_time,omitempty"`
	// Chain optionally chains this function to downstream ones.
	Chain *ChainConfig `json:"chain,omitempty"`
}

// StaticConfig is the deployer's input file.
type StaticConfig struct {
	// Provider names the deployment target plugin.
	Provider string `json:"provider"`
	// Functions lists deployments.
	Functions []FunctionConfig `json:"functions"`
}

// LoadStaticConfig reads a static configuration file.
func LoadStaticConfig(path string) (*StaticConfig, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("core: read static config: %w", err)
	}
	var sc StaticConfig
	if err := json.Unmarshal(data, &sc); err != nil {
		return nil, fmt.Errorf("core: parse static config: %w", err)
	}
	return &sc, nil
}

// Validate checks a static config before deployment.
func (sc *StaticConfig) Validate() error {
	if sc.Provider == "" {
		return fmt.Errorf("core: static config needs a provider")
	}
	if len(sc.Functions) == 0 {
		return fmt.Errorf("core: static config has no functions")
	}
	seen := make(map[string]bool)
	for i, fc := range sc.Functions {
		if fc.Name == "" {
			return fmt.Errorf("core: function %d has no name", i)
		}
		if seen[fc.Name] {
			return fmt.Errorf("core: duplicate function name %q", fc.Name)
		}
		seen[fc.Name] = true
		if fc.Replicas < 0 {
			return fmt.Errorf("core: function %q has negative replicas", fc.Name)
		}
		if fc.ExecTime < 0 {
			return fmt.Errorf("core: function %q has negative exec_time", fc.Name)
		}
		if fc.Chain != nil {
			if fc.Chain.Length < 2 {
				return fmt.Errorf("core: function %q chain needs length >= 2", fc.Name)
			}
			if fc.Chain.Transfer != "inline" && fc.Chain.Transfer != "storage" {
				return fmt.Errorf("core: function %q has unknown transfer %q", fc.Name, fc.Chain.Transfer)
			}
			if fc.Chain.Fanout < 0 {
				return fmt.Errorf("core: function %q has negative fanout", fc.Name)
			}
			if fc.Chain.PayloadBytes < 0 {
				return fmt.Errorf("core: function %q has negative chain payload_bytes", fc.Name)
			}
		}
	}
	return nil
}

// IATKind selects the inter-arrival-time distribution of the generated
// invocation traffic (§IV: fixed, stochastic, or bursty — burstiness is the
// BurstSize axis, orthogonal to the IAT distribution).
type IATKind string

// Supported IAT distributions.
const (
	IATFixed       IATKind = "fixed"
	IATExponential IATKind = "exponential"
	// IATBursty generates ON/OFF traffic: trains of OnSteps steps at the
	// configured IAT separated by OffIAT quiet gaps — the "bursty
	// distribution" of §IV, orthogonal to the per-step BurstSize.
	IATBursty IATKind = "bursty"
)

// RuntimeConfig is the client's input file (§IV): it describes one load
// scenario over an already-deployed set of endpoints.
type RuntimeConfig struct {
	// Samples is the number of measured requests (the paper collects 3000
	// per configuration; each request in a burst is one measurement).
	Samples int `json:"samples"`
	// IAT is the client-step inter-arrival time: each step sends one burst
	// to the next endpoint in round-robin order.
	IAT Duration `json:"iat"`
	// IATDist is the IAT distribution (fixed by default).
	IATDist IATKind `json:"iat_dist,omitempty"`
	// BurstSize is the number of simultaneous requests per step (1 = no
	// burstiness).
	BurstSize int `json:"burst_size,omitempty"`
	// ExecTime sets the functions' busy-spin duration for this run.
	ExecTime Duration `json:"exec_time,omitempty"`
	// PayloadBytes overrides chained functions' transfer payload size.
	PayloadBytes int64 `json:"payload_bytes,omitempty"`
	// WarmupDiscard drops that many initial samples from the results
	// (steady-state measurement).
	WarmupDiscard int `json:"warmup_discard,omitempty"`
	// OnSteps is the train length for the bursty IAT distribution
	// (default 10 steps per train).
	OnSteps int `json:"on_steps,omitempty"`
	// OffIAT is the quiet gap between trains for the bursty IAT
	// distribution (default 10x IAT).
	OffIAT Duration `json:"off_iat,omitempty"`
}

// LoadRuntimeConfig reads a runtime configuration file.
func LoadRuntimeConfig(path string) (*RuntimeConfig, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("core: read runtime config: %w", err)
	}
	var rc RuntimeConfig
	if err := json.Unmarshal(data, &rc); err != nil {
		return nil, fmt.Errorf("core: parse runtime config: %w", err)
	}
	return &rc, nil
}

// Validate checks a runtime config and applies defaults.
func (rc *RuntimeConfig) Validate() error {
	if rc.Samples <= 0 {
		return fmt.Errorf("core: runtime config needs samples > 0")
	}
	if rc.IAT <= 0 {
		return fmt.Errorf("core: runtime config needs iat > 0")
	}
	if rc.BurstSize == 0 {
		rc.BurstSize = 1
	}
	if rc.BurstSize < 0 {
		return fmt.Errorf("core: burst size must be positive")
	}
	if rc.IATDist == "" {
		rc.IATDist = IATFixed
	}
	switch rc.IATDist {
	case IATFixed, IATExponential:
	case IATBursty:
		if rc.OnSteps == 0 {
			rc.OnSteps = 10
		}
		if rc.OnSteps < 1 {
			return fmt.Errorf("core: bursty IAT needs on_steps >= 1")
		}
		if rc.OffIAT == 0 {
			rc.OffIAT = 10 * rc.IAT
		}
		if rc.OffIAT < 0 {
			return fmt.Errorf("core: bursty IAT needs off_iat >= 0")
		}
	default:
		return fmt.Errorf("core: unknown IAT distribution %q", rc.IATDist)
	}
	if rc.WarmupDiscard < 0 {
		return fmt.Errorf("core: warmup discard must be >= 0")
	}
	if rc.ExecTime < 0 {
		return fmt.Errorf("core: exec_time must be >= 0")
	}
	if rc.PayloadBytes < 0 {
		return fmt.Errorf("core: payload_bytes must be >= 0")
	}
	return nil
}
