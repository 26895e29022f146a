package cloud

import (
	"time"

	"github.com/stellar-repro/stellar/internal/des"
	"github.com/stellar-repro/stellar/internal/trace"
)

// Request is one function invocation.
type Request struct {
	// Fn is the target function name.
	Fn string
	// Internal marks function-to-function invocations, which skip client
	// propagation and the external front-end admission path.
	Internal bool
	// ExecTime overrides the function's default busy-spin duration when
	// positive (STeLLAR's runtime configuration can set it per run).
	ExecTime time.Duration
	// ChainPayloadBytes overrides the function's chain payload size when
	// positive.
	ChainPayloadBytes int64
	// Cont, when set, runs inside the serving instance after the handler
	// body — the continuation seam the workflow executor hangs DAG edges on
	// (see downstream.go). It overrides the function's static Chain, which
	// otherwise runs at the same seam.
	Cont Downstream
	// Span, when set, records this invocation's pipeline spans into a trace
	// owned by the caller (the workflow executor's per-node spans); Invoke
	// finishes it at the instant the response reaches the caller. It
	// overrides the cloud's own tracer seam for this request.
	Span *trace.Req
	// wireDelay is the inline-payload transmission time, applied on the
	// ingress path of internal invocations.
	wireDelay time.Duration
	// storageKey references a payload the handler must fetch from the
	// payload store before starting (storage-based transfer).
	storageKey string
	// depth counts chain hops to bound runaway recursion.
	depth int
}

// Response reports the outcome of an invocation.
type Response struct {
	// Fn echoes the served function.
	Fn string
	// InstanceID identifies the serving instance (unique per instance).
	InstanceID int
	// Cold reports whether the serving instance was created for, and had
	// never served before, this invocation.
	Cold bool
	// QueueWait is how long the request sat buffered waiting for an
	// instance (zero when served by an idle warm instance immediately).
	QueueWait time.Duration
	// Timestamps carries the intra-function instrumentation (§IV): keys
	// are "<function>.recv" and "<function>.send" recorded in virtual
	// time, concatenated up the chain exactly as STeLLAR's functions
	// concatenate timestamp strings.
	Timestamps map[string]des.Time
	// Breakdown itemizes where the latency went, per infrastructure
	// component; Breakdown.Total() equals the observed latency.
	Breakdown Breakdown
	// Attempts counts service attempts (1 = no retries).
	Attempts int
	// BilledGBSeconds is the invocation's billed resource usage
	// (instance-busy seconds times configured memory in GB), including
	// time spent blocked on chained downstream calls, as providers bill.
	BilledGBSeconds float64
}

// TransferTime computes the paper's data-transfer metric for a two-function
// chain: consumer receive timestamp minus producer send timestamp. The
// second return is false if the instrumentation keys are missing.
func (r *Response) TransferTime(producer, consumer string) (time.Duration, bool) {
	send, okSend := r.Timestamps[producer+".send"]
	recv, okRecv := r.Timestamps[consumer+".recv"]
	if !okSend || !okRecv || recv < send {
		return 0, false
	}
	return recv - send, true
}
