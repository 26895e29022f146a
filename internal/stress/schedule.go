// Package stress is an open-loop, coordinated-omission-safe load generator
// for live HTTP function endpoints — the production client fleet ROADMAP
// item 1 calls for. Arrival times are drawn from a schedule that never looks
// at responses: each request has an *intended* send instant fixed up front,
// and its latency is measured from that intended instant to the response,
// so a stalled server widens the measured tail instead of back-pressuring
// the generator and hiding the stall (coordinated omission).
//
// The fleet is a worker pool. Each worker owns an independent slice of the
// arrival schedule, a persistent connection (or per-worker http.Transport),
// pooled request/response buffers, and per-shard mergeable sketches, so the
// steady-state hot path allocates nothing and shards merge deterministically
// at the end (PR 3's sketch contract).
package stress

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"github.com/stellar-repro/stellar/internal/dist"
)

// ArrivalKind selects how intended send times are generated.
type ArrivalKind string

const (
	// ArrivalFixed spaces arrivals exactly 1/rate apart (deterministic).
	ArrivalFixed ArrivalKind = "fixed"
	// ArrivalPoisson draws exponential inter-arrival times with mean
	// 1/rate — a memoryless open-loop process, the standard model for
	// independent clients.
	ArrivalPoisson ArrivalKind = "poisson"
	// ArrivalTrace replays per-interval arrival counts from a trace file
	// (Azure-invocations style), spacing each interval's arrivals evenly.
	ArrivalTrace ArrivalKind = "trace"
)

// ParseArrivalKind validates a flag spelling.
func ParseArrivalKind(s string) (ArrivalKind, error) {
	switch ArrivalKind(s) {
	case ArrivalFixed, ArrivalPoisson, ArrivalTrace:
		return ArrivalKind(s), nil
	}
	return "", fmt.Errorf("stress: unknown arrival kind %q (want fixed, poisson, or trace)", s)
}

// plan is the immutable arrival schedule shared by the real-socket run and
// its same-seed DES twin. Worker w owns every W-th arrival (fixed/trace) or
// an independent thinned Poisson stream of rate rate/W — the superposition
// of the worker streams is exactly the requested process either way.
type plan struct {
	kind    ArrivalKind
	workers int
	rate    float64       // aggregate arrivals per second (fixed/poisson)
	horizon time.Duration // no arrivals at or beyond this offset (0 = unbounded)
	seed    int64

	// perWorker caps each worker's arrival count (MaxUint64 = unbounded).
	perWorker []uint64

	// trace holds the precomputed global arrival offsets in trace mode,
	// sorted ascending; workers stride over it.
	trace []time.Duration
}

// newPlan validates and freezes the schedule inputs.
func newPlan(opts Options) (*plan, error) {
	p := &plan{
		kind:    opts.Arrival,
		workers: opts.Workers,
		rate:    opts.Rate,
		horizon: opts.Duration,
		seed:    opts.Seed,
	}
	if p.workers <= 0 {
		return nil, fmt.Errorf("stress: need at least one worker, got %d", p.workers)
	}
	switch p.kind {
	case ArrivalFixed, ArrivalPoisson:
		if math.IsNaN(p.rate) || math.IsInf(p.rate, 0) || p.rate <= 0 {
			return nil, fmt.Errorf("stress: arrival rate must be a positive finite number, got %v", p.rate)
		}
		if p.horizon <= 0 && opts.MaxRequests == 0 {
			return nil, fmt.Errorf("stress: %s arrivals need a duration or a request cap", p.kind)
		}
	case ArrivalTrace:
		if len(opts.TraceCounts) == 0 {
			return nil, fmt.Errorf("stress: trace arrivals need per-interval counts")
		}
		if opts.TraceInterval <= 0 {
			return nil, fmt.Errorf("stress: trace interval must be positive, got %v", opts.TraceInterval)
		}
		total, err := traceTotal(opts.TraceCounts)
		if err != nil {
			return nil, err
		}
		p.trace = expandTrace(opts.TraceCounts, total, opts.TraceInterval)
		if len(p.trace) == 0 {
			return nil, fmt.Errorf("stress: trace has zero arrivals")
		}
	default:
		return nil, fmt.Errorf("stress: unknown arrival kind %q", p.kind)
	}
	p.perWorker = splitCount(opts.MaxRequests, p.workers)
	return p, nil
}

// splitCount divides a request cap across workers positionally (the
// remainder lands on the lowest-indexed workers, like the scale driver's
// shard split). A zero total means unbounded.
func splitCount(total uint64, workers int) []uint64 {
	caps := make([]uint64, workers)
	for w := range caps {
		if total == 0 {
			caps[w] = math.MaxUint64
			continue
		}
		caps[w] = total / uint64(workers)
		if uint64(w) < total%uint64(workers) {
			caps[w]++
		}
	}
	return caps
}

// MaxTraceArrivals caps a trace's total arrival count. Trace mode expands
// every arrival into an 8-byte offset before the run starts, so the cap
// bounds that buffer at 128 MiB; a larger trace is rejected up front
// instead of exhausting memory.
const MaxTraceArrivals = 1 << 24

// traceTotal sums per-interval counts, rejecting a total above
// MaxTraceArrivals before anything is allocated. Checking each step
// against the cap also rules out a sum that wraps past 2^64.
func traceTotal(counts []uint64) (uint64, error) {
	var total uint64
	for i, c := range counts {
		if c > MaxTraceArrivals-total {
			return 0, fmt.Errorf("stress: trace total exceeds %d arrivals at interval %d", MaxTraceArrivals, i)
		}
		total += c
	}
	return total, nil
}

// expandTrace turns per-interval counts summing to total into concrete
// arrival offsets: interval i's count arrivals are spaced evenly across
// [i*interval, (i+1)*interval).
func expandTrace(counts []uint64, total uint64, interval time.Duration) []time.Duration {
	offsets := make([]time.Duration, 0, total)
	for i, c := range counts {
		start := time.Duration(i) * interval
		for j := uint64(0); j < c; j++ {
			offsets = append(offsets, start+time.Duration(float64(interval)*float64(j)/float64(c)))
		}
	}
	return offsets
}

// PlannedArrivals validates opts and reports the planned arrival count when
// it is finite (trace mode, a request cap, or a fixed-rate horizon); 0 means
// the run is bounded only by its duration.
func PlannedArrivals(opts Options) (uint64, error) {
	p, err := newPlan(opts.withDefaults())
	if err != nil {
		return 0, err
	}
	return p.TotalArrivals(), nil
}

// TotalArrivals reports the planned arrival count, when it is finite
// (trace mode, a request cap, or a fixed-rate horizon); 0 means the plan is
// bounded only by its duration at run time.
func (p *plan) TotalArrivals() uint64 {
	if p.kind == ArrivalTrace {
		n := uint64(len(p.trace))
		if capd := sumCapped(p.perWorker); capd < n {
			n = capd
		}
		return n
	}
	if capd := sumCapped(p.perWorker); capd != math.MaxUint64 {
		return capd
	}
	if p.kind == ArrivalFixed && p.horizon > 0 {
		return uint64(float64(p.horizon)/float64(time.Second)*p.rate) + 1
	}
	return 0
}

func sumCapped(caps []uint64) uint64 {
	var sum uint64
	for _, c := range caps {
		if c == math.MaxUint64 {
			return math.MaxUint64
		}
		sum += c
	}
	return sum
}

// schedule yields one worker's intended arrival offsets, in order. next is
// allocation-free; the RNG (Poisson mode) is allocated once at worker
// start-up from the plan's deterministic per-worker stream.
type schedule struct {
	p      *plan
	worker int

	remaining uint64
	// fixed: the n-th arrival of worker w lands at (w + n*W)/rate.
	n uint64
	// poisson: cumulative offset and per-worker mean IAT in nanoseconds.
	rng    *rand.Rand
	atNS   float64
	meanNS float64
	// trace: stride cursor into p.trace.
	idx int
}

// worker builds worker w's schedule. Deterministic: two constructions from
// the same plan yield identical sequences, which is what lets the DES twin
// replay the exact real-run schedule in virtual time.
func (p *plan) workerSchedule(w int) *schedule {
	s := &schedule{p: p, worker: w, remaining: p.perWorker[w], idx: w}
	if p.kind == ArrivalPoisson {
		s.rng = dist.NewStreams(p.seed).Stream(fmt.Sprintf("stress/worker/%d", w))
		s.meanNS = float64(time.Second) * float64(p.workers) / p.rate
	}
	return s
}

// next returns the worker's next intended arrival offset from the run
// start, or ok=false when the schedule is exhausted (cap or horizon hit).
func (s *schedule) next() (time.Duration, bool) {
	if s.remaining == 0 {
		return 0, false
	}
	var off time.Duration
	switch s.p.kind {
	case ArrivalFixed:
		off = time.Duration(float64(time.Second) *
			(float64(s.worker) + float64(s.n)*float64(s.p.workers)) / s.p.rate)
		s.n++
	case ArrivalPoisson:
		s.atNS += s.rng.ExpFloat64() * s.meanNS
		off = time.Duration(s.atNS)
	case ArrivalTrace:
		if s.idx >= len(s.p.trace) {
			return 0, false
		}
		off = s.p.trace[s.idx]
		s.idx += s.p.workers
	}
	if s.p.horizon > 0 && off >= s.p.horizon {
		return 0, false
	}
	s.remaining--
	return off, true
}
