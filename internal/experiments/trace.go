package experiments

import (
	"fmt"
	"io"
	"time"

	"github.com/stellar-repro/stellar/internal/runner"
	"github.com/stellar-repro/stellar/internal/stats"
	"github.com/stellar-repro/stellar/internal/trace"
)

// TraceOptions configures a traced latency series against one simulated
// provider: the scale experiment's arrival process with the tracer seam
// enabled, so sampled requests come back as full per-stage span traces
// instead of one scalar latency.
type TraceOptions struct {
	// Provider is the provider profile under test.
	Provider string
	// Invocations is the series length, split across Shards.
	Invocations uint64
	// Shards is the number of independent simulation shards (default 8).
	Shards int
	// Workers bounds concurrently running shards (0 = GOMAXPROCS). Changes
	// wall-clock time only, never results.
	Workers int
	// Seed roots all randomness. The tracer draws from its own
	// "<provider>/trace" stream, so enabling tracing never shifts the
	// simulation's other draws.
	Seed int64
	// IAT is the inter-arrival time between bursts within one shard
	// (default 100ms).
	IAT time.Duration
	// Burst is the number of simultaneous requests per arrival (default 1).
	Burst int
	// ExecTime is the function busy-spin time (0 = instant handler).
	ExecTime time.Duration
	// Trace configures the per-shard sampler (rate, slowest-K, ring bound).
	Trace trace.Config
}

// TraceResult is the merged outcome of a traced series.
type TraceResult struct {
	Provider    string
	Invocations uint64
	Shards      int

	// Colds and Errors aggregate per-shard outcome counters.
	Colds  uint64
	Errors uint64
	// Dropped counts sampled traces lost to per-shard ring overwrites —
	// surfaced so bounded retention is never a silent cap.
	Dropped uint64

	// Traces are the retained span traces, shard-tagged and merged in shard
	// order (each shard's traces sorted by virtual start time).
	Traces []trace.RequestRecord
	// Latencies are all successful requests' client-observed latencies
	// (not just the sampled ones), for persistence and cross-checks.
	Latencies *stats.Sample

	// VirtualTime is the longest shard's simulated duration.
	VirtualTime time.Duration
}

// Attribution computes the per-stage tail attribution of the retained
// traces (nil quantiles = trace.DefaultQuantiles).
func (r *TraceResult) Attribution(quantiles []float64) *trace.Attribution {
	return trace.Attribute(r.Traces, quantiles)
}

// RunTrace drives one traced series: the scale series with exact recording
// and a sampling tracer installed on every shard's cloud, merged in
// shard-index order so results are byte-identical at any Workers setting.
// Every retained trace is checked against the tiling invariant (top-level
// spans sum exactly to the observed latency) before the result is returned.
func RunTrace(opts TraceOptions) (*TraceResult, error) {
	res, err := runSeries(series{
		ScaleOptions: ScaleOptions{
			Provider:    opts.Provider,
			Invocations: opts.Invocations,
			Shards:      opts.Shards,
			Workers:     opts.Workers,
			Seed:        opts.Seed,
			IAT:         opts.IAT,
			Burst:       opts.Burst,
			ExecTime:    opts.ExecTime,
			Exact:       true,
		},
		name:  "trace",
		trace: &opts.Trace,
	})
	if err != nil {
		return nil, err
	}
	if len(res.traces) == 0 {
		return nil, fmt.Errorf("trace: sampler retained no traces (rate %v over %d invocations)",
			opts.Trace.SampleRate, opts.Invocations)
	}
	return &TraceResult{
		Provider:    res.Provider,
		Invocations: res.Invocations,
		Shards:      res.Shards,
		Colds:       res.Colds,
		Errors:      res.Errors,
		Dropped:     res.dropped,
		Traces:      res.traces,
		Latencies:   res.Recorder.(*stats.Sample),
		VirtualTime: res.VirtualTime,
	}, nil
}

// WriteTraceReport renders the traced series outcome: headline metrics,
// retention accounting, and the per-stage tail-attribution table.
func WriteTraceReport(w io.Writer, res *TraceResult) {
	fmt.Fprintf(w, "trace series: provider=%s invocations=%d shards=%d\n",
		res.Provider, res.Invocations, res.Shards)
	fmt.Fprintf(w, "outcome: colds=%d errors=%d virtual=%v\n",
		res.Colds, res.Errors, res.VirtualTime.Round(time.Second))
	sum := res.Latencies.Summarize()
	fmt.Fprintf(w, "latency: median=%v p95=%v p99=%v max=%v tmr=%.1f\n",
		sum.Median.Round(time.Millisecond), sum.P95.Round(time.Millisecond),
		sum.P99.Round(time.Millisecond), sum.Max.Round(time.Millisecond), sum.TMR)
	fmt.Fprintf(w, "traces: retained=%d dropped=%d\n", len(res.Traces), res.Dropped)
	if a := res.Attribution(nil); a != nil {
		a.Write(w)
	}
}

// TraceStudyResult holds the attribution sweep across all providers.
type TraceStudyResult struct {
	// Results maps provider name to its traced series.
	Results map[string]*TraceResult
}

// TraceStudy runs the tail-attribution sweep: one traced bursty series per
// provider, sample-everything, answering "which stage inflates p99" for each
// provider profile side by side (the paper's Fig. 1 pipeline, quantified).
func TraceStudy(opts Options) (*TraceStudyResult, error) {
	opts = opts.normalized()
	runs, err := runner.Map(opts.pool(), len(AllProviders), func(sh runner.Shard) (*TraceResult, error) {
		return RunTrace(TraceOptions{
			Provider:    AllProviders[sh.Index],
			Invocations: uint64(opts.Samples),
			Shards:      4,
			Workers:     1, // the provider sweep is already parallel
			Seed:        sh.Seed,
			Burst:       10,
			IAT:         500 * time.Millisecond,
			ExecTime:    10 * time.Millisecond,
			Trace:       trace.Config{SampleRate: 1, SlowestK: 32},
		})
	})
	if err != nil {
		return nil, err
	}
	res := &TraceStudyResult{Results: make(map[string]*TraceResult, len(runs))}
	for i, run := range runs {
		res.Results[AllProviders[i]] = run
	}
	return res, nil
}

// WriteTraceStudyReport renders the per-provider attribution sweep.
func WriteTraceStudyReport(w io.Writer, res *TraceStudyResult) {
	fmt.Fprintf(w, "## trace — per-stage tail attribution (Fig. 1 pipeline)\n\n")
	for _, prov := range AllProviders {
		run := res.Results[prov]
		if run == nil {
			continue
		}
		WriteTraceReport(w, run)
		fmt.Fprintln(w)
	}
}
