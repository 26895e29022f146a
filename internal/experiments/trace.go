package experiments

import (
	"fmt"
	"io"
	"time"

	"github.com/stellar-repro/stellar/internal/cloud"
	"github.com/stellar-repro/stellar/internal/des"
	"github.com/stellar-repro/stellar/internal/dist"
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
	// Engine selects the invocation execution form. The default (auto)
	// runs arrivals and warm invocations as engine callbacks that record
	// their spans in place, so a traced series measures the same code path
	// as an untraced one; proc forces the goroutine-per-request form.
	// Outputs are byte-identical either way (TestEngineFormsEquivalent).
	Engine cloud.EngineMode
}

func (o TraceOptions) normalized() TraceOptions {
	if o.Shards == 0 {
		o.Shards = 8
	}
	if o.IAT == 0 {
		o.IAT = 100 * time.Millisecond
	}
	if o.Burst == 0 {
		o.Burst = 1
	}
	return o
}

func (o TraceOptions) validate() error {
	if o.Provider == "" {
		return fmt.Errorf("trace: provider is required")
	}
	if o.Invocations == 0 {
		return fmt.Errorf("trace: need at least one invocation")
	}
	if err := validateSeries("trace", o.Shards, o.IAT, o.Burst, o.ExecTime); err != nil {
		return err
	}
	if uint64(o.Shards) > o.Invocations {
		return fmt.Errorf("trace: %d shards for %d invocations", o.Shards, o.Invocations)
	}
	if o.Trace.SampleRate == 0 && o.Trace.SlowestK == 0 {
		return fmt.Errorf("trace: sampler disabled (set a sample rate or slowest-K)")
	}
	return o.Trace.Validate()
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

// traceShard is one shard's outcome.
type traceShard struct {
	traces  []trace.RequestRecord
	lats    *stats.Sample
	colds   uint64
	errors  uint64
	dropped uint64
	virtual time.Duration
}

// RunTrace drives one traced series: Shards independent simulated clouds,
// each with its own sampling tracer, merged in shard-index order so results
// are byte-identical at any Workers setting. Every retained trace is checked
// against the tiling invariant (top-level spans sum exactly to the observed
// latency) before the result is returned.
func RunTrace(opts TraceOptions) (*TraceResult, error) {
	opts = opts.normalized()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	res := &TraceResult{
		Provider:    opts.Provider,
		Invocations: opts.Invocations,
		Shards:      opts.Shards,
		Latencies:   stats.NewSample(int(opts.Invocations)),
	}
	pool := runner.Pool{Workers: opts.Workers, Seed: opts.Seed}
	_, err := runner.MapReduce(pool, opts.Shards, res,
		func(sh runner.Shard) (*traceShard, error) {
			return runTraceShard(opts, sh)
		},
		mergeTraceShard)
	if err != nil {
		return nil, err
	}
	if res.Latencies.Count() == 0 {
		return nil, fmt.Errorf("trace: all %d invocations failed", opts.Invocations)
	}
	if len(res.Traces) == 0 {
		return nil, fmt.Errorf("trace: sampler retained no traces (rate %v over %d invocations)",
			opts.Trace.SampleRate, opts.Invocations)
	}
	return res, nil
}

// mergeTraceShard folds one shard into the accumulated result.
func mergeTraceShard(res *TraceResult, sh *traceShard) (*TraceResult, error) {
	res.Colds += sh.colds
	res.Errors += sh.errors
	res.Dropped += sh.dropped
	res.Traces = append(res.Traces, sh.traces...)
	res.Latencies.AddAll(sh.lats.Values())
	if sh.virtual > res.VirtualTime {
		res.VirtualTime = sh.virtual
	}
	return res, nil
}

// runTraceShard runs one shard's arrivals with a tracer installed on the
// cloud's tracer seam.
func runTraceShard(opts TraceOptions, sh runner.Shard) (*traceShard, error) {
	n := shardInvocations(opts.Invocations, opts.Shards, sh.Index)
	out := &traceShard{lats: stats.NewSample(int(n))}
	if n == 0 {
		return out, nil
	}

	e, err := newEnv(opts.Provider, sh.Seed)
	if err != nil {
		return nil, fmt.Errorf("trace shard %d: %w", sh.Index, err)
	}
	defer e.close()
	c := e.cloud
	if err := c.Deploy(cloud.FunctionSpec{
		Name:     "trace",
		Runtime:  cloud.RuntimePython,
		Method:   cloud.DeployZIP,
		ExecTime: opts.ExecTime,
	}); err != nil {
		return nil, fmt.Errorf("trace shard %d: %w", sh.Index, err)
	}
	c.SetLatencyRecorder(out.lats)
	// The tracer's sampling stream is derived from the same shard seed as
	// the cloud's streams but under its own name, so the traced run's other
	// draws are identical to the untraced run's.
	tr := trace.New(opts.Trace, dist.NewStreams(sh.Seed).Stream(opts.Provider+"/trace"))
	c.SetTracer(tr)

	c.SetEngineMode(opts.Engine)
	req := &cloud.Request{Fn: "trace"}
	eng := e.eng
	if opts.Engine == cloud.EngineProc {
		invoke := func(p *des.Proc) {
			if _, err := c.Invoke(p, req); err != nil {
				out.errors++
			}
		}
		eng.Spawn("trace/arrivals", func(p *des.Proc) {
			remaining := n
			for remaining > 0 {
				burst := uint64(opts.Burst)
				if burst > remaining {
					burst = remaining
				}
				for j := uint64(0); j < burst; j++ {
					eng.Spawn("trace/req", invoke)
				}
				remaining -= burst
				if remaining > 0 {
					p.Sleep(opts.IAT)
				}
			}
		})
	} else {
		// Callback-form arrivals: eligible warm requests run as callback
		// chains that emit the same spans Invoke would.
		done := func(_ *cloud.Response, err error) {
			if err != nil {
				out.errors++
			}
		}
		remaining := n
		var arrive func()
		arrive = func() {
			burst := uint64(opts.Burst)
			if burst > remaining {
				burst = remaining
			}
			for j := uint64(0); j < burst; j++ {
				c.InvokeAsync(req, done)
			}
			remaining -= burst
			if remaining > 0 {
				eng.CallAfter(opts.IAT, arrive)
			}
		}
		eng.Call(arrive)
	}
	eng.Run(0)

	out.colds = c.Metrics().ColdServed
	out.virtual = eng.Now()
	out.dropped = tr.Dropped()
	out.traces = tr.Drain()
	for i := range out.traces {
		out.traces[i].Shard = sh.Index
		if err := out.traces[i].Validate(); err != nil {
			return nil, fmt.Errorf("trace shard %d: %w", sh.Index, err)
		}
	}
	if got := uint64(out.lats.Count()) + out.errors; got != n {
		return nil, fmt.Errorf("trace shard %d: %d of %d invocations unaccounted for",
			sh.Index, n-got, n)
	}
	return out, nil
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
