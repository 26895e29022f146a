package experiments

import (
	"fmt"
	"io"
	"time"

	"github.com/stellar-repro/stellar/internal/cloud"
	"github.com/stellar-repro/stellar/internal/des"
	"github.com/stellar-repro/stellar/internal/runner"
	"github.com/stellar-repro/stellar/internal/stats"
	"github.com/stellar-repro/stellar/internal/stats/sketch"
)

// ScaleOptions configures a sustained large-n latency series against one
// simulated provider — the bounded-memory counterpart of the paper-scale
// figure runs. Where the figure pipeline retains every sample for exact
// statistics, the scale pipeline streams invocations straight into a
// mergeable quantile sketch, so series length is limited by patience, not
// heap.
type ScaleOptions struct {
	// Provider is the provider profile under test.
	Provider string
	// Invocations is the series length, split across Shards.
	Invocations uint64
	// Shards is the number of independent simulation shards (default 8).
	// Each shard is its own DES engine and cloud seeded positionally from
	// Seed, so results are byte-identical at any Workers setting.
	Shards int
	// Workers bounds concurrently running shards (0 = GOMAXPROCS).
	Workers int
	// Seed roots all randomness.
	Seed int64
	// IAT is the inter-arrival time between bursts within one shard
	// (default 100ms).
	IAT time.Duration
	// Burst is the number of simultaneous requests per arrival (default 1).
	Burst int
	// ExecTime is the function busy-spin time (0 = instant handler).
	ExecTime time.Duration
	// Alpha is the sketch's relative-accuracy target (0 = DefaultAlpha).
	Alpha float64
	// Exact records into exact per-shard stats.Samples instead of
	// sketches: O(n) memory, for debugging and accuracy cross-checks at
	// small n.
	Exact bool
	// Engine selects the invocation execution form. The default (auto)
	// runs arrivals and warm invocations as engine callbacks — the series'
	// throughput mode — while proc forces the goroutine-per-request form.
	// Results are byte-identical either way (TestEngineFormsEquivalent).
	Engine cloud.EngineMode
}

func (o ScaleOptions) normalized() ScaleOptions {
	if o.Shards <= 0 {
		o.Shards = 8
	}
	if o.IAT <= 0 {
		o.IAT = 100 * time.Millisecond
	}
	if o.Burst <= 0 {
		o.Burst = 1
	}
	return o
}

func (o ScaleOptions) validate() error {
	if o.Provider == "" {
		return fmt.Errorf("scale: provider is required")
	}
	if o.Invocations == 0 {
		return fmt.Errorf("scale: need at least one invocation")
	}
	if uint64(o.Shards) > o.Invocations {
		return fmt.Errorf("scale: %d shards for %d invocations", o.Shards, o.Invocations)
	}
	if o.Alpha != 0 {
		if err := sketch.ValidateAlpha(o.Alpha); err != nil {
			return fmt.Errorf("scale: %w", err)
		}
	}
	return nil
}

// ScaleResult is the merged outcome of a scale series.
type ScaleResult struct {
	Provider    string
	Invocations uint64
	Shards      int
	Exact       bool

	// Colds and Errors aggregate per-shard outcome counters.
	Colds  uint64
	Errors uint64

	// Recorder holds the merged latency distribution: a *sketch.Sketch
	// in the default bounded mode, a *stats.Sample in Exact mode.
	Recorder sketch.Recorder
	// Sketch is the merged sketch (nil in Exact mode).
	Sketch *sketch.Sketch

	// VirtualTime is the longest shard's simulated duration — the series'
	// virtual wall-clock.
	VirtualTime time.Duration
}

// Summary returns the headline metrics of the merged distribution.
func (r *ScaleResult) Summary() stats.Summary { return r.Recorder.Summarize() }

// scaleShard is one shard's streamed outcome.
type scaleShard struct {
	rec     sketch.Recorder
	colds   uint64
	errors  uint64
	virtual time.Duration
}

// shardInvocations splits the series across shards positionally: the
// remainder lands on the lowest-indexed shards, so the split depends only
// on (Invocations, Shards), never on scheduling.
func shardInvocations(total uint64, shards, index int) uint64 {
	base := total / uint64(shards)
	if uint64(index) < total%uint64(shards) {
		base++
	}
	return base
}

// RunScale drives one sustained series: Shards independent simulated
// clouds, each streaming its invocations through the cloud's Recorder seam
// with nothing retained per request, merged at the end in
// O(shards × sketch grid). Heap is bounded by Shards × (environment +
// sketch), independent of Invocations.
func RunScale(opts ScaleOptions) (*ScaleResult, error) {
	opts = opts.normalized()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	res := &ScaleResult{
		Provider:    opts.Provider,
		Invocations: opts.Invocations,
		Shards:      opts.Shards,
		Exact:       opts.Exact,
	}
	if opts.Exact {
		res.Recorder = stats.NewSample(int(opts.Invocations))
	} else {
		res.Sketch = sketch.New(opts.Alpha)
		res.Recorder = res.Sketch
	}

	pool := runner.Pool{Workers: opts.Workers, Seed: opts.Seed}
	_, err := runner.MapReduce(pool, opts.Shards, res,
		func(sh runner.Shard) (*scaleShard, error) {
			return runScaleShard(opts, sh)
		},
		mergeScaleShard)
	if err != nil {
		return nil, err
	}
	if res.Recorder.Count() == 0 {
		return nil, fmt.Errorf("scale: all %d invocations failed", opts.Invocations)
	}
	return res, nil
}

// mergeScaleShard folds one shard into the accumulated result.
func mergeScaleShard(res *ScaleResult, sh *scaleShard) (*ScaleResult, error) {
	res.Colds += sh.colds
	res.Errors += sh.errors
	if sh.virtual > res.VirtualTime {
		res.VirtualTime = sh.virtual
	}
	if res.Exact {
		res.Recorder.(*stats.Sample).AddAll(sh.rec.(*stats.Sample).Values())
		return res, nil
	}
	return res, res.Sketch.Merge(sh.rec.(*sketch.Sketch))
}

// runScaleShard streams one shard's invocations through an isolated
// environment. The arrival loop retains nothing per request: a single
// reused request, a single spawned body closure, and the shard recorder
// fed by the cloud's Recorder seam.
func runScaleShard(opts ScaleOptions, sh runner.Shard) (*scaleShard, error) {
	n := shardInvocations(opts.Invocations, opts.Shards, sh.Index)
	out := &scaleShard{}
	if opts.Exact {
		out.rec = stats.NewSample(int(n))
	} else {
		out.rec = sketch.New(opts.Alpha)
	}
	if n == 0 {
		return out, nil
	}

	e, err := newEnv(opts.Provider, sh.Seed)
	if err != nil {
		return nil, fmt.Errorf("scale shard %d: %w", sh.Index, err)
	}
	defer e.close()
	c := e.cloud
	if err := c.Deploy(cloud.FunctionSpec{
		Name:     "scale",
		Runtime:  cloud.RuntimePython,
		Method:   cloud.DeployZIP,
		ExecTime: opts.ExecTime,
	}); err != nil {
		return nil, fmt.Errorf("scale shard %d: %w", sh.Index, err)
	}
	c.SetLatencyRecorder(out.rec)
	c.SetEngineMode(opts.Engine)

	req := &cloud.Request{Fn: "scale"}
	eng := e.eng
	if opts.Engine == cloud.EngineProc {
		// Proc form: one goroutine process per request, one for arrivals.
		invoke := func(p *des.Proc) {
			if _, err := c.Invoke(p, req); err != nil {
				out.errors++
			}
		}
		eng.Spawn("scale/arrivals", func(p *des.Proc) {
			remaining := n
			for remaining > 0 {
				burst := uint64(opts.Burst)
				if burst > remaining {
					burst = remaining
				}
				for j := uint64(0); j < burst; j++ {
					eng.Spawn("scale/req", invoke)
				}
				remaining -= burst
				if remaining > 0 {
					p.Sleep(opts.IAT)
				}
			}
		})
	} else {
		// Callback form: the arrival loop is a self-rescheduling event
		// callback and each request a callback chain — zero goroutine
		// switches on the warm path. Event-for-event equivalent to the
		// proc loop above: one event per arrival tick, one per request
		// start, in the same scheduling sequence order.
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
	if got := out.rec.Count() + out.errors; got != n {
		return nil, fmt.Errorf("scale shard %d: %d of %d invocations unaccounted for",
			sh.Index, n-got, n)
	}
	return out, nil
}

// WriteScaleReport renders the series outcome: headline metrics, the
// quantile ladder the paper's distributional claims rest on, and the
// sketch's footprint, which is the point of the exercise.
func WriteScaleReport(w io.Writer, res *ScaleResult) {
	mode := "sketch"
	if res.Exact {
		mode = "exact"
	}
	fmt.Fprintf(w, "scale series: provider=%s invocations=%d shards=%d mode=%s\n",
		res.Provider, res.Invocations, res.Shards, mode)
	fmt.Fprintf(w, "outcome: colds=%d errors=%d virtual=%v\n",
		res.Colds, res.Errors, res.VirtualTime.Round(time.Second))
	sum := res.Summary()
	fmt.Fprintf(w, "latency: median=%v p95=%v p99=%v max=%v tmr=%.1f\n",
		sum.Median.Round(time.Millisecond), sum.P95.Round(time.Millisecond),
		sum.P99.Round(time.Millisecond), sum.Max.Round(time.Millisecond), sum.TMR)
	fmt.Fprintf(w, "quantiles:")
	for _, q := range []float64{0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99, 0.999, 0.9999} {
		fmt.Fprintf(w, " p%g=%v", q*100, res.Recorder.Quantile(q).Round(time.Millisecond))
	}
	fmt.Fprintln(w)
	if res.Sketch != nil {
		fmt.Fprintf(w, "sketch: alpha=%.4f grid=%d occupied=%d memory=%dB (independent of n)\n",
			res.Sketch.Alpha(), res.Sketch.GridBuckets(), res.Sketch.Buckets(), res.Sketch.MemoryBytes())
	}
}

// WriteScaleCDF writes the merged distribution's CDF as CSV (value_ns,
// fraction) for external plotting.
func WriteScaleCDF(w io.Writer, res *ScaleResult) error {
	if _, err := fmt.Fprintln(w, "latency_ns,cdf"); err != nil {
		return err
	}
	for _, p := range res.Recorder.CDF() {
		if _, err := fmt.Fprintf(w, "%d,%.6f\n", int64(p.Value), p.Frac); err != nil {
			return err
		}
	}
	return nil
}
