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
	"github.com/stellar-repro/stellar/internal/stats/sketch"
	"github.com/stellar-repro/stellar/internal/trace"
)

// validateSeries rejects negative arrival-shape options of a burst-clock
// driver (scale, trace, faults, workflow). It runs on normalized options:
// zero keeps its documented meaning (the default, or an instant handler for
// ExecTime), while a negative value is an error rather than a silent
// default.
func validateSeries(series string, shards int, iat time.Duration, burst int, exec time.Duration) error {
	switch {
	case shards < 0:
		return fmt.Errorf("%s: negative shard count %d", series, shards)
	case iat < 0:
		return fmt.Errorf("%s: negative inter-arrival time %v", series, iat)
	case burst < 0:
		return fmt.Errorf("%s: negative burst %d", series, burst)
	case exec < 0:
		return fmt.Errorf("%s: negative exec time %v", series, exec)
	}
	return nil
}

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
}

// series is one scale-shaped run: the options, the series name ("scale" or
// "trace": the deployed function's name and the error prefix) and an
// optional tracer. RunScale runs it untraced; RunTrace maps its options onto
// it with exact recording and a tracer installed, so a traced series is the
// scale series' own code path with spans recorded.
type series struct {
	ScaleOptions
	name  string
	trace *trace.Config
}

func (s series) normalized() series {
	if s.Shards == 0 {
		s.Shards = 8
	}
	if s.IAT == 0 {
		s.IAT = 100 * time.Millisecond
	}
	if s.Burst == 0 {
		s.Burst = 1
	}
	return s
}

func (s series) validate() error {
	if s.Provider == "" {
		return fmt.Errorf("%s: provider is required", s.name)
	}
	if s.Invocations == 0 {
		return fmt.Errorf("%s: need at least one invocation", s.name)
	}
	if err := validateSeries(s.name, s.Shards, s.IAT, s.Burst, s.ExecTime); err != nil {
		return err
	}
	if uint64(s.Shards) > s.Invocations {
		return fmt.Errorf("%s: %d shards for %d invocations", s.name, s.Shards, s.Invocations)
	}
	if s.Alpha != 0 {
		if err := sketch.ValidateAlpha(s.Alpha); err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
	}
	if s.trace == nil {
		return nil
	}
	if s.trace.SampleRate == 0 && s.trace.SlowestK == 0 {
		return fmt.Errorf("%s: sampler disabled (set a sample rate or slowest-K)", s.name)
	}
	return s.trace.Validate()
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

	// traces and dropped are a traced series' retained span traces (in
	// shard order) and ring overwrites; RunTrace surfaces them.
	traces  []trace.RequestRecord
	dropped uint64
}

// Summary returns the headline metrics of the merged distribution.
func (r *ScaleResult) Summary() stats.Summary { return r.Recorder.Summarize() }

// seriesShard is one shard's streamed outcome.
type seriesShard struct {
	rec     sketch.Recorder
	colds   uint64
	errors  uint64
	dropped uint64
	traces  []trace.RequestRecord
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

// burstArrivals is the one arrival clock of every burst-shaped driver: n
// arrivals in bursts of burst every iat, the first burst at the current
// instant and the last one truncated to what remains. It is a
// self-rescheduling engine callback — one event per tick, no goroutine — and
// fire runs once per arrival, in arrival order.
func burstArrivals(eng *des.Engine, n uint64, burst int, iat time.Duration, fire func()) {
	remaining := n
	var tick func()
	tick = func() {
		b := uint64(burst)
		if b > remaining {
			b = remaining
		}
		for j := uint64(0); j < b; j++ {
			fire()
		}
		remaining -= b
		if remaining > 0 {
			eng.CallAfter(iat, tick)
		}
	}
	eng.Call(tick)
}

// RunScale drives one sustained series: Shards independent simulated
// clouds, each streaming its invocations through the cloud's Recorder seam
// with nothing retained per request, merged at the end in
// O(shards × sketch grid). Heap is bounded by Shards × (environment +
// sketch), independent of Invocations.
func RunScale(opts ScaleOptions) (*ScaleResult, error) {
	return runSeries(series{ScaleOptions: opts, name: "scale"})
}

// runSeries normalizes, validates and runs one series, merging its shards
// in shard-index order so results are byte-identical at any Workers
// setting.
func runSeries(s series) (*ScaleResult, error) {
	s = s.normalized()
	if err := s.validate(); err != nil {
		return nil, err
	}
	res := &ScaleResult{
		Provider:    s.Provider,
		Invocations: s.Invocations,
		Shards:      s.Shards,
		Exact:       s.Exact,
	}
	if s.Exact {
		res.Recorder = stats.NewSample(int(s.Invocations))
	} else {
		res.Sketch = sketch.New(s.Alpha)
		res.Recorder = res.Sketch
	}

	pool := runner.Pool{Workers: s.Workers, Seed: s.Seed}
	_, err := runner.MapReduce(pool, s.Shards, res,
		func(sh runner.Shard) (*seriesShard, error) {
			return runSeriesShard(s, sh)
		},
		mergeSeriesShard)
	if err != nil {
		return nil, err
	}
	if res.Recorder.Count() == 0 {
		return nil, fmt.Errorf("%s: all %d invocations failed", s.name, s.Invocations)
	}
	return res, nil
}

// mergeSeriesShard folds one shard into the accumulated result.
func mergeSeriesShard(res *ScaleResult, sh *seriesShard) (*ScaleResult, error) {
	res.Colds += sh.colds
	res.Errors += sh.errors
	res.dropped += sh.dropped
	res.traces = append(res.traces, sh.traces...)
	if sh.virtual > res.VirtualTime {
		res.VirtualTime = sh.virtual
	}
	if res.Exact {
		res.Recorder.(*stats.Sample).Merge(sh.rec.(*stats.Sample))
		return res, nil
	}
	return res, res.Sketch.Merge(sh.rec.(*sketch.Sketch))
}

// runSeriesShard streams one shard's invocations through an isolated
// environment. The arrival clock retains nothing per request: a single
// reused request, a single completion callback, and the shard recorder fed
// by the cloud's Recorder seam. InvokeAsync runs eligible warm requests as
// callback chains and spawns an Invoke proc for the rest.
func runSeriesShard(s series, sh runner.Shard) (*seriesShard, error) {
	n := shardInvocations(s.Invocations, s.Shards, sh.Index)
	out := &seriesShard{}
	if s.Exact {
		out.rec = stats.NewSample(int(n))
	} else {
		out.rec = sketch.New(s.Alpha)
	}
	if n == 0 {
		return out, nil
	}

	e, err := newEnv(s.Provider, sh.Seed)
	if err != nil {
		return nil, fmt.Errorf("%s shard %d: %w", s.name, sh.Index, err)
	}
	defer e.close()
	c := e.cloud
	if err := c.Deploy(cloud.FunctionSpec{
		Name:     s.name,
		Runtime:  cloud.RuntimePython,
		Method:   cloud.DeployZIP,
		ExecTime: s.ExecTime,
	}); err != nil {
		return nil, fmt.Errorf("%s shard %d: %w", s.name, sh.Index, err)
	}
	c.SetLatencyRecorder(out.rec)
	var tr *trace.Tracer
	if s.trace != nil {
		// The tracer's sampling stream is derived from the same shard seed
		// as the cloud's streams but under its own name, so the traced
		// run's other draws are identical to the untraced run's.
		tr = trace.New(*s.trace, dist.NewStreams(sh.Seed).Stream(s.Provider+"/trace"))
		c.SetTracer(tr)
	}

	req := &cloud.Request{Fn: s.name}
	done := func(_ *cloud.Response, err error) {
		if err != nil {
			out.errors++
		}
	}
	eng := e.eng
	burstArrivals(eng, n, s.Burst, s.IAT, func() { c.InvokeAsync(req, done) })
	eng.Run(0)

	out.colds = c.Metrics().ColdServed
	out.virtual = eng.Now()
	if tr != nil {
		out.dropped = tr.Dropped()
		out.traces = tr.Drain()
		for i := range out.traces {
			out.traces[i].Shard = sh.Index
			if err := out.traces[i].Validate(); err != nil {
				return nil, fmt.Errorf("%s shard %d: %w", s.name, sh.Index, err)
			}
		}
	}
	if got := out.rec.Count() + out.errors; got != n {
		return nil, fmt.Errorf("%s shard %d: %d of %d invocations unaccounted for",
			s.name, sh.Index, n-got, n)
	}
	if s.Exact {
		// Sorted here, on the worker, so the reducer only merges.
		out.rec.(*stats.Sample).Sort()
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
