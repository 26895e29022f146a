package main

import (
	"fmt"
	"math"
	"time"

	"github.com/stellar-repro/stellar/internal/azuretrace"
	"github.com/stellar-repro/stellar/internal/cloud"
	"github.com/stellar-repro/stellar/internal/des"
	"github.com/stellar-repro/stellar/internal/dist"
	"github.com/stellar-repro/stellar/internal/econ"
	"github.com/stellar-repro/stellar/internal/experiments"
	"github.com/stellar-repro/stellar/internal/providers"
	"github.com/stellar-repro/stellar/internal/runner"
	"github.com/stellar-repro/stellar/internal/stats"
	"github.com/stellar-repro/stellar/internal/stats/sketch"
	"github.com/stellar-repro/stellar/internal/trace"
)

// The traced replay re-implements the experiments drivers from public
// layer calls only, with a span around each call. It must reproduce the
// untraced run's outcome exactly (replay_test.go, and the digest check of
// every traced run), so each driver mirrors its experiments counterpart
// draw for draw: RunScale/RunTrace for the series driver, RunTenants/RunCost
// for the population driver.

// spanKind names one timed public layer call.
type spanKind int

const (
	spanStream spanKind = iota // dist.Streams.Stream
	spanSample                 // dist sampling in arrival callbacks
	spanSynth                  // azuretrace population synthesis
	spanEnv                    // experiments.NewEnv / NewEnvFromConfig
	spanDeploy                 // cloud.Cloud.Deploy
	spanInvoke                 // cloud.Cloud.InvokeAsync, synchronous part
	spanRecord                 // latency recorder Add
	spanMerge                  // sketch merge, exact-sample append
	spanRun                    // des.Engine.Run
	numSpans
)

var spanNames = [numSpans]string{
	"dist.stream", "dist.sample", "azuretrace.synth", "cloud.env", "cloud.deploy",
	"cloud.invoke", "sketch.record", "sketch.merge", "des.run",
}

var epoch = time.Now()

// clock reads the monotonic clock in ns since process start.
func clock() int64 { return int64(time.Since(epoch)) }

// shardTrace records the spans and counters of one shard, or of the code
// around the shards. Each is written by one goroutine at a time, so it
// needs no locking.
type shardTrace struct {
	calls [numSpans]uint64
	ns    [numSpans]int64
	depth int
	// runCovered is the part of des.run covered by the spans directly
	// inside it.
	runCovered  int64
	inRun       bool
	pendingPeak int
	wall        time.Duration
	counts      simCounts
}

// simCounts are simulated work counters read from the cloud after a run.
type simCounts struct {
	warm, cold, spawns, expirations, rejects, suspends, resumes uint64
	retained, dropped                                           uint64
}

func (c *simCounts) add(o simCounts) {
	c.warm += o.warm
	c.cold += o.cold
	c.spawns += o.spawns
	c.expirations += o.expirations
	c.rejects += o.rejects
	c.suspends += o.suspends
	c.resumes += o.resumes
	c.retained += o.retained
	c.dropped += o.dropped
}

func (t *shardTrace) begin() int64 {
	t.depth++
	return clock()
}

func (t *shardTrace) end(k spanKind, start int64) {
	d := clock() - start
	t.depth--
	t.calls[k]++
	t.ns[k] += d
	if t.inRun && t.depth == 1 {
		t.runCovered += d
	}
}

// run spans eng.Run(0). The drivers call it at depth 0, so a span ending
// at depth 1 while it runs sat directly inside Run.
func (t *shardTrace) run(eng *des.Engine) {
	s := t.begin()
	t.inRun = true
	eng.Run(0)
	t.inRun = false
	t.end(spanRun, s)
}

func (t *shardTrace) noteCloud(m cloud.Metrics) {
	t.counts.add(simCounts{
		warm: m.WarmServed, cold: m.ColdServed, spawns: m.Spawns, expirations: m.Expirations,
		rejects: m.ConcurrencyRejects, suspends: m.Suspends, resumes: m.Resumes,
	})
}

func (t *shardTrace) notePending(n int) {
	if n > t.pendingPeak {
		t.pendingPeak = n
	}
}

// timedRecorder spans every latency the cloud records.
type timedRecorder struct {
	rec cloud.LatencyRecorder
	t   *shardTrace
}

func (r *timedRecorder) Add(v time.Duration) {
	s := r.t.begin()
	r.rec.Add(v)
	r.t.end(spanRecord, s)
}

// replayTrace collects one traced replay: the spans around the shards
// (main), and per runner.Map call its wall time and its shards' traces.
type replayTrace struct {
	workers int
	main    shardTrace
	maps    []mapTiming
}

type mapTiming struct {
	wall   time.Duration
	shards []*shardTrace
}

// mapShards runs fn over n shards on the runner pool, giving each shard
// its own trace and timing the shards and the map.
func mapShards[T any](rt *replayTrace, seed int64, n int, fn func(runner.Shard, *shardTrace) (T, error)) ([]T, error) {
	ts := make([]*shardTrace, n)
	for i := range ts {
		ts[i] = &shardTrace{}
	}
	start := time.Now()
	out, err := runner.Map(runner.Pool{Workers: rt.workers, Seed: seed}, n, func(sh runner.Shard) (T, error) {
		t := ts[sh.Index]
		s := time.Now()
		v, err := fn(sh, t)
		t.wall = time.Since(s)
		return v, err
	})
	rt.maps = append(rt.maps, mapTiming{wall: time.Since(start), shards: ts})
	return out, err
}

// traces lists main and every shard's trace.
func (rt *replayTrace) traces() []*shardTrace {
	all := []*shardTrace{&rt.main}
	for _, m := range rt.maps {
		all = append(all, m.shards...)
	}
	return all
}

// shardInvocations mirrors the experiments package's positional split.
func shardInvocations(total uint64, shards, index int) uint64 {
	base := total / uint64(shards)
	if uint64(index) < total%uint64(shards) {
		base++
	}
	return base
}

type seriesShard struct {
	rec                    sketch.Recorder
	colds, errors, dropped uint64
	retained               uint64
	virtual                time.Duration
}

// replaySeries mirrors RunScale, or RunTrace when the spec carries a
// tracer, in the callback arrival form with one request per arrival.
func replaySeries(spec *seriesSpec, seed int64, workers int, rt *replayTrace) (*outcome, error) {
	shards, err := mapShards(rt, seed, spec.shards, func(sh runner.Shard, t *shardTrace) (*seriesShard, error) {
		return replaySeriesShard(spec, sh, t)
	})
	if err != nil {
		return nil, err
	}
	var merged sketch.Recorder
	if spec.trace != nil {
		merged = stats.NewSample(int(spec.invocations))
	} else {
		merged = sketch.New(0)
	}
	var colds, errors, dropped, retained uint64
	var virtual time.Duration
	for _, sh := range shards {
		colds += sh.colds
		errors += sh.errors
		dropped += sh.dropped
		retained += sh.retained
		virtual = max(virtual, sh.virtual)
		s := rt.main.begin()
		if spec.trace != nil {
			merged.(*stats.Sample).AddAll(sh.rec.(*stats.Sample).Values())
		} else if err := merged.(*sketch.Sketch).Merge(sh.rec.(*sketch.Sketch)); err != nil {
			return nil, fmt.Errorf("series merge: %w", err)
		}
		rt.main.end(spanMerge, s)
	}
	rt.main.counts.add(simCounts{retained: retained, dropped: dropped})
	return seriesOutcome(spec.provider, spec.invocations, colds, errors, dropped, retained, merged, virtual), nil
}

func replaySeriesShard(spec *seriesSpec, sh runner.Shard, t *shardTrace) (*seriesShard, error) {
	n := shardInvocations(spec.invocations, spec.shards, sh.Index)
	out := &seriesShard{}
	if spec.trace != nil {
		out.rec = stats.NewSample(int(n))
	} else {
		out.rec = sketch.New(0)
	}
	if n == 0 {
		return out, nil
	}

	s := t.begin()
	env, err := experiments.NewEnv(spec.provider, sh.Seed)
	t.end(spanEnv, s)
	if err != nil {
		return nil, fmt.Errorf("series shard %d: %w", sh.Index, err)
	}
	defer env.Close()
	c := env.Cloud()
	s = t.begin()
	err = c.Deploy(cloud.FunctionSpec{Name: spec.fn(), Runtime: cloud.RuntimePython, Method: cloud.DeployZIP})
	t.end(spanDeploy, s)
	if err != nil {
		return nil, fmt.Errorf("series shard %d: %w", sh.Index, err)
	}
	c.SetLatencyRecorder(&timedRecorder{rec: out.rec, t: t})
	var tr *trace.Tracer
	if spec.trace != nil {
		s = t.begin()
		rng := dist.NewStreams(sh.Seed).Stream(spec.provider + "/trace")
		t.end(spanStream, s)
		tr = trace.New(*spec.trace, rng)
		c.SetTracer(tr)
	}

	eng := c.Engine()
	req := &cloud.Request{Fn: spec.fn()}
	done := func(_ *cloud.Response, err error) {
		if err != nil {
			out.errors++
		}
	}
	remaining := n
	var arrive func()
	arrive = func() {
		t.notePending(eng.PendingEvents())
		s := t.begin()
		c.InvokeAsync(req, done)
		t.end(spanInvoke, s)
		remaining--
		if remaining > 0 {
			eng.CallAfter(spec.iat, arrive)
		}
	}
	eng.Call(arrive)
	t.run(eng)

	m := c.Metrics()
	t.noteCloud(m)
	out.colds = m.ColdServed
	out.virtual = eng.Now()
	if tr != nil {
		out.dropped = tr.Dropped()
		traces := tr.Drain()
		for i := range traces {
			if err := traces[i].Validate(); err != nil {
				return nil, fmt.Errorf("series shard %d: %w", sh.Index, err)
			}
		}
		out.retained = uint64(len(traces))
	}
	if got := out.rec.Count() + out.errors; got != n {
		return nil, fmt.Errorf("series shard %d: %d of %d invocations unaccounted for", sh.Index, n-got, n)
	}
	return out, nil
}

// tenant is one synthesized tenant of a population.
type tenant struct {
	rec     azuretrace.Record
	meanIAT time.Duration
}

// synthesize mirrors the experiments population synthesis: the Azure-style
// records, then one log-uniform mean IAT per tenant floored at its median.
func synthesize(spec *populationSpec, seed int64, t *shardTrace) []tenant {
	s := t.begin()
	rng := dist.NewStreams(seed).Stream("tenants/population")
	t.end(spanStream, s)
	s = t.begin()
	records := azuretrace.Generate(spec.tenants, rng)
	pop := make([]tenant, len(records))
	ratio := math.Log(float64(popIATHi) / float64(popIATLo))
	for i, rec := range records {
		iat := time.Duration(float64(popIATLo) * math.Exp(rng.Float64()*ratio))
		if med := rec.Median(); iat < med {
			iat = med
		}
		pop[i] = tenant{rec: rec, meanIAT: iat}
	}
	t.end(spanSynth, s)
	return pop
}

type unitOut struct {
	inv, cold, warm, errs uint64
	expirations           uint64
	suspends, resumes     uint64
	instSec               float64
	usage                 econ.Usage
	sk                    *sketch.Sketch
	virtual               time.Duration
}

// replayPopulation mirrors RunTenants and RunCost: every (policy, shard)
// unit replays its slice of one synthesized population, seeded by shard
// only, and the units fold per policy in shard order.
func replayPopulation(spec *populationSpec, seed int64, workers int, rt *replayTrace) (*outcome, error) {
	pop := synthesize(spec, seed, &rt.main)
	units, err := mapShards(rt, seed, len(spec.policies)*spec.shards, func(sh runner.Shard, t *shardTrace) (*unitOut, error) {
		return replayUnit(spec, seed, pop, spec.policies[sh.Index/spec.shards], sh.Index%spec.shards, t)
	})
	if err != nil {
		return nil, err
	}
	out := &outcome{}
	for pi, pol := range spec.policies {
		p := point{Name: pol.Name}
		merged := sketch.New(popAlpha)
		var usage econ.Usage
		var suspends, resumes uint64
		for _, u := range units[pi*spec.shards : (pi+1)*spec.shards] {
			p.Invocations += u.inv
			p.Colds += u.cold
			p.Warm += u.warm
			p.Errors += u.errs
			p.Expirations += u.expirations
			p.InstanceSeconds += u.instSec
			suspends += u.suspends
			resumes += u.resumes
			usage.Add(u.usage)
			if u.sk.Count() > 0 {
				s := rt.main.begin()
				err := merged.Merge(u.sk)
				rt.main.end(spanMerge, s)
				if err != nil {
					return nil, fmt.Errorf("population merge: %w", err)
				}
			}
			p.Virtual = max(p.Virtual, u.virtual)
		}
		// RunTenants exposes only the latency summary; RunCost also
		// exposes the metered usage, the suspend counters and the sketch.
		switch {
		case spec.cost:
			p.Usage, p.Suspends, p.Resumes = usage, suspends, resumes
			if merged.Count() > 0 {
				p.setDistribution(merged)
			}
		case merged.Count() > 0:
			p.Latency = merged.Summarize()
		}
		out.add(p)
	}
	return out, nil
}

// replayUnit mirrors one tenants/cost shard under one policy.
func replayUnit(spec *populationSpec, seed int64, pop []tenant, pol experiments.CostPolicy, shardIdx int, t *shardTrace) (*unitOut, error) {
	cfg, err := providers.Get(spec.provider)
	if err != nil {
		return nil, err
	}
	if pol.Autoscaler != nil {
		as := *pol.Autoscaler
		cfg.Autoscaler = &as
		cfg.ResumeDelay = dist.Constant(popResumeDelay)
	} else {
		cfg.KeepAlive = cloud.KeepAlivePolicy{Fixed: pol.KeepAlive}
	}
	shardSeed := dist.ShardSeed(seed, shardIdx)
	s := t.begin()
	env, err := experiments.NewEnvFromConfig(cfg, shardSeed)
	t.end(spanEnv, s)
	if err != nil {
		return nil, fmt.Errorf("unit %s/%d: %w", pol.Name, shardIdx, err)
	}
	defer env.Close()
	c := env.Cloud()
	eng := c.Engine()
	streams := dist.NewStreams(shardSeed)
	noopDone := func(*cloud.Response, error) {}
	horizon := spec.window

	type tenantRun struct {
		name   string
		sk     *sketch.Sketch
		issued uint64
	}
	var runs []*tenantRun
	for i := shardIdx; i < len(pop); i += spec.shards {
		ten, name := pop[i], pop[i].rec.Function
		s := t.begin()
		err := c.Deploy(cloud.FunctionSpec{
			Name: name, Runtime: cloud.RuntimePython, Method: cloud.DeployZIP, MaxInstances: popMaxConc,
		})
		t.end(spanDeploy, s)
		if err != nil {
			return nil, fmt.Errorf("unit %s/%d: %w", pol.Name, shardIdx, err)
		}
		s = t.begin()
		execDist, err := azuretrace.Synthesize(ten.rec)
		t.end(spanSynth, s)
		if err != nil {
			return nil, fmt.Errorf("unit %s/%d: %w", pol.Name, shardIdx, err)
		}
		tr := &tenantRun{name: name, sk: sketch.New(popAlpha)}
		if err := c.SetFunctionRecorder(name, &timedRecorder{rec: tr.sk, t: t}); err != nil {
			return nil, fmt.Errorf("unit %s/%d: %w", pol.Name, shardIdx, err)
		}
		runs = append(runs, tr)

		s = t.begin()
		arrRNG := streams.Stream("tenants/arr/" + name)
		t.end(spanStream, s)
		s = t.begin()
		execRNG := streams.Stream("tenants/exec/" + name)
		t.end(spanStream, s)
		mean := float64(ten.meanIAT)
		// draw spans one arrival-IAT draw.
		draw := func() time.Duration {
			s := t.begin()
			d := time.Duration(arrRNG.ExpFloat64() * mean)
			t.end(spanSample, s)
			return d
		}
		var arrive func()
		arrive = func() {
			tr.issued++
			t.notePending(eng.PendingEvents())
			s := t.begin()
			exec := execDist.Sample(execRNG)
			t.end(spanSample, s)
			s = t.begin()
			c.InvokeAsync(&cloud.Request{Fn: name, ExecTime: exec}, noopDone)
			t.end(spanInvoke, s)
			if next := draw(); eng.Now()+next < horizon {
				eng.CallAfter(next, arrive)
			}
		}
		if first := draw(); first < horizon {
			eng.CallAfter(first, arrive)
		}
	}

	t.run(eng)

	out := &unitOut{sk: sketch.New(popAlpha), virtual: eng.Now()}
	var tenantSum econ.Usage
	for _, tr := range runs {
		tm, ok := c.FunctionMetrics(tr.name)
		if !ok {
			return nil, fmt.Errorf("unit %s/%d: %s vanished", pol.Name, shardIdx, tr.name)
		}
		if tm.Invocations != tr.issued {
			return nil, fmt.Errorf("unit %s/%d: %s conservation violated: issued=%d admitted=%d",
				pol.Name, shardIdx, tr.name, tr.issued, tm.Invocations)
		}
		out.inv += tm.Invocations
		out.cold += tm.ColdServed
		out.warm += tm.WarmServed
		out.errs += tm.Errors
		out.instSec += tm.InstanceSeconds
		if tr.sk.Count() > 0 {
			s := t.begin()
			err := out.sk.Merge(tr.sk)
			t.end(spanMerge, s)
			if err != nil {
				return nil, fmt.Errorf("unit %s/%d: %w", pol.Name, shardIdx, err)
			}
		}
		u, ok := c.FunctionUsage(tr.name)
		if !ok {
			return nil, fmt.Errorf("unit %s/%d: %s has no usage", pol.Name, shardIdx, tr.name)
		}
		tenantSum.Add(u)
	}
	out.usage = c.Usage()
	if err := usageConserved(tenantSum, out.usage); err != nil {
		return nil, fmt.Errorf("unit %s/%d: %w", pol.Name, shardIdx, err)
	}
	m := c.Metrics()
	t.noteCloud(m)
	out.expirations, out.suspends, out.resumes = m.Expirations, m.Suspends, m.Resumes
	return out, nil
}

// usageConserved checks that per-tenant usage sums to the fleet meter up
// to float association noise, as the cost experiment does.
func usageConserved(sum, fleet econ.Usage) error {
	if sum.Requests != fleet.Requests {
		return fmt.Errorf("request conservation violated: tenants=%d fleet=%d", sum.Requests, fleet.Requests)
	}
	near := func(a, b float64) bool {
		return math.Abs(a-b) <= 1e-6*math.Max(math.Abs(a), math.Abs(b))+1e-12
	}
	if !near(sum.BusyGBms, fleet.BusyGBms) || !near(sum.IdleGBms, fleet.IdleGBms) ||
		!near(sum.SuspendedGBms, fleet.SuspendedGBms) {
		return fmt.Errorf("usage conservation violated: tenants=%+v fleet=%+v", sum, fleet)
	}
	return nil
}
