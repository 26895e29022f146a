// Command bench is the simulator's benchmark: four fixed replays measured
// in host time, end to end through the public experiments entry points,
// and layer by layer through bench-owned traced drivers. See README.md.
//
//	bash bench/run.sh --workload <name|all> --seed <n> --seconds <s> --trace <0|1> [--out ledger.jsonl]
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// A failed correctness check exits 1.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"
)

// metricSpec describes one printed metric; the lists below must equal
// BENCHMARK.json (schema_test.go).
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are measured with tracing off, as medians over a run's batches.
var endToEnd = []metricSpec{
	{"inv_per_s", "1/s", "higher", 0.25},
	{"cpu_ns_per_inv", "ns", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.10},
}

// perLayer come from the traced run.
var perLayer = buildPerLayer()

func buildPerLayer() []metricSpec {
	var out []metricSpec
	for _, n := range spanNames {
		out = append(out,
			metricSpec{Name: n + ".calls", Unit: "count", Better: "lower"},
			metricSpec{Name: n + ".ns_per_call", Unit: "ns", Better: "lower"},
			metricSpec{Name: n + "_s", Unit: "s", Better: "lower"})
	}
	out = append(out,
		metricSpec{"des.run.self_frac", "fraction", "lower", 0},
		metricSpec{"des.pending_peak", "count", "lower", 0})
	for _, l := range cpuLayers {
		out = append(out, metricSpec{Name: l + ".cpu_frac", Unit: "fraction", Better: "lower"})
	}
	return append(out,
		metricSpec{"bench.profile_samples", "count", "higher", 0},
		metricSpec{"runtime.allocs_per_inv", "count", "lower", 0},
		metricSpec{"runtime.peak_live_heap_mb", "MB", "lower", 0},
		metricSpec{"runtime.gc_cpu_frac", "fraction", "lower", 0},
		metricSpec{"runtime.gc_cycles", "count", "lower", 0},
		metricSpec{"runner.busy_frac", "fraction", "higher", 0},
		metricSpec{"runner.shard_imbalance", "ratio", "lower", 0},
		metricSpec{"cloud.warm_hit_frac", "fraction", "higher", 0},
		metricSpec{"cloud.spawns", "count", "lower", 0},
		metricSpec{"cloud.expirations", "count", "lower", 0},
		metricSpec{"cloud.concurrency_rejects", "count", "lower", 0},
		metricSpec{"econ.resume_per_suspend", "ratio", "higher", 0},
		metricSpec{"trace.retained", "count", "higher", 0},
		metricSpec{"trace.dropped", "count", "lower", 0},
		metricSpec{"bench.trace_overhead_frac", "fraction", "lower", 0},
		metricSpec{"bench.span_ns", "ns", "lower", 0},
	)
}

// setup_s is the median of at least setupRuns zero-load runs spanning at
// least setupSpan: a millisecond-scale setup gets enough runs for a
// steady median.
const (
	setupRuns = 5
	setupSpan = 250 * time.Millisecond
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload name, or all to run each in its own process")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 25, "host seconds a run spends repeating its batch")
	traced := fs.Int("trace", 0, "1 runs the traced replay and prints the per-layer metrics")
	out := fs.String("out", "", "append one JSON line per run to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *traced < 0 || *traced > 1 || *seconds < 0 {
		fmt.Fprintln(stderr, "bench: bad arguments")
		fs.Usage()
		return 2
	}
	// Two workers on two Ps, as on the 2-vCPU reference machine, and never
	// more than the machine has.
	procs := min(2, runtime.NumCPU())
	runtime.GOMAXPROCS(procs)

	if *name == "all" {
		child := []string{"-seed", fmt.Sprint(*seed), "-seconds", fmt.Sprint(*seconds), "-trace", fmt.Sprint(*traced)}
		if *out != "" {
			child = append(child, "-out", *out)
		}
		return runAll(child, stderr)
	}
	var w *workload
	for _, c := range workloadsAt(1) {
		if c.name == *name {
			w = &c
		}
	}
	if w == nil {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	return runOne(*w, runConfig{
		seed:    *seed,
		budget:  time.Duration(*seconds) * time.Second,
		workers: procs,
		traced:  *traced == 1,
		ledger:  *out,
	}, stdout, stderr)
}

// runOne runs one workload and prints its result line; it returns the
// exit code.
func runOne(w workload, cfg runConfig, stdout, stderr io.Writer) int {
	run := runUntraced
	if cfg.traced {
		run = runTraced
	}
	res, digest, err := run(w, cfg, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		if res == nil {
			return 1
		}
	}
	if cfg.ledger != "" {
		if err := appendLedger(w.name, cfg, digest, res); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runAll runs every workload in its own child process, one after another,
// so no workload inherits another's heap. args are the children's flags
// other than -workload.
func runAll(args []string, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	code := 0
	for _, w := range workloadsAt(1) {
		cmd := exec.Command(self, append([]string{"-workload", w.name}, args...)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}

type runConfig struct {
	seed    int64
	budget  time.Duration
	workers int
	traced  bool
	ledger  string // -out file, or ""
}

// repeat calls batch until the budget is spent, and at least once: it
// stops when another batch as long as the last would overrun the budget.
func repeat(budget time.Duration, batch func() (time.Duration, error)) error {
	start := time.Now()
	for {
		d, err := batch()
		if err != nil {
			return err
		}
		if time.Since(start)+d > budget {
			return nil
		}
	}
}

// printer writes the human-readable metric lines and collects the result.
type printer struct {
	w        io.Writer
	workload string
	metrics  map[string]metricValue
}

func (p *printer) put(spec metricSpec, v float64) {
	p.metrics[spec.Name] = metricValue{Value: v, Unit: spec.Unit}
	fmt.Fprintf(p.w, "%-18s %-28s %18.6f %s\n", p.workload, spec.Name, v, spec.Unit)
}

func (p *printer) note(format string, args ...any) {
	fmt.Fprintf(p.w, "%-18s # "+format+"\n", append([]any{p.workload}, args...)...)
}

// checkDigest reports the batch digest against the pinned seed-1 digest.
func checkDigest(p *printer, w workload, seed int64, digest string) {
	pinned := pinnedDigests[w.name]
	switch {
	case seed != 1:
		p.note("digest %s (seed %d, no pin)", digest, seed)
	case pinned == digest:
		p.note("digest %s matches the pinned seed-1 digest", digest)
	default:
		p.note("digest %s MISMATCHES the pinned seed-1 digest %q; re-pin only for a deliberate output change", digest, pinned)
	}
}

// runUntraced measures the end-to-end metrics: repeated batches through
// the public entry point, then setup_s from zero-load runs. The setups
// come after peak RSS is read: hundreds of sub-millisecond setups raise
// the footprint of a small workload, so a faster setup would otherwise
// read as more memory.
func runUntraced(w workload, cfg runConfig, stdout io.Writer) (*result, string, error) {
	p := &printer{w: stdout, workload: w.name, metrics: map[string]metricValue{}}
	batch := func() (*outcome, error) { return w.run(cfg.seed, cfg.workers) }
	if _, err := measure(batch); err != nil { // warm-up
		return nil, "", err
	}
	var reps []rep
	err := repeat(cfg.budget, func() (time.Duration, error) {
		r, err := measure(batch)
		if err != nil {
			return 0, err
		}
		reps = append(reps, r)
		return r.wall, nil
	})
	if err != nil {
		return nil, "", err
	}

	rss, err := peakRSS()
	if err != nil {
		return nil, "", err
	}
	var setups []float64
	for begin := time.Now(); len(setups) < setupRuns || time.Since(begin) < setupSpan; {
		runtime.GC()
		start := time.Now()
		if err := w.setup(cfg.seed, cfg.workers); err != nil {
			return nil, "", fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	res := &result{Correct: true, Metrics: p.metrics}
	for _, r := range reps {
		res.Attempted += r.out.Invocations
		res.Failed += r.out.Failed
		if r.digest != reps[0].digest {
			res.Correct = false
			err = fmt.Errorf("batch digests differ within one run: %s vs %s", reps[0].digest, r.digest)
		}
	}
	inv := float64(reps[0].out.Invocations)
	walls := make([]string, len(reps))
	for i, r := range reps {
		walls[i] = fmt.Sprintf("%.3f", r.wall.Seconds())
	}
	p.note("%d batches of %d invocations, seed %d, GOMAXPROCS %d, walls %s s",
		len(reps), reps[0].out.Invocations, cfg.seed, cfg.workers, strings.Join(walls, " "))
	checkDigest(p, w, cfg.seed, reps[0].digest)
	for _, m := range endToEnd {
		var v float64
		switch m.Name {
		case "inv_per_s":
			v = medianOf(reps, func(r rep) float64 { return inv / r.wall.Seconds() })
		case "cpu_ns_per_inv":
			v = medianOf(reps, func(r rep) float64 { return float64(r.cpu) / inv })
		case "setup_s":
			v = median(setups)
		case "peak_rss_mb":
			v = float64(rss) / (1 << 20)
		}
		p.put(m, v)
	}
	return res, reps[0].digest, err
}

// tracedRep is one traced batch.
type tracedRep struct {
	wall   time.Duration
	rt     *replayTrace
	digest string
	out    *outcome
}

// runTraced alternates an untraced batch with a traced replay of the same
// batch until the budget is spent. The untraced batches run under the CPU
// profiler, so the layer shares describe the code users run rather than
// the replay's bench-owned glue and span clock reads. Every replay's
// digest must equal the untraced batches'.
func runTraced(w workload, cfg runConfig, stdout io.Writer) (*result, string, error) {
	p := &printer{w: stdout, workload: w.name, metrics: map[string]metricValue{}}
	spanNS := spanCost()
	flat := map[string]int64{}
	var samples int64
	profiled := func() (rep, error) {
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return rep{}, fmt.Errorf("cpu profile: %w", err)
		}
		r, err := measure(func() (*outcome, error) { return w.run(cfg.seed, cfg.workers) })
		pprof.StopCPUProfile()
		if err != nil {
			return rep{}, err
		}
		n, err := addProfile(flat, prof.Bytes())
		samples += n
		return r, err
	}
	if _, err := profiled(); err != nil { // warm-up, profiled but not timed
		return nil, "", err
	}
	var plain []rep
	var traced []tracedRep
	err := repeat(cfg.budget, func() (time.Duration, error) {
		r, err := profiled()
		if err != nil {
			return 0, err
		}
		plain = append(plain, r)

		runtime.GC()
		rt := &replayTrace{workers: cfg.workers}
		start := time.Now()
		out, err := w.replay(cfg.seed, cfg.workers, rt)
		wall := time.Since(start)
		if err != nil {
			return 0, fmt.Errorf("traced replay: %w", err)
		}
		d, err := out.digest()
		if err != nil {
			return 0, err
		}
		traced = append(traced, tracedRep{wall: wall, rt: rt, digest: d, out: out})
		return r.wall + wall, nil
	})
	if err != nil {
		return nil, "", err
	}

	res := &result{Correct: true, Metrics: p.metrics}
	for i := range traced {
		res.Attempted += plain[i].out.Invocations + traced[i].out.Invocations
		res.Failed += plain[i].out.Failed + traced[i].out.Failed
		if plain[i].digest != plain[0].digest || traced[i].digest != plain[0].digest {
			res.Correct = false
			err = errors.New("the traced replay's digest differs from the untraced run's")
		}
	}
	p.note("%d traced batches, untraced digest %s, traced digest %s", len(traced), plain[0].digest, traced[0].digest)
	checkDigest(p, w, cfg.seed, plain[0].digest)
	putLayers(p, plain, traced, flat, samples, spanNS)
	return res, plain[0].digest, err
}

// spanCost measures one empty span, the floor under every ns_per_call.
func spanCost() float64 {
	const n = 100_000
	var t shardTrace
	start := clock()
	for i := 0; i < n; i++ {
		t.end(spanSample, t.begin())
	}
	return float64(clock()-start) / n
}

// putLayers derives the per-layer metrics. Counts are per batch.
func putLayers(p *printer, plain []rep, traced []tracedRep, flat map[string]int64, samples int64, spanNS float64) {
	batches := float64(len(traced))
	var calls [numSpans]uint64
	var ns [numSpans]int64
	var covered int64
	var counts simCounts
	pendingPeak := 0
	var shardWall, mapCapacity float64
	var imbalance []float64
	for _, tr := range traced {
		for _, t := range tr.rt.traces() {
			for k := range calls {
				calls[k] += t.calls[k]
				ns[k] += t.ns[k]
			}
			covered += t.runCovered
			counts.add(t.counts)
			pendingPeak = max(pendingPeak, t.pendingPeak)
		}
		for _, m := range tr.rt.maps {
			var sum, slowest float64
			for _, t := range m.shards {
				sum += t.wall.Seconds()
				slowest = max(slowest, t.wall.Seconds())
			}
			shardWall += sum
			mapCapacity += float64(min(tr.rt.workers, len(m.shards))) * m.wall.Seconds()
			imbalance = append(imbalance, slowest/(sum/float64(len(m.shards))))
		}
	}
	var flatTotal int64
	for _, v := range flat {
		flatTotal += v
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	plainWall := medianOf(plain, func(r rep) float64 { return r.wall.Seconds() })
	tracedWalls := make([]float64, len(traced))
	for i, tr := range traced {
		tracedWalls[i] = tr.wall.Seconds()
	}

	values := map[string]float64{
		"des.run.self_frac":         ratio(float64(ns[spanRun]-covered), float64(ns[spanRun])),
		"des.pending_peak":          float64(pendingPeak),
		"bench.profile_samples":     float64(samples),
		"runtime.allocs_per_inv":    medianOf(plain, func(r rep) float64 { return float64(r.mallocs) / float64(r.out.Invocations) }),
		"runtime.peak_live_heap_mb": medianOf(plain, func(r rep) float64 { return float64(r.peakLive) / (1 << 20) }),
		"runtime.gc_cpu_frac":       medianOf(plain, func(r rep) float64 { return r.gcFrac }),
		"runtime.gc_cycles":         medianOf(plain, func(r rep) float64 { return float64(r.gcCycles) }),
		"runner.busy_frac":          ratio(shardWall, mapCapacity),
		"runner.shard_imbalance":    median(imbalance),
		"cloud.warm_hit_frac":       ratio(float64(counts.warm), float64(counts.warm+counts.cold)),
		"cloud.spawns":              float64(counts.spawns) / batches,
		"cloud.expirations":         float64(counts.expirations) / batches,
		"cloud.concurrency_rejects": float64(counts.rejects) / batches,
		"econ.resume_per_suspend":   ratio(float64(counts.resumes), float64(counts.suspends)),
		"trace.retained":            float64(counts.retained) / batches,
		"trace.dropped":             float64(counts.dropped) / batches,
		"bench.trace_overhead_frac": ratio(median(tracedWalls), plainWall) - 1,
		"bench.span_ns":             spanNS,
	}
	for k, n := range spanNames {
		values[n+".calls"] = float64(calls[k]) / batches
		values[n+".ns_per_call"] = ratio(float64(ns[k]), float64(calls[k]))
		values[n+"_s"] = float64(ns[k]) / 1e9 / batches
	}
	for _, l := range cpuLayers {
		values[l+".cpu_frac"] = ratio(float64(flat[l]), float64(flatTotal))
	}
	for _, m := range perLayer {
		p.put(m, values[m.Name])
	}
}
