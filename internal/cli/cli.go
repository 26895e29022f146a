// Package cli implements the command-line front ends (stellar, stellar-sim,
// stellar-plot) as testable functions: thin main packages delegate here.
package cli

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"github.com/stellar-repro/stellar/internal/core"
	"github.com/stellar-repro/stellar/internal/experiments"
	"github.com/stellar-repro/stellar/internal/plot"
	"github.com/stellar-repro/stellar/internal/providers"
	"github.com/stellar-repro/stellar/internal/results"
)

// Main dispatches the stellar CLI and returns the process exit code.
func Main(args []string, stdout, stderr io.Writer) int {
	if len(args) < 1 {
		usage(stderr)
		return 2
	}
	var err error
	switch args[0] {
	case "providers":
		for _, name := range providers.Names() {
			fmt.Fprintln(stdout, name)
		}
	case "run":
		err = cmdRun(args[1:], stdout)
	case "bench":
		err = cmdBench(args[1:], stdout)
	case "suite":
		err = cmdSuite(args[1:], stdout)
	case "compare":
		err = cmdCompare(args[1:], stdout)
	case "trace":
		err = cmdTrace(args[1:], stdout)
	case "aztrace":
		err = cmdAzTrace(args[1:], stdout)
	case "scale":
		err = cmdScale(args[1:], stdout)
	case "stress":
		err = cmdStress(args[1:], stdout)
	case "faults":
		err = cmdFaults(args[1:], stdout)
	case "tenants":
		err = cmdTenants(args[1:], stdout)
	case "workflow":
		err = cmdWorkflow(args[1:], stdout)
	case "cost":
		err = cmdCost(args[1:], stdout)
	case "experiment":
		err = cmdExperiment(args[1:], stdout)
	case "-h", "--help", "help":
		usage(stdout)
	default:
		fmt.Fprintf(stderr, "stellar: unknown command %q\n", args[0])
		usage(stderr)
		return 2
	}
	if err != nil {
		fmt.Fprintln(stderr, "stellar:", err)
		return 1
	}
	return 0
}

func usage(w io.Writer) {
	fmt.Fprintln(w, `stellar — serverless tail-latency analyzer (STeLLAR reproduction)

commands:
  providers                       list provider profiles
  run        deploy + measure from config files (sim or http transport)
  bench      one ad-hoc measurement against a simulated provider
  suite      run a multi-experiment campaign from a suite config file
  compare    A/B-compare two saved runs (bootstrap CIs + Mann-Whitney)
  trace      per-request span tracing: sample a simulated series, export
             Chrome trace_event JSON and a per-stage tail-attribution report
  aztrace    generate/analyze Azure-style execution-time traces (Fig. 10)
  scale      sustained multi-million-invocation series summarized by
             bounded-memory mergeable quantile sketches
  stress     open-loop coordinated-omission-safe load generator over real
             sockets against an in-process httpfaas server, with a
             same-seed DES tail comparison
  faults     fault-injection sweep: failure-rate x retry-policy grid with
             success-rate / retry-cost / goodput / tail-latency reporting
  tenants    provider-scale multi-tenant trace replay: synthesized Azure-style
             tenant population under a swept keep-alive axis, reporting the
             cold-start-rate vs instance-seconds Pareto frontier
  workflow   orchestrated multi-function DAG workflows (chain, fan-out,
             diamond, map-reduce) with cross-function trace propagation,
             critical-path and per-edge transfer-tail reporting
  cost       control-plane cost/latency sweep: autoscaler and keep-alive
             policies priced under billing plans, reporting the
             cost-per-million-requests vs p99 Pareto frontier
  experiment regenerate a paper table/figure or extension study
             (fig3a..fig10, table1, breakdown, policyspace, snapshots, observations, all)`)
}

// cmdRun executes the full STeLLAR flow: static config -> deploy ->
// endpoints file -> runtime config -> client run -> report.
func cmdRun(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	fs.SetOutput(stdout)
	staticPath := fs.String("static", "", "static function configuration file (sim transport)")
	runtimePath := fs.String("runtime", "", "runtime configuration file (required)")
	endpointsPath := fs.String("endpoints", "", "endpoints file to write (sim) or read (http)")
	transport := fs.String("transport", "sim", "sim or http")
	csvPath := fs.String("csv", "", "write latency CDF as CSV")
	savePath := fs.String("save", "", "save the run as a results file for 'stellar compare'")
	name := fs.String("name", "run", "run name used in saved results")
	seed := fs.Int64("seed", 1, "random seed (sim transport)")
	scale := fs.Float64("scale", 1, "time compression for http transport")
	breakdown := fs.Bool("breakdown", false, "print per-component latency breakdown")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *runtimePath == "" {
		return fmt.Errorf("run: -runtime is required")
	}
	rc, err := core.LoadRuntimeConfig(*runtimePath)
	if err != nil {
		return err
	}

	var eps []core.Endpoint
	var client *core.Client
	switch *transport {
	case "sim":
		if *staticPath == "" {
			return fmt.Errorf("run: -static is required with the sim transport")
		}
		sc, err := core.LoadStaticConfig(*staticPath)
		if err != nil {
			return err
		}
		env, err := experiments.NewEnv(sc.Provider, *seed)
		if err != nil {
			return err
		}
		defer env.Close()
		out, err := env.Deployer().Deploy(sc)
		if err != nil {
			return err
		}
		if *endpointsPath != "" {
			if err := out.Save(*endpointsPath); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "wrote %d endpoints to %s\n", len(out.Endpoints), *endpointsPath)
		}
		eps = out.Endpoints
		client = env.Client()
	case "http":
		if *endpointsPath == "" {
			return fmt.Errorf("run: -endpoints is required with the http transport")
		}
		loaded, err := core.LoadEndpoints(*endpointsPath)
		if err != nil {
			return err
		}
		eps = loaded.Endpoints
		client = &core.Client{Transport: &core.HTTPTransport{TimeScale: *scale}}
	default:
		return fmt.Errorf("run: unknown transport %q", *transport)
	}

	res, err := client.Run(eps, *rc)
	if err != nil {
		return err
	}
	printRun(stdout, res, *breakdown)
	if *savePath != "" {
		if err := results.FromRunResult(*name, res).Save(*savePath); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "run saved to %s\n", *savePath)
	}
	if *csvPath != "" {
		return writeCSV(*csvPath, "latency", res)
	}
	return nil
}

// cmdBench runs one ad-hoc configuration without config files.
func cmdBench(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stdout)
	prof := addProfileFlags(fs)
	provider := fs.String("provider", "aws", "provider profile")
	providerFile := fs.String("provider-file", "", "JSON provider profile to load and use")
	samples := fs.Int("samples", 3000, "measured requests")
	iat := fs.Duration("iat", 3*time.Second, "inter-arrival time between steps")
	iatDist := fs.String("iat-dist", "fixed", "IAT distribution: fixed, exponential, bursty")
	burst := fs.Int("burst", 1, "requests per step")
	exec := fs.Duration("exec", 0, "function busy-spin time")
	replicas := fs.Int("replicas", 1, "identical function replicas (round-robin)")
	runtime := fs.String("runtime", "python3", "function runtime")
	method := fs.String("method", "zip", "deployment method")
	memory := fs.Int("memory", 0, "instance memory MB (0 = provider max)")
	extraImage := fs.Int64("extra-image", 0, "extra random-content image bytes")
	warmup := fs.Int("warmup", 0, "warm-up samples to discard")
	seed := fs.Int64("seed", 1, "random seed")
	csvPath := fs.String("csv", "", "write latency CDF as CSV")
	savePath := fs.String("save", "", "save the run as a results file for 'stellar compare'")
	timeline := fs.Duration("timeline", 0, "print windowed statistics at this window width")
	name := fs.String("name", "bench", "run name used in saved results")
	breakdown := fs.Bool("breakdown", false, "print per-component latency breakdown")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *timeline < 0 {
		return fmt.Errorf("bench: negative -timeline %v", *timeline)
	}
	stopProf, err := prof.start()
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil && err == nil {
			err = perr
		}
	}()
	if *providerFile != "" {
		name, err := providers.RegisterFile(*providerFile)
		if err != nil {
			return err
		}
		*provider = name
	}
	env, err := experiments.NewEnv(*provider, *seed)
	if err != nil {
		return err
	}
	defer env.Close()
	out, err := env.Deployer().Deploy(&core.StaticConfig{
		Provider: *provider,
		Functions: []core.FunctionConfig{{
			Name:            "bench",
			Runtime:         *runtime,
			Method:          *method,
			MemoryMB:        *memory,
			Replicas:        *replicas,
			ExtraImageBytes: *extraImage,
		}},
	})
	if err != nil {
		return err
	}
	res, err := env.Client().Run(out.Endpoints, core.RuntimeConfig{
		Samples:       *samples,
		IAT:           core.Duration(*iat),
		IATDist:       core.IATKind(*iatDist),
		BurstSize:     *burst,
		ExecTime:      core.Duration(*exec),
		WarmupDiscard: *warmup,
	})
	if err != nil {
		return err
	}
	printRun(stdout, res, *breakdown)
	if *timeline > 0 {
		fmt.Fprintln(stdout)
		if err := plot.Timeline(stdout, "latency over the run", res.Timeline(*timeline)); err != nil {
			return err
		}
	}
	if *savePath != "" {
		if err := results.FromRunResult(*name, res).Save(*savePath); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "run saved to %s\n", *savePath)
	}
	if *csvPath != "" {
		return writeCSV(*csvPath, *provider, res)
	}
	return nil
}

func printRun(w io.Writer, res *core.RunResult, breakdown bool) {
	sum := res.Summary()
	fmt.Fprintf(w, "samples=%d colds=%d errors=%d billed=%.3f GB-s\n",
		sum.Count, res.Colds, res.Errors, res.BilledGBSeconds)
	fmt.Fprintf(w, "latency: median=%v p95=%v p99=%v max=%v tmr=%.1f\n",
		sum.Median.Round(time.Millisecond), sum.P95.Round(time.Millisecond),
		sum.P99.Round(time.Millisecond), sum.Max.Round(time.Millisecond), sum.TMR)
	if res.Transfers.Len() > 0 {
		ts := res.Transfers.Summarize()
		fmt.Fprintf(w, "transfer: median=%v p99=%v tmr=%.1f\n",
			ts.Median.Round(time.Millisecond), ts.P99.Round(time.Millisecond), ts.TMR)
	}
	if breakdown {
		fmt.Fprintln(w)
		res.Breakdowns().Write(w)
		fmt.Fprintln(w)
	}
	_ = plot.CDF(w, "latency CDF", []plot.Series{{Label: "run", Sample: res.Latencies}}, 72, 16)
}

func writeCSV(path, label string, res *core.RunResult) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return plot.CSV(f, []plot.Series{{Label: label, Sample: res.Latencies}})
}

// cmdExperiment regenerates paper results.
func cmdExperiment(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("experiment", flag.ContinueOnError)
	fs.SetOutput(stdout)
	prof := addProfileFlags(fs)
	id := fs.String("id", "all", "experiment id (fig3a..fig10, table1, all)")
	samples := fs.Int("samples", 3000, "samples per configuration")
	replicas := fs.Int("replicas", 100, "replicas for cold studies")
	seed := fs.Int64("seed", 1, "random seed")
	workers := fs.Int("workers", 0, "concurrent series per experiment (0 = all CPUs, 1 = serial)")
	csvDir := fs.String("csv-dir", "", "write each figure's series as CSV into this directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProf, err := prof.start()
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil && err == nil {
			err = perr
		}
	}()
	opts := experiments.Options{Seed: *seed, Samples: *samples, Replicas: *replicas, Workers: *workers, CSVDir: *csvDir}
	return experiments.Report(stdout, *id, opts)
}
