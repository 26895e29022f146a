// Package experiments reproduces every table and figure of the paper's
// evaluation (§VI) using STeLLAR over the simulated provider clouds. Each
// figure has a runner returning a Figure with its measured series plus the
// paper's reference values, so reports can show paper-vs-measured side by
// side (recorded in EXPERIMENTS.md).
package experiments

import (
	"fmt"
	"time"

	"github.com/stellar-repro/stellar/internal/cloud"
	"github.com/stellar-repro/stellar/internal/core"
	"github.com/stellar-repro/stellar/internal/des"
	"github.com/stellar-repro/stellar/internal/dist"
	"github.com/stellar-repro/stellar/internal/providers"
	"github.com/stellar-repro/stellar/internal/runner"
	"github.com/stellar-repro/stellar/internal/stats"
)

// Options scales experiments: full paper scale (3000 samples, 100 replicas)
// by default, reducible for benches and CI.
type Options struct {
	// Seed roots all randomness. Every independent measurement (one
	// provider/configuration series) draws from its own splittable shard
	// stream derived from Seed, so results are byte-identical at any
	// Workers setting.
	Seed int64
	// Samples per configuration (paper: 3000).
	Samples int
	// Replicas for cold-start studies (paper: >100).
	Replicas int
	// Workers bounds how many independent series run concurrently, each on
	// its own isolated DES engine. Zero means GOMAXPROCS; 1 is fully
	// serial. The setting changes wall-clock time only, never results.
	Workers int
	// CSVDir, when set, makes Report write each figure's series as
	// <CSVDir>/<figureID>.csv for external plotting.
	CSVDir string
}

// Defaults returns paper-scale options.
func Defaults() Options {
	return Options{Seed: 1, Samples: 3000, Replicas: 100}
}

// Quick returns reduced options for fast benches and tests.
func Quick() Options {
	return Options{Seed: 1, Samples: 600, Replicas: 40}
}

func (o Options) normalized() Options {
	d := Defaults()
	if o.Samples <= 0 {
		o.Samples = d.Samples
	}
	if o.Replicas <= 0 {
		o.Replicas = d.Replicas
	}
	return o
}

// Ref is a paper-reported reference value for one series.
type Ref struct {
	// Median and P99 are the paper's values (zero when not reported).
	Median time.Duration
	P99    time.Duration
}

// Series is one measured curve/CDF of a figure.
type Series struct {
	// Label identifies the series ("aws short-IAT burst=100").
	Label string
	// X is the series' parameter value when the figure sweeps one
	// (payload bytes, burst size); zero otherwise.
	X float64
	// Latencies holds the measurement.
	Latencies *stats.Sample
	// Paper holds the paper's reference values when known.
	Paper Ref
	// Colds and Errors count per-run outcomes.
	Colds  int
	Errors int
}

// Summary of the series' measurement.
func (s Series) Summary() stats.Summary { return s.Latencies.Summarize() }

// Figure is a reproduced table or figure.
type Figure struct {
	ID     string
	Title  string
	Series []Series
	Notes  []string
}

// Long and short inter-arrival times from the paper's methodology (§V).
const (
	shortIAT = 3 * time.Second
	// longIAT makes providers shut idle instances down with high
	// likelihood. AWS reaps deterministically at 10 minutes, so a small
	// headroom suffices there.
	longIAT    = 15 * time.Minute
	longIATAWS = 10*time.Minute + 30*time.Second
)

// longIATFor returns the cold-study function IAT for a provider.
func longIATFor(provider string) time.Duration {
	if provider == "aws" {
		return longIATAWS
	}
	return longIAT
}

// env is one isolated measurement environment: a fresh engine, one
// simulated cloud, a deployer plugin, and a STeLLAR client.
type env struct {
	eng      *des.Engine
	cloud    *cloud.Cloud
	provider *core.SimProvider
	client   *core.Client
	deployer *core.Deployer
}

// newTransport builds an environment's client transport. The two-forms
// test swaps it for one that serves every request through the proc form
// (cloud.Invoke), the reference the default transport must reproduce.
var newTransport = func(eng *des.Engine, c *cloud.Cloud) core.Transport {
	return core.NewSimTransport(eng, c)
}

// newEnv builds an environment for a provider profile.
func newEnv(providerName string, seed int64) (*env, error) {
	cfg, err := providers.Get(providerName)
	if err != nil {
		return nil, err
	}
	return newEnvWithConfig(cfg, seed)
}

// newEnvWithConfig builds an environment from an explicit profile (used by
// the ablation benches).
func newEnvWithConfig(cfg cloud.Config, seed int64) (*env, error) {
	eng := des.NewEngine()
	streams := dist.NewStreams(seed)
	cl, err := cloud.New(eng, cfg, streams)
	if err != nil {
		eng.Close()
		return nil, err
	}
	sp := &core.SimProvider{Cloud: cl, BaseZipBytes: providers.BaseZipBytes()}
	client := &core.Client{
		Transport: newTransport(eng, cl),
		RNG:       streams.Stream("stellar-client"),
	}
	return &env{
		eng:      eng,
		cloud:    cl,
		provider: sp,
		client:   client,
		deployer: core.NewDeployer(sp),
	}, nil
}

func (e *env) close() { e.eng.Close() }

// run deploys a static config into the environment and executes one client
// run against all produced endpoints.
func (e *env) run(sc core.StaticConfig, rc core.RuntimeConfig) (*core.RunResult, error) {
	sc.Provider = e.cloud.Config().Name
	eps, err := e.deployer.Deploy(&sc)
	if err != nil {
		return nil, err
	}
	return e.client.Run(eps.Endpoints, rc)
}

// measure creates an isolated environment, runs one configuration, and
// returns the result.
func measure(providerName string, seed int64, sc core.StaticConfig, rc core.RuntimeConfig) (*core.RunResult, error) {
	e, err := newEnv(providerName, seed)
	if err != nil {
		return nil, err
	}
	defer e.close()
	return e.run(sc, rc)
}

// pool returns the worker pool all of the options' shards run on.
func (o Options) pool() runner.Pool {
	return runner.Pool{Workers: o.Workers, Seed: o.Seed}
}

// mapSeries runs n independent series measurements on the options' worker
// pool and collects them in index order. Each measurement receives its
// shard index and private seed; everything random inside it must derive
// from that seed so Workers=1 and Workers=N stay byte-identical.
func mapSeries(opts Options, n int, fn func(i int, seed int64) (Series, error)) ([]Series, error) {
	return runner.Map(opts.pool(), n, func(sh runner.Shard) (Series, error) {
		return fn(sh.Index, sh.Seed)
	})
}

// seriesFrom converts a run result into a Series.
func seriesFrom(label string, x float64, res *core.RunResult, paper Ref) Series {
	return Series{
		Label:     label,
		X:         x,
		Latencies: res.Latencies,
		Paper:     paper,
		Colds:     res.Colds,
		Errors:    res.Errors,
	}
}

// transferSeriesFrom is seriesFrom over the instrumented transfer times.
func transferSeriesFrom(label string, x float64, res *core.RunResult, paper Ref) (Series, error) {
	if res.Transfers.Len() == 0 {
		return Series{}, fmt.Errorf("experiments: %s produced no instrumented transfers", label)
	}
	return Series{
		Label:     label,
		X:         x,
		Latencies: res.Transfers,
		Paper:     paper,
		Colds:     res.Colds,
		Errors:    res.Errors,
	}, nil
}

// pythonFn is the standard single-function static config (paper §V: Python
// ZIP functions for everything except image-size and transfer studies).
func pythonFn(name string, replicas int) core.StaticConfig {
	return core.StaticConfig{Functions: []core.FunctionConfig{{
		Name:     name,
		Runtime:  string(cloud.RuntimePython),
		Method:   string(cloud.DeployZIP),
		Replicas: replicas,
	}}}
}

// AllProviders lists the studied providers in the paper's order.
var AllProviders = []string{"aws", "google", "azure"}
