package experiments

import (
	"fmt"
	"time"

	"github.com/stellar-repro/stellar/internal/core"
	"github.com/stellar-repro/stellar/internal/runner"
	"github.com/stellar-repro/stellar/internal/stats"
)

// Table1Cell is one provider's MR/TR for one factor.
type Table1Cell struct {
	// MR is the factor's median normalized to the provider's base warm
	// median; TR is the factor's p99 normalized the same way (§VII-A).
	MR, TR float64
	// PaperMR and PaperTR are Table I's published values.
	PaperMR, PaperTR float64
	// NA marks combinations the paper could not run (Azure transfers).
	NA bool
}

// Table1Row is one factor across providers.
type Table1Row struct {
	Factor string
	Cells  map[string]Table1Cell
}

// Table1Result is the reproduced Table I.
type Table1Result struct {
	Rows []Table1Row
	// BaseMedians are the per-provider warm medians used as normalizers.
	BaseMedians map[string]time.Duration
}

// paperTable1 holds the published MR/TR values (Table I).
var paperTable1 = map[string]map[string][2]float64{
	"Base warm":         {"aws": {1, 2}, "google": {1, 2}, "azure": {1, 1}},
	"Base cold":         {"aws": {10, 15}, "google": {28, 50}, "azure": {25, 64}},
	"Image size, 100MB": {"aws": {29, 49}, "google": {17, 60}, "azure": {59, 100}},
	"Inline transfer":   {"aws": {1, 2}, "google": {2, 3}},
	"Storage transfer":  {"aws": {3, 27}, "google": {5, 187}},
	"Bursty warm":       {"aws": {2, 11}, "google": {3, 5}, "azure": {5, 41}},
	"Bursty cold":       {"aws": {6, 12}, "google": {59, 100}, "azure": {41, 58}},
	"Bursty long":       {"aws": {12, 16}, "google": {64, 102}, "azure": {309, 619}},
}

// Table1Factors lists the rows in the paper's order.
var Table1Factors = []string{
	"Base warm", "Base cold", "Image size, 100MB", "Inline transfer",
	"Storage transfer", "Bursty warm", "Bursty cold", "Bursty long",
}

// Table1 reproduces Table I: for every studied tail-latency factor and
// provider, the median-to-base-median (MR) and tail-to-base-median (TR)
// ratios, normalized per provider to its own warm-invocation median.
// Transfer rows use 1MB payloads and the instrumented transfer time; burst
// rows use bursts of 100; the bursty-long row subtracts the 1-second
// execution time, all exactly as the paper specifies.
func Table1(opts Options) (*Table1Result, error) {
	opts = opts.normalized()
	res := &Table1Result{BaseMedians: make(map[string]time.Duration)}

	// Every cell of the table is an independent measurement on its own
	// simulated cloud; enumerate them all as shards (fixed order, so each
	// cell's shard seed is stable) and run them on the worker pool. The
	// base-warm normalization happens after collection.
	type cellCase struct {
		factor, prov string
		run          func(seed int64) (*stats.Sample, error)
	}
	var cases []cellCase
	for _, prov := range AllProviders {
		prov := prov
		cases = append(cases,
			// Base warm: individual invocations with the short IAT.
			cellCase{"Base warm", prov, func(seed int64) (*stats.Sample, error) {
				r, err := runBurst(prov, seed, BurstShortIAT, 1, opts.Samples, 0)
				if err != nil {
					return nil, fmt.Errorf("table1 %s base warm: %w", prov, err)
				}
				return r.Latencies, nil
			}},
			// Base cold: individual invocations with the long IAT.
			cellCase{"Base cold", prov, func(seed int64) (*stats.Sample, error) {
				r, err := measure(prov, seed, pythonFn("cold", opts.Replicas), coldRC(prov, opts))
				if err != nil {
					return nil, fmt.Errorf("table1 %s base cold: %w", prov, err)
				}
				return r.Latencies, nil
			}},
			// Image size: +100MB random-content file, cold invocations.
			cellCase{"Image size, 100MB", prov, func(seed int64) (*stats.Sample, error) {
				r, err := imageSizeRun(prov, seed, opts, 100<<20)
				if err != nil {
					return nil, fmt.Errorf("table1 %s image size: %w", prov, err)
				}
				return r.Latencies, nil
			}},
			// Bursty warm / cold: bursts of 100.
			cellCase{"Bursty warm", prov, func(seed int64) (*stats.Sample, error) {
				r, err := runBurst(prov, seed, BurstShortIAT, 100, burstSamples(opts, 100), 0)
				if err != nil {
					return nil, fmt.Errorf("table1 %s bursty warm: %w", prov, err)
				}
				return r.Latencies, nil
			}},
			cellCase{"Bursty cold", prov, func(seed int64) (*stats.Sample, error) {
				r, err := runBurst(prov, seed, BurstLongIAT, 100, burstSamples(opts, 100), 0)
				if err != nil {
					return nil, fmt.Errorf("table1 %s bursty cold: %w", prov, err)
				}
				return r.Latencies, nil
			}},
			// Bursty long: bursts of 100 with 1s execution; the execution
			// time is subtracted to isolate infrastructure and queueing
			// delays (Table I footnote).
			cellCase{"Bursty long", prov, func(seed int64) (*stats.Sample, error) {
				r, err := runBurst(prov, seed, BurstLongIAT, 100, burstSamples(opts, 100), Fig9ExecTime)
				if err != nil {
					return nil, fmt.Errorf("table1 %s bursty long: %w", prov, err)
				}
				return r.Latencies.Sub(Fig9ExecTime), nil
			}},
		)
	}
	// Transfer rows: 1MB payloads on the providers that support them.
	for _, prov := range TransferProviders {
		prov := prov
		cases = append(cases,
			cellCase{"Inline transfer", prov, func(seed int64) (*stats.Sample, error) {
				r, err := runTransfer(prov, seed, "inline", 1<<20, opts.Samples)
				if err != nil {
					return nil, fmt.Errorf("table1 %s inline: %w", prov, err)
				}
				return r.Transfers, nil
			}},
			cellCase{"Storage transfer", prov, func(seed int64) (*stats.Sample, error) {
				r, err := runTransfer(prov, seed, "storage", 1<<20, opts.Samples)
				if err != nil {
					return nil, fmt.Errorf("table1 %s storage: %w", prov, err)
				}
				return r.Transfers, nil
			}},
		)
	}

	samples, err := runner.Map(opts.pool(), len(cases), func(sh runner.Shard) (*stats.Sample, error) {
		return cases[sh.Index].run(sh.Seed)
	})
	if err != nil {
		return nil, err
	}
	cells := make(map[string]map[string]*stats.Sample) // factor -> provider -> sample
	for i, c := range cases {
		if cells[c.factor] == nil {
			cells[c.factor] = make(map[string]*stats.Sample)
		}
		cells[c.factor][c.prov] = samples[i]
		if c.factor == "Base warm" {
			res.BaseMedians[c.prov] = samples[i].Median()
		}
	}

	for _, factor := range Table1Factors {
		row := Table1Row{Factor: factor, Cells: make(map[string]Table1Cell)}
		for _, prov := range AllProviders {
			cell := Table1Cell{}
			if paper, ok := paperTable1[factor][prov]; ok {
				cell.PaperMR, cell.PaperTR = paper[0], paper[1]
			}
			sample, ok := cells[factor][prov]
			if !ok {
				cell.NA = true
			} else {
				base := res.BaseMedians[prov]
				cell.MR = sample.MR(base)
				cell.TR = sample.TR(base)
			}
			row.Cells[prov] = cell
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// coldRC is the runtime configuration of a base cold study.
func coldRC(prov string, opts Options) core.RuntimeConfig {
	return core.RuntimeConfig{
		Samples: opts.Samples,
		IAT:     core.Duration(longIATFor(prov) / time.Duration(opts.Replicas)),
	}
}

// imageSizeRun measures cold starts with an extra image file (Fig. 4's
// configuration, reused by Table I).
func imageSizeRun(prov string, seed int64, opts Options, size int64) (*core.RunResult, error) {
	sc := pythonFn("imgsz", opts.Replicas)
	sc.Functions[0].Runtime = "go1.x"
	sc.Functions[0].ExtraImageBytes = size
	return measure(prov, seed, sc, coldRC(prov, opts))
}

// burstSamples sizes a burst run: at least two bursts.
func burstSamples(opts Options, burst int) int {
	if opts.Samples < burst*2 {
		return burst * 2
	}
	return opts.Samples
}
