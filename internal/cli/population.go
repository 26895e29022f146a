package cli

import (
	"flag"
	"io"
	"time"

	"github.com/stellar-repro/stellar/internal/experiments"
	"github.com/stellar-repro/stellar/internal/providers"
)

// populationFlags are the flags cmdTenants and cmdCost share: the
// synthesized tenant population, how its replay is sharded and executed,
// and the -json/-csv outputs.
type populationFlags struct {
	prof                   *profileFlags
	provider, providerFile *string
	tenants                *int
	duration               *time.Duration
	shards, workers        *int
	seed                   *int64
	iatLo, iatHi           *time.Duration
	alpha                  *float64
	maxConc                *int
	jsonPath, csvPath      *string
}

// addPopulationFlags registers the shared flags; the population size and
// arrival window default per command.
func addPopulationFlags(fs *flag.FlagSet, tenants int, duration time.Duration) *populationFlags {
	return &populationFlags{
		prof:         addProfileFlags(fs),
		provider:     fs.String("provider", "aws", "provider profile"),
		providerFile: fs.String("provider-file", "", "JSON provider profile to load and use"),
		tenants:      fs.Int("tenants", tenants, "synthesized tenant population size"),
		duration:     fs.Duration("duration", duration, "arrival window (virtual time)"),
		shards:       fs.Int("shards", 8, "independent simulation shards per policy"),
		workers:      fs.Int("workers", 0, "concurrent shard simulations (0 = all CPUs, 1 = serial)"),
		seed:         fs.Int64("seed", 1, "random seed"),
		iatLo:        fs.Duration("iat-lo", time.Second, "lower bound of per-tenant mean inter-arrival time"),
		iatHi:        fs.Duration("iat-hi", time.Minute, "upper bound of per-tenant mean inter-arrival time"),
		alpha:        fs.Float64("alpha", 0.02, "per-tenant latency sketch relative accuracy"),
		maxConc:      fs.Int("max-concurrency", 16, "per-tenant instance cap (-1 = uncapped)"),
		jsonPath:     fs.String("json", "", "write the sweep as JSON to this file (\"-\" = stdout)"),
		csvPath:      fs.String("csv", "", "write the sweep as CSV to this file (\"-\" = stdout)"),
	}
}

// options resolves the shared flags into the population options both
// sweeps build on. A -provider-file is registered and replaces -provider.
func (f *populationFlags) options() (experiments.CostOptions, error) {
	if *f.providerFile != "" {
		loaded, err := providers.RegisterFile(*f.providerFile)
		if err != nil {
			return experiments.CostOptions{}, err
		}
		*f.provider = loaded
	}
	return experiments.CostOptions{
		Provider:       *f.provider,
		Tenants:        *f.tenants,
		Duration:       *f.duration,
		Shards:         *f.shards,
		Workers:        *f.workers,
		Seed:           *f.seed,
		MeanIATLo:      *f.iatLo,
		MeanIATHi:      *f.iatHi,
		Alpha:          *f.alpha,
		MaxConcurrency: *f.maxConc,
	}, nil
}

// write emits the sweep result as -json and then -csv, when asked.
func (f *populationFlags) write(stdout io.Writer, res any, csv func(io.Writer) error) error {
	if *f.jsonPath != "" {
		if err := writeJSON(*f.jsonPath, stdout, res); err != nil {
			return err
		}
	}
	if *f.csvPath != "" {
		return writeTo(*f.csvPath, stdout, csv)
	}
	return nil
}
