package cli

import (
	"flag"
	"time"

	"github.com/stellar-repro/stellar/internal/experiments"
	"github.com/stellar-repro/stellar/internal/providers"
)

// seriesFlags are the flags cmdScale and cmdTrace share: the provider, the
// burst-clock series shape and its sharding, and the saved run's name
// (defaulting to the command's name).
type seriesFlags struct {
	prof                   *profileFlags
	provider, providerFile *string
	invocations            *uint64
	shards, workers, burst *int
	iat, exec              *time.Duration
	seed                   *int64
	name                   *string
}

// addSeriesFlags registers the shared flags; the series length defaults per
// command.
func addSeriesFlags(fs *flag.FlagSet, invocations uint64) *seriesFlags {
	return &seriesFlags{
		prof:         addProfileFlags(fs),
		provider:     fs.String("provider", "aws", "provider profile"),
		providerFile: fs.String("provider-file", "", "JSON provider profile to load and use"),
		invocations:  fs.Uint64("n", invocations, "total invocations across all shards"),
		shards:       fs.Int("shards", 8, "independent simulation shards"),
		workers:      fs.Int("workers", 0, "concurrent shards (0 = all CPUs, 1 = serial)"),
		iat:          fs.Duration("iat", 100*time.Millisecond, "inter-arrival time between bursts within a shard"),
		burst:        fs.Int("burst", 1, "requests per arrival step"),
		exec:         fs.Duration("exec", 0, "function busy-spin time"),
		seed:         fs.Int64("seed", 1, "random seed"),
		name:         fs.String("name", fs.Name(), "run name used in saved results"),
	}
}

// options resolves the shared flags into the scale options both series
// build on. A -provider-file is registered and replaces -provider.
func (f *seriesFlags) options() (experiments.ScaleOptions, error) {
	if *f.providerFile != "" {
		loaded, err := providers.RegisterFile(*f.providerFile)
		if err != nil {
			return experiments.ScaleOptions{}, err
		}
		*f.provider = loaded
	}
	return experiments.ScaleOptions{
		Provider:    *f.provider,
		Invocations: *f.invocations,
		Shards:      *f.shards,
		Workers:     *f.workers,
		Seed:        *f.seed,
		IAT:         *f.iat,
		Burst:       *f.burst,
		ExecTime:    *f.exec,
	}, nil
}
