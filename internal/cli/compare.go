package cli

import (
	"flag"
	"fmt"
	"io"

	"github.com/stellar-repro/stellar/internal/dist"
	"github.com/stellar-repro/stellar/internal/results"
)

// cmdCompare performs an A/B analysis of two saved runs: bootstrap
// confidence intervals per percentile plus a Mann-Whitney U test of the
// whole distributions — the statistically sound way to claim "the tail
// moved" between two measurement campaigns.
func cmdCompare(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stdout)
	confidence := fs.Float64("confidence", 0.95, "CI coverage")
	resamples := fs.Int("resamples", 500, "bootstrap resamples")
	seed := fs.Int64("seed", 1, "bootstrap seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("compare: need exactly two run files (have %d)", fs.NArg())
	}
	a, err := results.Load(fs.Arg(0))
	if err != nil {
		return err
	}
	b, err := results.Load(fs.Arg(1))
	if err != nil {
		return err
	}
	// Bootstrap resampling and rank tests need raw samples; sketch-only
	// records (from `stellar scale`) summarize too far for either.
	for i, rec := range []*results.RunRecord{a, b} {
		if len(rec.LatenciesNS) == 0 {
			return fmt.Errorf("compare: %s is a sketch-only record; comparisons need raw samples (rerun without sketch summarization, e.g. `stellar bench -save`)", fs.Arg(i))
		}
	}
	cmp := results.Compare(a, b, *confidence, *resamples, dist.NewStreams(*seed).Stream("compare/bootstrap"))
	cmp.Write(stdout)
	return nil
}
