package cli

import (
	"flag"
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"github.com/stellar-repro/stellar/internal/experiments"
)

// cmdTenants runs the provider-scale multi-tenant trace replay: a
// synthesized Azure-style tenant population replayed against one simulated
// provider under a swept keep-alive axis, producing the cold-start-rate vs
// instance-seconds Pareto frontier. It is cmdCost's keep-alive preset and
// shares its population flags.
func cmdTenants(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("tenants", flag.ContinueOnError)
	fs.SetOutput(stdout)
	pf := addPopulationFlags(fs, 1000, 30*time.Minute)
	keepalives := fs.String("keepalives", "", "comma-separated keep-alive sweep (default 1m,5m,10m,20m)")
	top := fs.Int("top", 0, "report the N worst tenants by p99 per policy")
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProf, err := pf.prof.start()
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil && err == nil {
			err = perr
		}
	}()
	c, err := pf.options()
	if err != nil {
		return err
	}

	opts := experiments.TenantsOptions{
		Provider:       c.Provider,
		Tenants:        c.Tenants,
		Duration:       c.Duration,
		Shards:         c.Shards,
		Workers:        c.Workers,
		Seed:           c.Seed,
		MeanIATLo:      c.MeanIATLo,
		MeanIATHi:      c.MeanIATHi,
		Alpha:          c.Alpha,
		MaxConcurrency: c.MaxConcurrency,
		Top:            *top,
	}
	if opts.KeepAlives, err = parseDurations(*keepalives); err != nil {
		return fmt.Errorf("tenants: -keepalives: %w", err)
	}

	wallStart := time.Now()
	res, err := experiments.RunTenants(opts)
	if err != nil {
		return err
	}
	wall := time.Since(wallStart)

	experiments.WriteTenantsReport(stdout, res)
	// Wall-clock throughput lines carry a "wall:" prefix so differential
	// runs (CI's Workers=1 vs Workers=8 diff) can strip the only
	// nondeterministic output.
	var invocations uint64
	for _, p := range res.Points {
		invocations += p.Invocations
	}
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	fmt.Fprintf(stdout, "wall: %.2fs for %d tenant-replays / %d invocations (%.0f tenants/s, %.0f invocations/s), peak heap %.1f MB\n",
		wall.Seconds(), res.Tenants*len(res.Points), invocations,
		float64(res.Tenants*len(res.Points))/wall.Seconds(),
		float64(invocations)/wall.Seconds(),
		float64(mem.HeapSys)/(1<<20))

	return pf.write(stdout, res, func(w io.Writer) error {
		return experiments.WriteTenantsCSV(w, res)
	})
}

// parseDurations parses a comma-separated duration list ("" = nil for
// defaults).
func parseDurations(s string) ([]time.Duration, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]time.Duration, 0, len(parts))
	for _, p := range parts {
		d, err := time.ParseDuration(strings.TrimSpace(p))
		if err != nil {
			return nil, err
		}
		out = append(out, d)
	}
	return out, nil
}
