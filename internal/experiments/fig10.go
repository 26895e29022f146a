package experiments

import (
	"fmt"

	"github.com/stellar-repro/stellar/internal/azuretrace"
	"github.com/stellar-repro/stellar/internal/dist"
)

// fig10Classes pairs duration classes with the paper's reported fraction of
// functions whose TMR stays below 10 (§VII-B).
var fig10Classes = []struct {
	class     azuretrace.DurationClass
	paperFrac float64
}{
	{azuretrace.ClassAll, 0.70},
	{azuretrace.ClassSubSec, 0.60},
	{azuretrace.ClassMidRange, 0.78}, // interpolated; not explicitly reported
	{azuretrace.ClassLong, 0.90},
}

// Fig10Result captures the trace analysis behind Fig. 10.
type Fig10Result struct {
	// Records is the synthesized trace.
	Records []azuretrace.Record
	// Series holds the TMR CDFs per duration class; Series.Latencies
	// stores TMR*1000 as nanoseconds (dimensionless ratio axis).
	Figure *Figure
	// FracBelow10 maps class to measured P(TMR < 10).
	FracBelow10 map[azuretrace.DurationClass]float64
}

// Fig10TraceTMR reproduces Fig. 10: CDFs of per-function execution-time
// tail-to-median ratios from (a synthesis of) the Azure Functions trace,
// overall and split by function duration class.
func Fig10TraceTMR(opts Options) (*Fig10Result, error) {
	opts = opts.normalized()
	n := opts.Samples * 4 // trace functions, not invocations; use a bigger pool
	if n < 2000 {
		n = 2000
	}
	records := azuretrace.Generate(n, dist.NewStreams(opts.Seed).Stream("fig10/trace"))
	fig := &Figure{
		ID:    "fig10",
		Title: "TMR CDFs of per-function execution times (Azure trace)",
		Notes: []string{"x-axis is the dimensionless TMR (stored as TMR*1000 nanoseconds)"},
	}
	fracs := make(map[azuretrace.DurationClass]float64, len(fig10Classes))
	for _, c := range fig10Classes {
		sample := azuretrace.TMRSample(records, c.class)
		if sample.Len() == 0 {
			return nil, fmt.Errorf("fig10: class %s empty", c.class)
		}
		fig.Series = append(fig.Series, Series{
			Label:     string(c.class),
			Latencies: sample,
		})
		fracs[c.class] = azuretrace.FracBelowTMR(records, c.class, 10)
	}
	return &Fig10Result{Records: records, Figure: fig, FracBelow10: fracs}, nil
}
