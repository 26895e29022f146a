package cli

import (
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/stellar-repro/stellar/internal/azuretrace"
	"github.com/stellar-repro/stellar/internal/dist"
	"github.com/stellar-repro/stellar/internal/plot"
)

// cmdAzTrace generates and analyzes Azure-Functions-style execution-time
// traces (the Fig. 10 pipeline): -generate synthesizes a trace calibrated
// to the published statistics; -analyze runs the TMR analysis over any
// trace in the CSV schema, including projections of the real public trace.
func cmdAzTrace(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("aztrace", flag.ContinueOnError)
	fs.SetOutput(stdout)
	generate := fs.Int("generate", 0, "synthesize a trace with this many functions")
	out := fs.String("out", "", "output CSV path for -generate")
	analyze := fs.String("analyze", "", "trace CSV to analyze (function,p25_ms,...,p99_ms)")
	seed := fs.Int64("seed", 1, "synthesis seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *generate > 0:
		records := azuretrace.Generate(*generate, dist.NewStreams(*seed).Stream("aztrace"))
		var w io.Writer = stdout
		if *out != "" {
			f, err := os.Create(*out)
			if err != nil {
				return err
			}
			defer f.Close()
			w = f
		}
		if err := azuretrace.WriteCSV(w, records); err != nil {
			return err
		}
		if *out != "" {
			fmt.Fprintf(stdout, "wrote %d functions to %s\n", len(records), *out)
		}
		return nil
	case *analyze != "":
		f, err := os.Open(*analyze)
		if err != nil {
			return err
		}
		defer f.Close()
		records, err := azuretrace.ReadCSV(f)
		if err != nil {
			return err
		}
		return writeTraceAnalysis(stdout, records)
	default:
		return fmt.Errorf("aztrace: need -generate N or -analyze FILE")
	}
}

// writeTraceAnalysis prints the Fig. 10 analysis for a trace.
func writeTraceAnalysis(w io.Writer, records []azuretrace.Record) error {
	fmt.Fprintf(w, "trace: %d functions\n\n", len(records))
	fmt.Fprintf(w, "%-10s %10s %14s\n", "class", "share", "P(TMR<10)")
	classes := []azuretrace.DurationClass{
		azuretrace.ClassAll, azuretrace.ClassSubSec,
		azuretrace.ClassMidRange, azuretrace.ClassLong,
	}
	var series []plot.Series
	for _, class := range classes {
		share := 1.0
		if class != azuretrace.ClassAll {
			share = azuretrace.ClassShare(records, class)
		}
		fmt.Fprintf(w, "%-10s %9.0f%% %14.2f\n", class, share*100,
			azuretrace.FracBelowTMR(records, class, 10))
		if sample := azuretrace.TMRSample(records, class); sample.Len() > 0 {
			series = append(series, plot.Series{Label: string(class), Sample: sample})
		}
	}
	fmt.Fprintln(w)
	return plot.CDF(w, "TMR CDFs (axis = TMR*1000, dimensionless)", series, 72, 14)
}
