package cli

import (
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/stellar-repro/stellar/internal/experiments"
	"github.com/stellar-repro/stellar/internal/results"
)

// cmdScale drives a sustained multi-million-invocation series against one
// simulated provider at bounded heap: latencies stream into mergeable
// quantile sketches instead of per-sample slices, so series length is
// limited by simulated time, not memory.
func cmdScale(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("scale", flag.ContinueOnError)
	fs.SetOutput(stdout)
	sf := addSeriesFlags(fs, 5_000_000)
	alpha := fs.Float64("alpha", 0, "sketch relative-accuracy target (0 = default 0.5%)")
	exact := fs.Bool("exact", false, "record exact per-sample latencies (O(n) memory; small n only)")
	csvPath := fs.String("csv", "", "write the latency CDF as CSV")
	savePath := fs.String("save", "", "save the merged sketch as a results file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProf, err := sf.prof.start()
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil && err == nil {
			err = perr
		}
	}()
	opts, err := sf.options()
	if err != nil {
		return err
	}
	opts.Alpha, opts.Exact = *alpha, *exact

	res, err := experiments.RunScale(opts)
	if err != nil {
		return err
	}
	experiments.WriteScaleReport(stdout, res)

	if *savePath != "" {
		if res.Sketch == nil {
			return fmt.Errorf("scale: -save requires sketch mode (drop -exact)")
		}
		rec := results.FromScaleRun(*sf.name, res.Sketch, int(res.Colds), int(res.Errors))
		if err := rec.Save(*savePath); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "sketch saved to %s\n", *savePath)
	}
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			return err
		}
		defer f.Close()
		return experiments.WriteScaleCDF(f, res)
	}
	return nil
}
