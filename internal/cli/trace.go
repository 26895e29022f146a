package cli

import (
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/stellar-repro/stellar/internal/experiments"
	"github.com/stellar-repro/stellar/internal/results"
	"github.com/stellar-repro/stellar/internal/trace"
)

// cmdTrace runs a traced series against one simulated provider: sampled
// requests are recorded as per-stage span traces with virtual timestamps,
// exported as Chrome trace_event JSON (loadable in Perfetto or
// chrome://tracing) and summarized as a per-stage tail-attribution report.
func cmdTrace(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("trace", flag.ContinueOnError)
	fs.SetOutput(stdout)
	sf := addSeriesFlags(fs, 10_000)
	sample := fs.Float64("sample", 0.01, "head-sampling rate in [0,1]")
	slowest := fs.Int("slowest", 64, "always retain the K slowest requests per shard (0 = off)")
	ring := fs.Int("ring", 0, "per-shard trace ring capacity (0 = default 8192)")
	out := fs.String("out", "", "write retained traces as Chrome trace_event JSON")
	attrib := fs.Bool("attrib", true, "print the per-stage tail-attribution report")
	savePath := fs.String("save", "", "save the run (latencies + traces) as a results file")
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
	o, err := sf.options()
	if err != nil {
		return err
	}

	res, err := experiments.RunTrace(experiments.TraceOptions{
		Provider:    o.Provider,
		Invocations: o.Invocations,
		Shards:      o.Shards,
		Workers:     o.Workers,
		Seed:        o.Seed,
		IAT:         o.IAT,
		Burst:       o.Burst,
		ExecTime:    o.ExecTime,
		Trace: trace.Config{
			SampleRate:   *sample,
			SlowestK:     *slowest,
			RingCapacity: *ring,
		},
	})
	if err != nil {
		return err
	}
	if *attrib {
		experiments.WriteTraceReport(stdout, res)
	} else {
		fmt.Fprintf(stdout, "trace series: provider=%s invocations=%d traces=%d dropped=%d\n",
			res.Provider, res.Invocations, len(res.Traces), res.Dropped)
	}

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		if err := trace.WriteTraceEvents(f, res.Traces); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %d traces to %s (load in Perfetto or chrome://tracing)\n",
			len(res.Traces), *out)
	}
	if *savePath != "" {
		rec := results.FromTraceRun(*sf.name, res.Latencies, res.Traces, int(res.Colds), int(res.Errors))
		if err := rec.Save(*savePath); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "run saved to %s\n", *savePath)
	}
	return nil
}
