package stress

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/stellar-repro/stellar/internal/stats/sketch"
)

// reportQuantiles is the ladder every stress table prints.
var reportQuantiles = []float64{0.50, 0.90, 0.95, 0.99, 0.999, 0.9999}

// WriteReport renders a stress run: schedule and fleet facts, connection
// reuse, the send-lag health check, the coordinated-omission-safe
// intended-time quantile ladder next to the service-time one, and — when a
// DES twin ran — the virtual-vs-real tail comparison. timeScale is the
// httpfaas compression factor: real wall latencies are multiplied by it to
// land in virtual units, mirroring how the server compressed them.
func WriteReport(w io.Writer, o Options, res *Result, twin *DESResult, timeScale float64) {
	opts := o.withDefaults()
	mode := "open-loop (CO-safe)"
	if res.ClosedLoop {
		mode = "CLOSED-loop (coordinated-omission-prone control)"
	}
	fmt.Fprintf(w, "stress run: %s\n", opts.URL)
	switch opts.Arrival {
	case ArrivalTrace:
		fmt.Fprintf(w, "arrivals: trace (%d intervals of %v), %d workers, client=%s, seed=%d\n",
			len(opts.TraceCounts), opts.TraceInterval, opts.Workers, opts.Client, opts.Seed)
	default:
		fmt.Fprintf(w, "arrivals: %s @ %.0f req/s, %d workers, client=%s, seed=%d\n",
			opts.Arrival, opts.Rate, opts.Workers, opts.Client, opts.Seed)
	}
	fmt.Fprintf(w, "mode: %s\n", mode)
	fmt.Fprintf(w, "requests: %d (errors=%d colds=%d)  elapsed=%v  achieved=%.0f req/s\n",
		res.Requests, res.Errors, res.Colds, res.Elapsed.Round(time.Millisecond), res.AchievedRPS)
	fmt.Fprintf(w, "connections: dials=%d reused=%d\n", res.Dials, res.Reused)
	if res.SendLag.Count() > 0 {
		fmt.Fprintf(w, "send lag:%s  max=%v\n",
			quantileRow(res.SendLag), res.SendLag.Summarize().Max.Round(time.Microsecond))
	}
	if res.Intended.Count() > 0 {
		fmt.Fprintf(w, "latency (intended-time):%s\n", quantileRow(res.Intended))
		fmt.Fprintf(w, "latency (service-time): %s\n", quantileRow(res.Service))
	}
	if res.SimVirtual.Count() > 0 {
		fmt.Fprintf(w, "in-reply sim latency:   %s  (virtual time, from response bodies)\n",
			quantileRow(res.SimVirtual))
	}
	if twin != nil {
		fmt.Fprintf(w, "\nDES twin: same profile, same seed, same schedule, virtual clock\n")
		fmt.Fprintf(w, "twin requests: %d (errors=%d colds=%d)  virtual elapsed=%v\n",
			twin.Requests, twin.Errors, twin.Colds, twin.VirtualElapsed.Round(time.Millisecond))
		fmt.Fprintf(w, "%-10s %14s %14s %14s\n", "quantile", "real (virt-eq)", "DES virtual", "delta")
		for _, q := range reportQuantiles {
			wall := scaleDuration(res.Intended.Quantile(q), timeScale)
			virt := twin.Latency.Quantile(q)
			fmt.Fprintf(w, "p%-9g %14v %14v %+14v\n",
				q*100, wall.Round(time.Microsecond), virt.Round(time.Microsecond),
				(wall - virt).Round(time.Microsecond))
		}
		if timeScale != 1 {
			fmt.Fprintf(w, "(real latencies multiplied by timescale %g to compare in virtual units)\n", timeScale)
		}
	}
}

// quantileRow renders the standard ladder for one sketch.
func quantileRow(s *sketch.Sketch) string {
	var b strings.Builder
	for _, q := range reportQuantiles {
		fmt.Fprintf(&b, " p%g=%v", q*100, s.Quantile(q).Round(time.Microsecond))
	}
	return b.String()
}

// scaleDuration multiplies a wall duration by the timescale factor.
func scaleDuration(d time.Duration, scale float64) time.Duration {
	if scale == 1 || scale <= 0 {
		return d
	}
	return time.Duration(float64(d) * scale)
}

// WriteCDF writes the intended-time and service-time distributions as CSV
// (latency_ns, cdf fraction, series) for external plotting.
func WriteCDF(w io.Writer, res *Result) error {
	if _, err := fmt.Fprintln(w, "series,latency_ns,cdf"); err != nil {
		return err
	}
	for _, series := range []struct {
		name string
		s    *sketch.Sketch
	}{{"intended", res.Intended}, {"service", res.Service}} {
		name, s := series.name, series.s
		if s.Count() == 0 {
			continue
		}
		for _, p := range s.CDF() {
			if _, err := fmt.Fprintf(w, "%s,%d,%.6f\n", name, int64(p.Value), p.Frac); err != nil {
				return err
			}
		}
	}
	return nil
}

// LoadTraceCounts reads a per-interval arrival-count file: one non-negative
// integer per line (arrivals in that interval), blank lines and #-comments
// ignored — the shape `azuretrace` invocation rows reduce to. A file whose
// counts total more than MaxTraceArrivals is rejected at the line that
// crosses the cap.
func LoadTraceCounts(path string) ([]uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("stress: open trace: %w", err)
	}
	defer f.Close()
	return readTraceCounts(f, path)
}

// readTraceCounts is LoadTraceCounts over an open reader; name labels
// errors.
func readTraceCounts(r io.Reader, name string) ([]uint64, error) {
	var counts []uint64
	var total uint64
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		s := strings.TrimSpace(sc.Text())
		if s == "" || strings.HasPrefix(s, "#") {
			continue
		}
		n, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("stress: trace %s line %d: %q is not a non-negative count", name, line, s)
		}
		if n > MaxTraceArrivals-total {
			return nil, fmt.Errorf("stress: trace %s line %d: total exceeds %d arrivals", name, line, MaxTraceArrivals)
		}
		total += n
		counts = append(counts, n)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("stress: read trace: %w", err)
	}
	if len(counts) == 0 {
		return nil, fmt.Errorf("stress: trace %s has no counts", name)
	}
	return counts, nil
}
