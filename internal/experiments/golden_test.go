package experiments

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/stellar-repro/stellar/internal/trace"
)

// updateGolden rewrites the committed fixtures from the current engine. Run
// `go test ./internal/experiments -run TestGolden -update-golden` only when
// an intentional statistical change is made; engine refactors must leave the
// fixtures untouched.
var updateGolden = flag.Bool("update-golden", false, "rewrite golden fixtures")

// checkGolden pins render's output to testdata/golden/<name>.fingerprint at
// Workers=1 and Workers=8. With -update-golden it rewrites the fixture from
// the Workers=1 render instead.
func checkGolden(t *testing.T, name string, render func(t *testing.T, workers int) string) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name+".fingerprint")
	got := render(t, 1)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing fixture (run with -update-golden to regenerate): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s: Workers=1 output diverged from the fixture\n--- got ---\n%s--- want ---\n%s", name, got, want)
	}
	if got8 := render(t, 8); got8 != string(want) {
		t.Errorf("%s: Workers=8 output diverged from the fixture\n--- got ---\n%s--- want ---\n%s", name, got8, want)
	}
}

// TestGoldenFigureFingerprints pins every figure's summary fingerprint to a
// fixture generated with the seed engine. Together with the Workers=1 vs
// Workers=8 determinism test this guarantees that engine rewrites (heap
// layout, timer cancellation, goroutine pooling) change only wall-clock
// time, never simulation output: the same seed must produce byte-identical
// figures at any worker count.
func TestGoldenFigureFingerprints(t *testing.T) {
	for _, fr := range figureRunners {
		fr := fr
		t.Run(fr.name, func(t *testing.T) {
			t.Parallel()
			checkGolden(t, fr.name, func(t *testing.T, workers int) string {
				fig, err := fr.run(detOpts(1, workers))
				if err != nil {
					t.Fatalf("%s Workers=%d: %v", fr.name, workers, err)
				}
				return fingerprint(fig)
			})
		})
	}
}

// faultsGoldenOpts is the fault sweep cell pinned by faults.fingerprint:
// the naive and retrying clients against a fault-free and a 5% injector,
// driven by the shared burst clock through retry procs.
func faultsGoldenOpts(workers int) FaultsOptions {
	return FaultsOptions{
		Provider:    "aws",
		Invocations: 400,
		Shards:      2,
		Workers:     workers,
		Seed:        1,
		IAT:         20 * time.Millisecond,
		Rates:       []float64{0, 0.05},
	}
}

// TestGoldenFaultsFingerprint pins the fault sweep's JSON output to a
// committed fixture at Workers=1 and Workers=8, so a change to how the
// sweep's arrivals are scheduled cannot move a retry, a drop, or a latency
// quantile unnoticed.
func TestGoldenFaultsFingerprint(t *testing.T) {
	checkGolden(t, "faults", func(t *testing.T, workers int) string {
		res, err := RunFaults(faultsGoldenOpts(workers))
		if err != nil {
			t.Fatalf("faults Workers=%d: %v", workers, err)
		}
		return jsonGolden(t, res)
	})
}

// jsonGolden renders v as one JSON document per line.
func jsonGolden(t *testing.T, v any) string {
	t.Helper()
	var b strings.Builder
	if err := json.NewEncoder(&b).Encode(v); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// goldenReports are the report cells pinned beside the figures: every number
// a user can see in table1, breakdown, scale, trace, tenants and cost. The
// fixtures were generated from the goroutine-proc execution form, so they
// also hold the callback fast path to the proc pipeline's schedule: a
// divergence means the callback state machine drifted — fix the schedule,
// never the fixture. Regenerating them with -update-golden writes
// whichever form callbackEligible picks, so only a deliberate statistical
// change may do it.
var goldenReports = []struct {
	name   string
	render func(t *testing.T, workers int) string
}{
	{"table1", func(t *testing.T, workers int) string {
		res, err := Table1(detOpts(1, workers))
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, row := range res.Rows {
			for _, prov := range AllProviders {
				c := row.Cells[prov]
				fmt.Fprintf(&b, "%s/%s mr=%.6f tr=%.6f na=%v\n", row.Factor, prov, c.MR, c.TR, c.NA)
			}
		}
		for _, prov := range AllProviders {
			fmt.Fprintf(&b, "base %s=%d\n", prov, int64(res.BaseMedians[prov]))
		}
		return b.String()
	}},
	{"breakdown", func(t *testing.T, workers int) string {
		// Every per-component mean and the cold-phase split, so the
		// callback path must fill Response.Breakdown as the proc path does.
		res, err := BreakdownStudy(detOpts(1, workers))
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		WriteBreakdownReport(&b, res)
		return b.String()
	}},
	{"scale", func(t *testing.T, workers int) string {
		// The series where the callback form is the hot path; sketch mode
		// covers the Recorder seam.
		res, err := RunScale(ScaleOptions{
			Provider:    "aws",
			Invocations: 6000,
			Shards:      4,
			Workers:     workers,
			Seed:        1,
			IAT:         5 * time.Millisecond,
			Burst:       3,
		})
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		WriteScaleReport(&b, res)
		if err := WriteScaleCDF(&b, res); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}},
	{"trace", func(t *testing.T, workers int) string {
		// A tracer keeps requests on the callback fast path, so every
		// retained span trace is pinned field for field beside the report.
		res, err := RunTrace(TraceOptions{
			Provider:    "aws",
			Invocations: 400,
			Shards:      4,
			Workers:     workers,
			Seed:        1,
			IAT:         50 * time.Millisecond,
			Burst:       4,
			ExecTime:    5 * time.Millisecond,
			Trace:       trace.Config{SampleRate: 1, SlowestK: 8},
		})
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		WriteTraceReport(&b, res)
		return b.String() + jsonGolden(t, res.Traces)
	}},
	{"tenants", func(t *testing.T, workers int) string {
		res, err := RunTenants(TenantsOptions{
			Provider: "aws",
			Tenants:  200,
			Duration: 2 * time.Minute,
			Workers:  workers,
			Seed:     1,
			Top:      3,
		})
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		WriteTenantsReport(&b, res)
		if err := WriteTenantsCSV(&b, res); err != nil {
			t.Fatal(err)
		}
		return b.String() + jsonGolden(t, res)
	}},
	{"cost", func(t *testing.T, workers int) string {
		res, err := RunCost(CostOptions{
			Provider: "aws",
			Tenants:  200,
			Duration: 2 * time.Minute,
			Workers:  workers,
			Seed:     1,
		})
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		WriteCostReport(&b, res)
		if err := WriteCostCSV(&b, res); err != nil {
			t.Fatal(err)
		}
		return b.String() + jsonGolden(t, res)
	}},
}

// TestGoldenReports pins each report cell to its fixture at Workers=1 and
// Workers=8.
func TestGoldenReports(t *testing.T) {
	for _, gr := range goldenReports {
		gr := gr
		t.Run(gr.name, func(t *testing.T) {
			t.Parallel()
			checkGolden(t, gr.name, gr.render)
		})
	}
}
