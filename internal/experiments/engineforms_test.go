package experiments

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/stellar-repro/stellar/internal/cloud"
	"github.com/stellar-repro/stellar/internal/trace"
)

// engineForms are the two execution forms the differential suite compares:
// proc forces goroutines everywhere, auto takes the callback form wherever a
// request qualifies for it.
var engineForms = []cloud.EngineMode{cloud.EngineProc, cloud.EngineAuto}

// formOpts builds figure options for one (engine, workers) cell.
func formOpts(engine cloud.EngineMode, workers int) Options {
	o := detOpts(1, workers)
	o.Engine = engine
	return o
}

// TestEngineFormsEquivalent is the two-forms contract: every experiment
// pipeline must produce byte-identical output whether invocations run as
// goroutine procs or as event-callback chains, at any worker count. The
// figures compare summary fingerprints; table1, breakdown, scale and trace
// compare fully rendered reports, so every number a user can see is
// covered. Faults and workflow have no knob: their requests always run as
// procs, and their outputs are pinned by golden fixtures instead. A divergence here means the callback state machine's event
// schedule drifted from the proc pipeline's — fix the schedule, never the
// fixture.
func TestEngineFormsEquivalent(t *testing.T) {
	for _, fr := range figureRunners {
		fr := fr
		t.Run(fr.name, func(t *testing.T) {
			t.Parallel()
			for _, workers := range []int{1, 8} {
				var got [2]string
				for i, engine := range engineForms {
					fig, err := fr.run(formOpts(engine, workers))
					if err != nil {
						t.Fatalf("%s engine=%v workers=%d: %v", fr.name, engine, workers, err)
					}
					got[i] = fingerprint(fig)
				}
				if got[0] != got[1] {
					t.Errorf("%s workers=%d: proc and callback forms diverged\n--- proc ---\n%s--- callback ---\n%s",
						fr.name, workers, got[0], got[1])
				}
			}
		})
	}

	t.Run("table1", func(t *testing.T) {
		t.Parallel()
		render := func(res *Table1Result) string {
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
		}
		for _, workers := range []int{1, 8} {
			var got [2]string
			for i, engine := range engineForms {
				res, err := Table1(formOpts(engine, workers))
				if err != nil {
					t.Fatalf("table1 engine=%v workers=%d: %v", engine, workers, err)
				}
				got[i] = render(res)
			}
			if got[0] != got[1] {
				t.Errorf("table1 workers=%d: proc and callback forms diverged\n--- proc ---\n%s--- callback ---\n%s",
					workers, got[0], got[1])
			}
		}
	})

	t.Run("breakdown", func(t *testing.T) {
		t.Parallel()
		// The rendered report includes every per-component mean and the
		// cold-phase split, so it also proves the callback path fills
		// Response.Breakdown identically to the proc path.
		for _, workers := range []int{1, 8} {
			var got [2]string
			for i, engine := range engineForms {
				res, err := BreakdownStudy(formOpts(engine, workers))
				if err != nil {
					t.Fatalf("breakdown engine=%v workers=%d: %v", engine, workers, err)
				}
				var b strings.Builder
				WriteBreakdownReport(&b, res)
				got[i] = b.String()
			}
			if got[0] != got[1] {
				t.Errorf("breakdown workers=%d: proc and callback forms diverged", workers)
			}
		}
	})

	t.Run("scale", func(t *testing.T) {
		t.Parallel()
		// The scale series is where the callback form actually is the hot
		// path (arrival loop included), so this cell exercises the most
		// callback code of the suite. Sketch mode covers the Recorder seam.
		for _, workers := range []int{1, 8} {
			var got [2]string
			for i, engine := range engineForms {
				res, err := RunScale(ScaleOptions{
					Provider:    "aws",
					Invocations: 6000,
					Shards:      4,
					Workers:     workers,
					Seed:        1,
					IAT:         5 * time.Millisecond,
					Burst:       3,
					Engine:      engine,
				})
				if err != nil {
					t.Fatalf("scale engine=%v workers=%d: %v", engine, workers, err)
				}
				var b strings.Builder
				WriteScaleReport(&b, res)
				if err := WriteScaleCDF(&b, res); err != nil {
					t.Fatal(err)
				}
				got[i] = b.String()
			}
			if got[0] != got[1] {
				t.Errorf("scale workers=%d: proc and callback forms diverged\n--- proc ---\n%s--- callback ---\n%s",
					workers, got[0], got[1])
			}
		}
	})

	t.Run("trace", func(t *testing.T) {
		t.Parallel()
		// A tracer keeps requests on the callback fast path, so this cell
		// proves the fast path emits the proc form's spans: besides the
		// rendered report (aggregates and attribution), every retained
		// span trace must match field for field.
		for _, workers := range []int{1, 8} {
			var got, spans [2]string
			for i, engine := range engineForms {
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
					Engine:      engine,
				})
				if err != nil {
					t.Fatalf("trace engine=%v workers=%d: %v", engine, workers, err)
				}
				var b strings.Builder
				WriteTraceReport(&b, res)
				got[i] = b.String()
				js, err := json.Marshal(res.Traces)
				if err != nil {
					t.Fatal(err)
				}
				spans[i] = string(js)
			}
			if got[0] != got[1] {
				t.Errorf("trace workers=%d: proc and callback forms diverged\n--- proc ---\n%s--- callback ---\n%s",
					workers, got[0], got[1])
			}
			if spans[0] != spans[1] {
				t.Errorf("trace workers=%d: proc and callback forms retained different span traces", workers)
			}
		}
	})
}
