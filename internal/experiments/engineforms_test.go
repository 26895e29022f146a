package experiments

import (
	"fmt"
	"testing"

	"github.com/stellar-repro/stellar/internal/cloud"
	"github.com/stellar-repro/stellar/internal/core"
	"github.com/stellar-repro/stellar/internal/des"
)

// procTransport is core.SimTransport with the execution form fixed to the
// proc reference: every request runs as a spawned cloud.Invoke proc, as
// InvokeAsync does for requests its callback form cannot serve.
type procTransport struct {
	eng *des.Engine
	c   *cloud.Cloud
}

func (pt *procTransport) Execute(plan []core.PlannedRequest) ([]core.Sample, error) {
	samples := make([]core.Sample, len(plan))
	base := pt.eng.Now()
	for i := range plan {
		pr := plan[i]
		if pr.Endpoint.Provider != pt.c.Config().Name {
			return nil, fmt.Errorf("procTransport: no simulated cloud for provider %q", pr.Endpoint.Provider)
		}
		slot := &samples[i]
		pt.eng.At(base+pr.At, func() {
			start := pt.eng.Now()
			req := &cloud.Request{
				Fn:                pr.Endpoint.Function,
				ExecTime:          pr.ExecTime,
				ChainPayloadBytes: pr.PayloadBytes,
			}
			pt.eng.Spawn("cloud/invoke", func(p *des.Proc) {
				resp, err := pt.c.Invoke(p, req)
				slot.At = pr.At
				slot.Latency = pt.eng.Now() - start
				slot.Err = err
				if resp != nil {
					slot.Cold = resp.Cold
					slot.InstanceID = resp.InstanceID
					slot.QueueWait = resp.QueueWait
					slot.Breakdown = resp.Breakdown
					slot.BilledGBSeconds = resp.BilledGBSeconds
					if len(pr.Endpoint.Chain) >= 2 {
						if t, ok := resp.TransferTime(pr.Endpoint.Chain[0], pr.Endpoint.Chain[1]); ok {
							slot.TransferTime = t
						}
					}
				}
			})
		})
	}
	pt.eng.Run(0)
	return samples, nil
}

// inForms runs fn once with every request forced through the proc form and
// once with the default transport, whose InvokeAsync picks the form per
// request, and returns both outputs in that order. It swaps the package's
// transport constructor, so callers must not run in parallel with other
// tests.
func inForms(t *testing.T, fn func() string) [2]string {
	t.Helper()
	def := newTransport
	defer func() { newTransport = def }()
	newTransport = func(eng *des.Engine, c *cloud.Cloud) core.Transport {
		return &procTransport{eng: eng, c: c}
	}
	proc := fn()
	newTransport = def
	return [2]string{proc, fn()}
}

// TestEngineFormsEquivalent is the two-forms contract at the experiment
// level: every client-driven pipeline must produce byte-identical output
// whether each invocation runs as a goroutine proc through cloud.Invoke or
// takes whatever form InvokeAsync picks, at any worker count. The figures
// compare summary fingerprints; table1 and breakdown compare fully rendered
// reports. Scale, trace, faults and workflow drive the cloud without the
// client transport; their outputs are pinned by golden fixtures instead. A
// divergence here means the callback state machine's event schedule
// drifted from the proc pipeline's: fix the schedule, never the fixture.
//
// The subtests are sequential because inForms swaps package state.
func TestEngineFormsEquivalent(t *testing.T) {
	for _, fr := range figureRunners {
		t.Run(fr.name, func(t *testing.T) {
			for _, workers := range []int{1, 8} {
				got := inForms(t, func() string {
					fig, err := fr.run(detOpts(1, workers))
					if err != nil {
						t.Fatalf("%s workers=%d: %v", fr.name, workers, err)
					}
					return fingerprint(fig)
				})
				if got[0] != got[1] {
					t.Errorf("%s workers=%d: proc and callback forms diverged\n--- proc ---\n%s--- callback ---\n%s",
						fr.name, workers, got[0], got[1])
				}
			}
		})
	}

	// Of the report goldens, table1 and breakdown run through the client
	// transport; every number of their rendered reports must match.
	for _, gr := range goldenReports {
		if gr.name != "table1" && gr.name != "breakdown" {
			continue
		}
		t.Run(gr.name, func(t *testing.T) {
			for _, workers := range []int{1, 8} {
				got := inForms(t, func() string { return gr.render(t, workers) })
				if got[0] != got[1] {
					t.Errorf("%s workers=%d: proc and callback forms diverged\n--- proc ---\n%s--- callback ---\n%s",
						gr.name, workers, got[0], got[1])
				}
			}
		})
	}
}
