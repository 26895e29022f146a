package main

import (
	"fmt"
	"reflect"
	"testing"
)

// TestReplayMatchesExperiments holds the bench-owned drivers to the public
// entry points they mirror: at 1/200 size, every workload's traced replay
// must produce the untraced run's outcome exactly (counts, sketch records,
// metered usage) at one and two workers.
func TestReplayMatchesExperiments(t *testing.T) {
	for _, w := range workloadsAt(200) {
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/workers=%d", w.name, workers), func(t *testing.T) {
				want, err := w.run(7, workers)
				if err != nil {
					t.Fatal(err)
				}
				rt := &replayTrace{workers: workers}
				got, err := w.replay(7, workers, rt)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("replay outcome differs\n got %+v\nwant %+v", got, want)
				}
				if want.Invocations == 0 {
					t.Fatal("batch issued no invocations")
				}
				if rt.main.calls[spanMerge] == 0 || len(rt.traces()) == 1 {
					t.Fatalf("replay recorded no spans: %+v", rt.main)
				}
			})
		}
	}
}

// TestOutcomeExposesWorkloadResults checks that each outcome carries what
// its public result exposes, so the digest covers it: sketch records for
// scale and cost, metered usage and suspends for cost, the exact-sample
// fingerprint and retained traces for trace.
func TestOutcomeExposesWorkloadResults(t *testing.T) {
	for _, w := range workloadsAt(200) {
		out, err := w.run(7, 1)
		if err != nil {
			t.Fatal(err)
		}
		p := out.Points[0]
		switch w.name {
		case "scale-warm":
			if p.Sketch == nil || len(p.Quantiles) != 3 {
				t.Errorf("%s: no sketch or quantiles: %+v", w.name, p)
			}
		case "tenants-keepalive":
			if len(out.Points) != 4 || p.Latency.Count == 0 || p.Expirations == 0 {
				t.Errorf("%s: want 4 keep-alive points with latency and expirations: %+v", w.name, out)
			}
		case "cost-autoscale":
			if p.Sketch == nil || p.Usage.Requests == 0 || p.Suspends == 0 {
				t.Errorf("%s: no sketch, usage or suspends: %+v", w.name, p)
			}
		case "trace-sampled":
			if p.LatencySum == 0 || p.Retained == 0 {
				t.Errorf("%s: no latency fingerprint or retained traces: %+v", w.name, p)
			}
		}
	}
}
