package experiments

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// updateGolden rewrites the committed fingerprint fixtures from the current
// engine. Run `go test ./internal/experiments -run TestGoldenFigureFingerprints
// -update-golden` only when an intentional statistical change is made; engine
// refactors must leave the fixtures untouched.
var updateGolden = flag.Bool("update-golden", false, "rewrite golden figure fingerprints")

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
			path := filepath.Join("testdata", "golden", fr.name+".fingerprint")
			serial, err := fr.run(detOpts(1, 1))
			if err != nil {
				t.Fatalf("%s Workers=1: %v", fr.name, err)
			}
			fp := fingerprint(serial)
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(fp), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s", path)
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing fixture (run with -update-golden to regenerate): %v", err)
			}
			if fp != string(want) {
				t.Errorf("%s: Workers=1 output diverged from the seed-engine fixture\n--- got ---\n%s--- want ---\n%s",
					fr.name, fp, want)
			}
			parallel, err := fr.run(detOpts(1, 8))
			if err != nil {
				t.Fatalf("%s Workers=8: %v", fr.name, err)
			}
			if fp8 := fingerprint(parallel); fp8 != string(want) {
				t.Errorf("%s: Workers=8 output diverged from the seed-engine fixture\n--- got ---\n%s--- want ---\n%s",
					fr.name, fp8, want)
			}
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
	path := filepath.Join("testdata", "golden", "faults.fingerprint")
	render := func(workers int) string {
		res, err := RunFaults(faultsGoldenOpts(workers))
		if err != nil {
			t.Fatalf("faults Workers=%d: %v", workers, err)
		}
		var b strings.Builder
		if err := json.NewEncoder(&b).Encode(res); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	fp := render(1)
	if *updateGolden {
		if err := os.WriteFile(path, []byte(fp), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing fixture (run with -update-golden to regenerate): %v", err)
	}
	if fp != string(want) {
		t.Errorf("Workers=1 output diverged from the fixture\n--- got ---\n%s--- want ---\n%s", fp, want)
	}
	if fp8 := render(8); fp8 != string(want) {
		t.Errorf("Workers=8 output diverged from the fixture\n--- got ---\n%s--- want ---\n%s", fp8, want)
	}
}
