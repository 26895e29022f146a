package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// benchmarkFile is the schema of BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var f benchmarkFile
	if err := dec.Decode(&f); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return f
}

// TestBenchmarkFileMatchesCode keeps BENCHMARK.json and the metrics the
// benchmark prints in step, within the naming limits.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	f := loadBenchmarkFile(t)
	if len(f.EndToEnd) < 1 || len(f.EndToEnd) > 16 || len(f.PerLayer) < 1 || len(f.PerLayer) > 128 {
		t.Fatalf("metric counts out of range: %d end-to-end, %d per-layer", len(f.EndToEnd), len(f.PerLayer))
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("run_seconds %d out of range", f.RunSeconds)
	}
	ws := workloadsAt(1)
	if len(f.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(f.Workloads), len(ws))
	}
	for i, w := range ws {
		if f.Workloads[i].Name != w.name || f.Workloads[i].Why != w.why {
			t.Errorf("workload %d: file %+v, code %q: %q", i, f.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
	perLayerFile := make([]metricSpec, len(perLayer))
	for i, m := range perLayer {
		m.Bound = 0
		perLayerFile[i] = m
	}
	if !equalSpecs(f.EndToEnd, endToEnd) || !equalSpecs(f.PerLayer, perLayerFile) {
		t.Fatal("BENCHMARK.json metrics differ from endToEnd/perLayer")
	}

	seen := map[string]bool{}
	for _, w := range ws {
		seen[w.name] = true
	}
	var setupBound, maxBound float64
	for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
			t.Errorf("bad name or unit: %+v", m)
		}
		if seen[m.Name] {
			t.Errorf("name %q used twice", m.Name)
		}
		seen[m.Name] = true
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("%s: better must be higher or lower", m.Name)
		}
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v out of (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
		if m.Name == "setup_s" {
			setupBound = m.Bound
			if m.Unit != "s" || m.Better != "lower" {
				t.Errorf("setup_s must be in s, lower better: %+v", m)
			}
		}
	}
	if setupBound == 0 || setupBound < maxBound {
		t.Errorf("setup_s bound %v must be the largest (%v)", setupBound, maxBound)
	}
}

func equalSpecs(a, b []metricSpec) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestPrintedMetrics runs every workload at 1/200 size in both modes and
// checks the output: each metric of the mode printed exactly once with
// its unit, and a last line holding exactly the result keys.
func TestPrintedMetrics(t *testing.T) {
	for _, traced := range []bool{false, true} {
		specs := endToEnd
		if traced {
			specs = perLayer
		}
		for _, w := range workloadsAt(200) {
			var stdout, stderr bytes.Buffer
			code := runOne(w, runConfig{seed: 3, workers: 2, traced: traced}, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("%s traced=%v: exit %d: %s", w.name, traced, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			counts := map[string]int{}
			for _, l := range lines[:len(lines)-1] {
				fields := strings.Fields(l)
				if len(fields) == 4 && fields[0] == w.name {
					counts[fields[1]+" "+fields[3]]++
				}
			}
			var res map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: last line is not JSON: %v", w.name, err)
			}
			if len(res) != 4 || res["correct"] == nil || res["attempted"] == nil || res["failed"] == nil {
				t.Fatalf("%s: result keys %v", w.name, keys(res))
			}
			var r result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
				t.Fatal(err)
			}
			if !r.Correct || r.Attempted == 0 || len(r.Metrics) != len(specs) {
				t.Fatalf("%s traced=%v: result %+v", w.name, traced, r)
			}
			for _, m := range specs {
				if n := counts[m.Name+" "+m.Unit]; n != 1 {
					t.Errorf("%s traced=%v: %s [%s] printed %d times", w.name, traced, m.Name, m.Unit, n)
				}
				if got := r.Metrics[m.Name]; got.Unit != m.Unit {
					t.Errorf("%s traced=%v: %s unit %q, want %q", w.name, traced, m.Name, got.Unit, m.Unit)
				}
			}
		}
	}
}

func keys(m map[string]json.RawMessage) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestBadArguments exits non-zero without a result line.
func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-trace", "2"},
		{"-seconds", "-1"},
		{"-workload", "scale-warm", "stray"},
	} {
		var stdout bytes.Buffer
		if code := run(args, &stdout, io.Discard); code == 0 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}
