package experiments

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"github.com/stellar-repro/stellar/internal/faults"
)

func faultsOpts() FaultsOptions {
	return FaultsOptions{
		Provider:    "aws",
		Invocations: 200,
		Shards:      2,
		Seed:        3,
		IAT:         20 * time.Millisecond,
		Rates:       []float64{0, 0.2},
		Policies: []faults.Policy{
			{},
			{Timeout: time.Second, MaxRetries: 2, BackoffBase: 50 * time.Millisecond},
		},
	}
}

func TestRunFaultsGridShape(t *testing.T) {
	res, err := RunFaults(faultsOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 4 {
		t.Fatalf("2 rates x 2 policies must give 4 cells, got %d", len(res.Cells))
	}
	// Rate-major order with the policy axis innermost.
	wantRates := []float64{0, 0, 0.2, 0.2}
	wantPolicies := []string{"none", "r2/t1s/b50ms", "none", "r2/t1s/b50ms"}
	for i, cell := range res.Cells {
		if cell.Rate != wantRates[i] || cell.Policy != wantPolicies[i] {
			t.Errorf("cell %d = (%g, %s), want (%g, %s)",
				i, cell.Rate, cell.Policy, wantRates[i], wantPolicies[i])
		}
		if cell.VirtualTime <= 0 {
			t.Errorf("cell %d: non-positive virtual time %v", i, cell.VirtualTime)
		}
	}
	if res.Provider != "aws" || res.Invocations != 200 || res.Shards != 2 || res.Seed != 3 {
		t.Fatalf("result header %+v does not echo the options", res)
	}
}

func TestFaultsOptionsValidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*FaultsOptions)
	}{
		{"missing provider", func(o *FaultsOptions) { o.Provider = "" }},
		{"zero invocations", func(o *FaultsOptions) { o.Invocations = 0 }},
		{"more shards than invocations", func(o *FaultsOptions) { o.Invocations = 1; o.Shards = 2 }},
		{"negative rate", func(o *FaultsOptions) { o.Rates = []float64{-0.5} }},
		{"rate above one", func(o *FaultsOptions) { o.Rates = []float64{1.5} }},
		{"bad policy", func(o *FaultsOptions) { o.Policies = []faults.Policy{{MaxRetries: -1}} }},
		{"bad modes", func(o *FaultsOptions) { o.Modes = faults.Config{StorageTimeoutProb: 0.5} }},
		{"unknown provider", func(o *FaultsOptions) { o.Provider = "nonesuch" }},
	}
	for _, tc := range cases {
		opts := faultsOpts()
		tc.mutate(&opts)
		if _, err := RunFaults(opts); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestFaultsOptionsDefaults(t *testing.T) {
	o := FaultsOptions{Provider: "aws", Invocations: 100}.normalized()
	if o.Shards != 4 || o.IAT != 100*time.Millisecond || o.Burst != 1 {
		t.Fatalf("defaults: %+v", o)
	}
	if len(o.Rates) == 0 || len(o.Policies) != 2 {
		t.Fatalf("default axes: rates=%v policies=%d", o.Rates, len(o.Policies))
	}
	if o.Modes == (faults.Config{}) {
		t.Fatal("default injector template is empty")
	}
}

func TestPolicyLabel(t *testing.T) {
	cases := []struct {
		p    faults.Policy
		want string
	}{
		{faults.Policy{}, "none"},
		{faults.Policy{MaxRetries: 3, Timeout: 2 * time.Second,
			BackoffBase: 100 * time.Millisecond, BackoffCap: time.Second,
			Jitter: true, HedgeAfter: 500 * time.Millisecond},
			"r3/t2s/b100ms..1s/jitter/h500ms"},
		{faults.Policy{Timeout: time.Second}, "t1s"},
		{faults.Policy{MaxRetries: 1, BackoffBase: 10 * time.Millisecond}, "r1/b10ms"},
	}
	for _, tc := range cases {
		if got := PolicyLabel(tc.p); got != tc.want {
			t.Errorf("PolicyLabel(%+v) = %q, want %q", tc.p, got, tc.want)
		}
	}
}

func TestFaultsWriters(t *testing.T) {
	res, err := RunFaults(faultsOpts())
	if err != nil {
		t.Fatal(err)
	}

	var table strings.Builder
	WriteFaultsReport(&table, res)
	for _, want := range []string{"fault sweep", "rate", "none", "r2/t1s/b50ms"} {
		if !strings.Contains(table.String(), want) {
			t.Errorf("report missing %q:\n%s", want, table.String())
		}
	}

	var js strings.Builder
	if err := json.NewEncoder(&js).Encode(res); err != nil {
		t.Fatal(err)
	}
	var decoded FaultsResult
	if err := json.Unmarshal([]byte(js.String()), &decoded); err != nil {
		t.Fatalf("JSON output does not round-trip: %v", err)
	}
	if len(decoded.Cells) != len(res.Cells) || decoded.Seed != res.Seed {
		t.Fatalf("decoded %d cells seed %d, want %d cells seed %d",
			len(decoded.Cells), decoded.Seed, len(res.Cells), res.Seed)
	}

	var csv strings.Builder
	if err := WriteFaultsCSV(&csv, res); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != 1+len(res.Cells) {
		t.Fatalf("CSV has %d lines, want header + %d cells", len(lines), len(res.Cells))
	}
	if !strings.HasPrefix(lines[0], "rate,policy,issued,succeeded") {
		t.Fatalf("CSV header %q", lines[0])
	}
	cols := len(strings.Split(lines[0], ","))
	for i, line := range lines[1:] {
		if got := len(strings.Split(line, ",")); got != cols {
			t.Errorf("row %d has %d columns, want %d: %q", i, got, cols, line)
		}
	}
}
