package cli

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestTenantsCommand(t *testing.T) {
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "tenants.json")
	csvPath := filepath.Join(dir, "tenants.csv")
	code, out, errOut := run(t, "tenants",
		"-provider", "aws", "-tenants", "30", "-duration", "4m",
		"-shards", "4", "-seed", "5", "-keepalives", "1m,10m", "-top", "2",
		"-json", jsonPath, "-csv", csvPath)
	if code != 0 {
		t.Fatalf("code=%d err=%q", code, errOut)
	}
	if !strings.Contains(out, "tenants sweep:") || !strings.Contains(out, "keepalive") {
		t.Fatalf("missing report table: %q", out)
	}
	if !strings.Contains(out, "wall: ") {
		t.Fatalf("missing wall-clock line: %q", out)
	}
	if !strings.Contains(out, "worst tenants by p99") {
		t.Fatalf("missing top-tenants section: %q", out)
	}

	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var res struct {
		Points []struct {
			Invocations uint64 `json:"invocations"`
			Pareto      bool   `json:"pareto"`
		} `json:"points"`
	}
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 || res.Points[0].Invocations == 0 {
		t.Fatalf("bad JSON points: %+v", res.Points)
	}

	csv, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(csv), "\n"); lines != 3 { // header + 2 points
		t.Fatalf("csv lines = %d, want 3:\n%s", lines, csv)
	}
}

func TestTenantsCommandBadFlags(t *testing.T) {
	if code, _, _ := run(t, "tenants", "-tenants", "0"); code == 0 {
		t.Fatal("zero tenants accepted")
	}
	if code, _, _ := run(t, "tenants", "-keepalives", "bogus"); code == 0 {
		t.Fatal("bad keepalive list accepted")
	}
	if code, _, _ := run(t, "tenants", "-provider", "nope", "-tenants", "2", "-duration", "1m"); code == 0 {
		t.Fatal("unknown provider accepted")
	}
	// Negative options are errors, never silently replaced by defaults.
	for _, bad := range [][]string{{"-shards", "-2"}, {"-workers", "-3"}, {"-iat-lo", "-1s"}, {"-top", "-1"}} {
		code, _, errOut := run(t, append([]string{"tenants", "-tenants", "10", "-duration", "1m"}, bad...)...)
		if code == 0 || !strings.Contains(errOut, "negative") {
			t.Errorf("tenants %v: exit %d, error %q; want a negative-option error", bad, code, errOut)
		}
	}
}

// TestBadAlphaRejected: an out-of-range or NaN sketch accuracy is a flag
// error, not a panic inside a shard goroutine or a failed merge.
func TestBadAlphaRejected(t *testing.T) {
	for _, cmd := range [][]string{
		{"tenants", "-tenants", "4", "-duration", "1m", "-shards", "2"},
		{"cost", "-tenants", "4", "-duration", "1m", "-shards", "2"},
		{"scale", "-n", "100", "-shards", "2"},
	} {
		for _, alpha := range []string{"-0.5", "5", "NaN"} {
			code, _, errOut := run(t, append(cmd, "-alpha", alpha)...)
			if code == 0 {
				t.Errorf("%s -alpha %s: accepted", cmd[0], alpha)
			}
			if !strings.Contains(errOut, "alpha") {
				t.Errorf("%s -alpha %s: error %q does not name alpha", cmd[0], alpha, errOut)
			}
		}
	}
}
