package stress

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"
)

// fuzzExpandLimit bounds the totals FuzzLoadTraceCounts expands into a
// plan: larger accepted totals are checked without expanding them, so a
// fuzz input can never make the target allocate a large schedule.
const fuzzExpandLimit = 1 << 12

// FuzzLoadTraceCounts feeds arbitrary bytes to the trace-count parser.
// Parsing must never panic; an accepted trace has at least one count and
// a total within MaxTraceArrivals; and a small accepted trace plans
// exactly its total arrivals (or is rejected for having none).
func FuzzLoadTraceCounts(f *testing.F) {
	for _, seed := range []string{
		"5\n5\n",
		"# interval counts\n\n3\n 0 \n7\n",
		"18446744073709551615\n",
		"9223372036854775808\n9223372036854775808\n",
		"16777216\n1\n",
		"0\n0\n",
		"-1\n",
		"1e3\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		counts, err := readTraceCounts(bytes.NewReader(data), "fuzz")
		if err != nil {
			return
		}
		if len(counts) == 0 {
			t.Fatal("accepted a trace with no counts")
		}
		total, err := traceTotal(counts)
		if err != nil {
			t.Fatalf("accepted counts the plan rejects: %v", err)
		}
		if total > fuzzExpandLimit {
			return
		}
		n, err := PlannedArrivals(Options{Arrival: ArrivalTrace, TraceCounts: counts,
			TraceInterval: time.Second, Workers: 3})
		switch {
		case total == 0 && err == nil:
			t.Fatal("planned a trace with zero arrivals")
		case total > 0 && (err != nil || n != total):
			t.Fatalf("planned %d arrivals (err %v), want %d", n, err, total)
		}
	})
}

// TestTraceTotalCapped pins the overflow guard: a count past the cap and
// counts whose sum wraps past 2^64 are rejected, by the loader and by the
// plan, before any arrival is expanded.
func TestTraceTotalCapped(t *testing.T) {
	for _, counts := range [][]uint64{
		{math.MaxUint64},
		{math.MaxUint64/2 + 1, math.MaxUint64/2 + 1, 3}, // wraps to a small total
		{MaxTraceArrivals, 1},
	} {
		if _, err := PlannedArrivals(Options{Arrival: ArrivalTrace, TraceCounts: counts,
			TraceInterval: time.Second, Workers: 1}); err == nil || !strings.Contains(err.Error(), "exceeds") {
			t.Errorf("plan of %v: err = %v, want the cap error", counts, err)
		}
		var file strings.Builder
		for _, c := range counts {
			file.WriteString(strconv.FormatUint(c, 10) + "\n")
		}
		if _, err := readTraceCounts(strings.NewReader(file.String()), "t"); err == nil {
			t.Errorf("loader accepted %v", counts)
		}
	}
	// A total exactly at the cap passes the guard (not expanded here: that
	// is the cap's 128 MiB).
	if total, err := traceTotal([]uint64{MaxTraceArrivals - 1, 1}); err != nil || total != MaxTraceArrivals {
		t.Errorf("a total exactly at the cap: %d, %v", total, err)
	}
}
