package stats

import (
	"testing"
	"time"
)

func loadSample(n int) *Sample {
	s := NewSample(n)
	for i := 0; i < n; i++ {
		// Deterministic skewed-ish spread; values don't matter, only that
		// they are unsorted on arrival.
		s.Add(time.Duration((i*2654435761)%1000) * time.Millisecond)
	}
	return s
}

// TestAllocFreePercentiles pins the satellite contract: once a sample is
// sorted, every subsequent percentile/summary query runs without
// allocating. slices.Sort (unlike sort.Slice) also keeps the sort itself
// closure-free, so the only cost after load is the in-place sort.
func TestAllocFreePercentiles(t *testing.T) {
	s := loadSample(10_000)
	s.Percentile(50) // first query pays the one-time sort
	query := func() {
		s.Percentile(50)
		s.Percentile(95)
		s.Percentile(99)
		s.Min()
		s.Max()
		s.TMR()
	}
	if avg := testing.AllocsPerRun(100, query); avg != 0 {
		t.Fatalf("percentile path allocates %.1f allocs per query batch after first sort, want 0", avg)
	}
}

// TestAddAllSingleGrowth pins the pre-grow in AddAll: bulk-loading into an
// empty sample must allocate the backing array once, not O(log n) times
// through append doubling.
func TestAddAllSingleGrowth(t *testing.T) {
	vs := make([]time.Duration, 100_000)
	for i := range vs {
		vs[i] = time.Duration(i)
	}
	avg := testing.AllocsPerRun(10, func() {
		s := &Sample{}
		s.AddAll(vs)
	})
	// One allocation for the grown backing array; the Sample itself is
	// stack-allocated under AllocsPerRun's closure.
	if avg > 2 {
		t.Fatalf("AddAll of 100k values allocates %.1f times, want single pre-grown backing array", avg)
	}
}

// BenchmarkPercentileAfterSort measures the steady-state percentile query —
// the per-figure cost when experiment analysis re-reads the same sample for
// median, p95, p99, and TMR.
func BenchmarkPercentileAfterSort(b *testing.B) {
	s := loadSample(100_000)
	s.Percentile(50) // pre-sort
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Percentile(99)
	}
}

// BenchmarkSampleSort measures the one-time sort cost for a large run.
func BenchmarkSampleSort(b *testing.B) {
	base := loadSample(100_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := &Sample{}
		s.AddAll(base.values)
		b.StartTimer()
		s.Percentile(99)
	}
}

// BenchmarkSummarize measures the full Summary computation on a pre-sorted
// sample (the experiment hot path after collection ends).
func BenchmarkSummarize(b *testing.B) {
	s := loadSample(100_000)
	s.Summarize() // pre-sort
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Summarize()
	}
}

// sortedShards returns k sorted shard samples of n observations each, with
// overlapping ranges as a sharded run's shards have, and an empty
// accumulator pre-sized for all of them.
func sortedShards(k, n int) ([]*Sample, *Sample) {
	shards := make([]*Sample, k)
	for i := range shards {
		s := NewSample(n)
		for j := 0; j < n; j++ {
			s.Add(time.Duration(((j+i)*2654435761)%1000) * time.Millisecond)
		}
		s.Sort()
		shards[i] = s
	}
	return shards, NewSample(k * n)
}

// BenchmarkSampleMerge measures the sharded drivers' reduction: eight
// sorted 100k shards merged, in shard order, into a pre-sized accumulator.
func BenchmarkSampleMerge(b *testing.B) {
	shards, acc := sortedShards(8, 100_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc.values = acc.values[:0]
		for _, sh := range shards {
			acc.Merge(sh)
		}
	}
}
