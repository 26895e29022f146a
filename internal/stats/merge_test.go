package stats

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

// mergeReference is Merge's specification: concatenate, then sort.
func mergeReference(a, b []time.Duration) []time.Duration {
	out := append(slices.Clone(a), b...)
	slices.Sort(out)
	return out
}

// sampleWithCap builds a sample holding vs (in the given order) whose
// backing array has room for spare more observations.
func sampleWithCap(vs []time.Duration, spare int) *Sample {
	s := NewSample(len(vs) + spare)
	s.AddAll(vs)
	return s
}

// checkMerge merges b into a sample holding a with the given spare capacity
// and compares the result with mergeReference, including that the merged
// sample is already marked sorted so Values does not sort again.
func checkMerge(t *testing.T, a, b []time.Duration, spare int, sortOther bool) {
	t.Helper()
	want := mergeReference(a, b)
	s := sampleWithCap(a, spare)
	o := FromDurations(b)
	if sortOther {
		o.Sort()
	}
	s.Merge(o)
	if !s.sorted {
		t.Fatalf("merge of %v and %v left the receiver unsorted", a, b)
	}
	if got := s.Values(); !slices.Equal(got, want) {
		t.Fatalf("merge of %v (spare %d) and %v = %v, want %v", a, spare, b, got, want)
	}
	if got := o.Values(); !slices.Equal(got, mergeReference(nil, b)) {
		t.Fatalf("merge changed other's observations: %v, want %v sorted", got, b)
	}
}

func TestMergeCases(t *testing.T) {
	cases := []struct {
		name string
		a, b []time.Duration
	}{
		{"both empty", nil, nil},
		{"empty receiver", nil, []time.Duration{ms(3), ms(1), ms(2)}},
		{"empty other", []time.Duration{ms(3), ms(1), ms(2)}, nil},
		{"duplicates", []time.Duration{ms(2), ms(2), ms(1)}, []time.Duration{ms(2), ms(1), ms(2), ms(2)}},
		{"negative values", []time.Duration{-ms(5), ms(0), ms(7)}, []time.Duration{ms(3), -ms(9), -ms(5)}},
		{"unsorted other", []time.Duration{ms(1), ms(4), ms(9)}, []time.Duration{ms(8), ms(0), ms(5), ms(2)}},
		{"other entirely below", []time.Duration{ms(10), ms(11)}, []time.Duration{ms(2), ms(1)}},
		{"other entirely above", []time.Duration{ms(1), ms(2)}, []time.Duration{ms(12), ms(10)}},
		{"interleaved", []time.Duration{ms(1), ms(3), ms(5), ms(7)}, []time.Duration{ms(2), ms(4), ms(6), ms(8)}},
	}
	for _, tc := range cases {
		for _, spare := range []int{0, len(tc.b) - 1, len(tc.b), len(tc.b) + 5} {
			if spare < 0 {
				continue
			}
			for _, sortOther := range []bool{false, true} {
				t.Run(tc.name, func(t *testing.T) { checkMerge(t, tc.a, tc.b, spare, sortOther) })
			}
		}
	}
}

// Merging a sample into itself doubles every observation; the in-place
// backward merge must not overwrite a value it has yet to read.
func TestMergeSelf(t *testing.T) {
	vs := []time.Duration{ms(4), ms(1), ms(3), ms(1)}
	for _, spare := range []int{0, len(vs)} {
		s := sampleWithCap(vs, spare)
		s.Merge(s)
		if got, want := s.Values(), mergeReference(vs, vs); !slices.Equal(got, want) {
			t.Fatalf("self-merge (spare %d) = %v, want %v", spare, got, want)
		}
	}
}

// A sample that is unsorted when Merge is called (observations added after
// its last sort) is sorted before the runs are merged.
func TestMergeResortsDirtyReceiver(t *testing.T) {
	s := sampleWithCap([]time.Duration{ms(5), ms(1)}, 8)
	s.Sort()
	s.Add(ms(0))
	s.Merge(FromDurations([]time.Duration{ms(3)}))
	if got, want := s.Values(), []time.Duration{ms(0), ms(1), ms(3), ms(5)}; !slices.Equal(got, want) {
		t.Fatalf("merge into dirty receiver = %v, want %v", got, want)
	}
}

// Property: for any receiver, other and spare capacity, Merge equals
// concatenate-then-sort.
func TestQuickMergeMatchesSort(t *testing.T) {
	f := func(a, b []int16, spare uint8, sortOther bool) bool {
		toDur := func(xs []int16) []time.Duration {
			out := make([]time.Duration, len(xs))
			for i, x := range xs {
				out[i] = time.Duration(x) * time.Microsecond
			}
			return out
		}
		da, db := toDur(a), toDur(b)
		s := sampleWithCap(da, int(spare)%(len(db)+2))
		o := FromDurations(db)
		if sortOther {
			o.Sort()
		}
		s.Merge(o)
		return s.sorted && slices.Equal(s.Values(), mergeReference(da, db))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// Merging sorted shards into a pre-sized accumulator, the way the sharded
// drivers reduce, allocates nothing.
func TestMergePreSizedAllocFree(t *testing.T) {
	shards, acc := sortedShards(4, 1000)
	avg := testing.AllocsPerRun(20, func() {
		acc.values = acc.values[:0]
		for _, sh := range shards {
			acc.Merge(sh)
		}
	})
	if avg != 0 {
		t.Fatalf("merge into a pre-sized accumulator allocates %.1f times, want 0", avg)
	}
}
