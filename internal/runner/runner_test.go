package runner

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/stellar-repro/stellar/internal/dist"
)

// draw simulates a shard's measurement: a few values from the shard stream.
func draw(sh Shard) ([]int64, error) {
	rng := sh.Streams.Stream("work")
	out := make([]int64, 4)
	for i := range out {
		out[i] = rng.Int63()
	}
	return out, nil
}

func TestMapDeterministicAcrossWorkerCounts(t *testing.T) {
	const n = 37
	var want [][]int64
	for _, workers := range []int{1, 2, 3, 8, 64} {
		got, err := Map(Pool{Workers: workers, Seed: 7}, n, draw)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != n {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(got), n)
		}
		if want == nil {
			want = got
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: results differ from workers=1", workers)
		}
	}
}

func TestMapSeedsArePositional(t *testing.T) {
	seeds, err := Map(Pool{Workers: 4, Seed: 3}, 16, func(sh Shard) (int64, error) {
		if sh.Total != 16 {
			t.Errorf("shard %d: Total = %d", sh.Index, sh.Total)
		}
		if sh.Streams.Seed() != sh.Seed {
			t.Errorf("shard %d: Streams seed %d != shard seed %d", sh.Index, sh.Streams.Seed(), sh.Seed)
		}
		return sh.Seed, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	unique := map[int64]bool{}
	for i, s := range seeds {
		if s != dist.ShardSeed(3, i) {
			t.Errorf("shard %d seed %d, want ShardSeed(3,%d)=%d", i, s, i, dist.ShardSeed(3, i))
		}
		unique[s] = true
	}
	if len(unique) != len(seeds) {
		t.Errorf("only %d unique seeds for %d shards", len(unique), len(seeds))
	}
}

func TestMapCollectsInIndexOrder(t *testing.T) {
	// Shards finish in intentionally scrambled order; results must not.
	got, err := Map(Pool{Workers: 8, Seed: 1}, 24, func(sh Shard) (int, error) {
		time.Sleep(time.Duration(rand.New(rand.NewSource(sh.Seed)).Intn(3)) * time.Millisecond)
		return sh.Index * 10, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*10 {
			t.Fatalf("result %d = %d, want %d", i, v, i*10)
		}
	}
}

func TestMapBoundsConcurrency(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int32
	_, err := Map(Pool{Workers: workers, Seed: 1}, 50, func(sh Shard) (struct{}, error) {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		time.Sleep(200 * time.Microsecond)
		cur.Add(-1)
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Errorf("observed %d concurrent shards, want <= %d", p, workers)
	}
}

func TestMapReturnsLowestIndexedError(t *testing.T) {
	errA := errors.New("shard 5 broke")
	var ran sync.Map
	_, err := Map(Pool{Workers: 4, Seed: 1}, 12, func(sh Shard) (int, error) {
		ran.Store(sh.Index, true)
		if sh.Index == 5 || sh.Index == 9 {
			return 0, fmt.Errorf("%w (index %d)", errA, sh.Index)
		}
		return sh.Index, nil
	})
	if err == nil || !errors.Is(err, errA) {
		t.Fatalf("err = %v, want wrapped errA", err)
	}
	// The error must be the lowest-indexed one even if shard 9 failed too.
	if got := err.Error(); got != "shard 5 broke (index 5)" {
		t.Errorf("err = %q, want the index-5 failure", got)
	}
}

func TestMapStopsDispatchAfterError(t *testing.T) {
	var started atomic.Int32
	_, err := Map(Pool{Workers: 1, Seed: 1}, 100, func(sh Shard) (int, error) {
		started.Add(1)
		if sh.Index == 2 {
			return 0, errors.New("boom")
		}
		return 0, nil
	})
	if err == nil {
		t.Fatal("want error")
	}
	// With one worker the failure at index 2 must stop dispatch almost
	// immediately (a small overshoot from the in-flight handoff is fine).
	if s := started.Load(); s > 5 {
		t.Errorf("%d shards started after early failure, want <= 5", s)
	}
}

func TestMapEdgeCases(t *testing.T) {
	got, err := Map(Pool{}, 0, draw)
	if err != nil || got != nil {
		t.Errorf("n=0: got %v, %v", got, err)
	}
	// Default worker count and n < workers both work.
	res, err := Map(Pool{Workers: 16, Seed: 5}, 2, draw)
	if err != nil || len(res) != 2 {
		t.Errorf("n=2: got %d results, err %v", len(res), err)
	}
}

// TestMapReduceFoldsInIndexOrder pins the deterministic fold: shard results
// merge in index order regardless of worker count or completion order.
func TestMapReduceFoldsInIndexOrder(t *testing.T) {
	for _, workers := range []int{1, 4} {
		got, err := MapReduce(Pool{Workers: workers, Seed: 9}, 8, "acc",
			func(sh Shard) (string, error) {
				return string(rune('a' + sh.Index)), nil
			},
			func(acc, shard string) (string, error) {
				return acc + shard, nil
			})
		if err != nil {
			t.Fatal(err)
		}
		if got != "accabcdefgh" {
			t.Errorf("Workers=%d: fold = %q, want accabcdefgh", workers, got)
		}
	}
}

// TestMapReduceSurfacesErrors: a shard error stops the fold; merge errors
// carry the shard index.
func TestMapReduceSurfacesErrors(t *testing.T) {
	_, err := MapReduce(Pool{Workers: 2, Seed: 1}, 4, 0,
		func(sh Shard) (int, error) {
			if sh.Index == 1 {
				return 0, errors.New("shard boom")
			}
			return sh.Index, nil
		},
		func(acc, shard int) (int, error) { return acc + shard, nil })
	if err == nil || !strings.Contains(err.Error(), "shard boom") {
		t.Fatalf("shard error not surfaced: %v", err)
	}
	_, err = MapReduce(Pool{Workers: 2, Seed: 1}, 4, 0,
		func(sh Shard) (int, error) { return sh.Index, nil },
		func(acc, shard int) (int, error) {
			if shard == 2 {
				return 0, errors.New("merge boom")
			}
			return acc + shard, nil
		})
	if err == nil || !strings.Contains(err.Error(), "merge shard 2") {
		t.Fatalf("merge error not indexed: %v", err)
	}
}

// TestMapReduceStreamingLowestIndexError pins the streaming fold's error
// rule: whichever of fn and merge fails at the lowest shard index is
// reported, identically at every worker count, however shards interleave.
func TestMapReduceStreamingLowestIndexError(t *testing.T) {
	cases := []struct {
		name            string
		fnFail, mrgFail map[int]bool
		want            string
	}{
		{"fn errors", map[int]bool{6: true, 3: true}, nil, "fn 3"},
		{"fn before merge", map[int]bool{1: true}, map[int]bool{4: true}, "fn 1"},
		{"merge before fn", map[int]bool{5: true}, map[int]bool{2: true}, "runner: merge shard 2: merge 2"},
		{"merge errors", nil, map[int]bool{7: true, 3: true}, "runner: merge shard 3: merge 3"},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 2, 3, 8} {
			_, err := MapReduce(Pool{Workers: workers, Seed: 4}, 10, 0,
				func(sh Shard) (int, error) {
					// Scramble completion order.
					time.Sleep(time.Duration(rand.New(rand.NewSource(sh.Seed)).Intn(2000)) * time.Microsecond)
					if tc.fnFail[sh.Index] {
						return 0, fmt.Errorf("fn %d", sh.Index)
					}
					return sh.Index, nil
				},
				func(acc, i int) (int, error) {
					if tc.mrgFail[i] {
						return acc, fmt.Errorf("merge %d", i)
					}
					return acc + i, nil
				})
			if err == nil || err.Error() != tc.want {
				t.Errorf("%s, Workers=%d: err = %v, want %q", tc.name, workers, err, tc.want)
			}
		}
	}
}

// TestMapReduceIdenticalAcrossWorkers folds real shard draws with an
// order-sensitive merge: Workers=1 and Workers=8 must agree exactly.
func TestMapReduceIdenticalAcrossWorkers(t *testing.T) {
	fold := func(workers int) []int64 {
		got, err := MapReduce(Pool{Workers: workers, Seed: 11}, 29, []int64(nil), draw,
			func(acc, shard []int64) ([]int64, error) { return append(acc, shard...), nil })
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	if w1, w8 := fold(1), fold(8); !reflect.DeepEqual(w1, w8) {
		t.Fatal("Workers=8 fold differs from Workers=1")
	}
}

// TestMapReduceFoldsWhileShardsRun pins the streaming: the last shard
// blocks until shard 0 has been merged, which a fold that waits for every
// shard would never do.
func TestMapReduceFoldsWhileShardsRun(t *testing.T) {
	merged0 := make(chan struct{})
	_, err := MapReduce(Pool{Workers: 2, Seed: 1}, 3, 0,
		func(sh Shard) (int, error) {
			if sh.Index == 2 {
				select {
				case <-merged0:
				case <-time.After(10 * time.Second):
					return 0, errors.New("shard 0 was not merged while shard 2 ran")
				}
			}
			return sh.Index, nil
		},
		func(acc, i int) (int, error) {
			if i == 0 {
				close(merged0)
			}
			return acc + i, nil
		})
	if err != nil {
		t.Fatal(err)
	}
}
