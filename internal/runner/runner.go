// Package runner executes independent simulation shards across a bounded
// worker pool with deterministic seeding and deterministic result ordering.
//
// The paper's methodology is replication-heavy (3000 samples per
// configuration, >100 replicas for the cold studies), but every replica and
// series is independent: each runs on its own isolated DES engine. The pool
// shards that work across goroutines. Determinism rests on two invariants:
//
//   - Seeding is positional: shard i always draws from
//     dist.ShardSeed(rootSeed, i), no matter which worker runs it or when.
//   - Collection is positional: results land in a slice at their shard
//     index, so the output order never depends on completion order.
//
// Together they make Workers=1 and Workers=N produce byte-identical
// results for the same root seed, which the determinism suite in
// internal/experiments asserts for every figure of the paper.
package runner

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/stellar-repro/stellar/internal/dist"
)

// Shard identifies one unit of independent work.
type Shard struct {
	// Index is the unit's position in the work list (0-based).
	Index int
	// Total is the size of the work list.
	Total int
	// Seed is the unit's private RNG root, dist.ShardSeed(pool seed, Index).
	// Everything random inside the shard must derive from it.
	Seed int64
	// Streams is a stream factory rooted at Seed, for shards that need
	// multiple named components.
	Streams *dist.Streams
}

// Pool describes how to run a batch of shards.
type Pool struct {
	// Workers bounds the number of concurrently running shards. Zero or
	// negative means GOMAXPROCS(0).
	Workers int
	// Seed is the root seed every shard seed is split from.
	Seed int64
}

// size returns the effective worker count for n shards.
func (p Pool) size(n int) int {
	w := p.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Map runs fn once per shard, at most Workers at a time, and returns the
// results in shard-index order. The first error (by shard index, not by
// completion time, so the reported error is deterministic too) is returned
// and unstarted shards are abandoned; already-running shards finish first.
func Map[T any](p Pool, n int, fn func(Shard) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	results := make([]T, n)
	err := run(p, n, fn, func(i int, out T) error {
		results[i] = out
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// MapReduce runs fn once per shard and folds the per-shard results into an
// accumulator with merge, in shard-index order. It exists for mergeable
// summaries (quantile sketches, counters): a scale run's aggregation cost
// is O(shards × summary size) — never O(total observations) — because no
// shard's raw stream is ever concatenated. The
// index-ordered fold keeps the result deterministic at any Workers setting
// even for merges that are not commutative; for exact merges like the
// sketch's it is simply the cheapest deterministic order.
//
// The fold streams: shard i is merged, on the calling goroutine, as soon
// as shards 0..i have all completed, while later shards still run, and its
// result is dropped once merged, so a finished shard's summary does not
// outlive its merge. Errors follow Map's rule: the error at the lowest
// shard index wins, whether fn returned it or merge did (merge errors
// carry the shard index); no shard is started once a failure is seen, and
// merge is never called past the failing index. On error the accumulator
// may hold a partial fold.
func MapReduce[S, A any](p Pool, n int, acc A, fn func(Shard) (S, error), merge func(acc A, shard S) (A, error)) (A, error) {
	err := run(p, n, fn, func(i int, out S) error {
		var err error
		if acc, err = merge(acc, out); err != nil {
			return fmt.Errorf("runner: merge shard %d: %w", i, err)
		}
		return nil
	})
	return acc, err
}

// run is the pool behind Map and MapReduce. Workers claim shard indices in
// increasing order, so when shard i has started every shard before it has
// too. The calling goroutine calls fold(i, result) in index order, each as
// soon as shards 0..i have all completed without error, and then drops its
// own reference to the result. The first failure, by shard index, of fn or
// fold stops the claiming of further shards; run waits for the running ones
// and returns that failure. Every shard below the failing index was started
// and folded, so the returned error is the same at any worker count.
func run[T any](p Pool, n int, fn func(Shard) (T, error), fold func(i int, out T) error) error {
	if n <= 0 {
		return nil
	}
	outs := make([]T, n)
	errs := make([]error, n)
	var next atomic.Int64 // next unclaimed shard index
	var stop atomic.Bool
	// One slot per shard: a worker never waits for the reducer to fold.
	completed := make(chan int, n)

	var wg sync.WaitGroup
	for w := 0; w < p.size(n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				seed := dist.ShardSeed(p.Seed, i)
				outs[i], errs[i] = fn(Shard{
					Index:   i,
					Total:   n,
					Seed:    seed,
					Streams: dist.NewStreams(seed),
				})
				if errs[i] != nil {
					stop.Store(true)
				}
				completed <- i
			}
		}()
	}
	go func() {
		wg.Wait()
		close(completed)
	}()

	done := make([]bool, n)
	failAt, folded := n, 0 // lowest failing index; shards 0..folded-1 are folded
	var failure error
	for i := range completed {
		done[i] = true
		if errs[i] != nil && i < failAt {
			failAt, failure = i, errs[i]
		}
		for ; folded < failAt && done[folded]; folded++ {
			if err := fold(folded, outs[folded]); err != nil {
				failAt, failure = folded, err
				stop.Store(true)
			}
			var zero T
			outs[folded] = zero
		}
	}
	return failure
}
