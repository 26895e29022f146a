package dist

// Splittable shard streams: a root seed plus a shard index yields an
// independent deterministic stream family, so a parallel experiment harness
// can hand every shard (replica, series, suite entry) its own RNG universe
// and produce byte-identical results regardless of worker count or shard
// completion order.
//
// The derivation is SplitMix64 (Steele, Lea, Flood: "Fast Splittable
// Pseudorandom Number Generators", OOPSLA'14) — the same finalizer Java's
// SplittableRandom and xoshiro seeding use. Its output function is a
// bijective avalanche mix, so distinct (seed, shard) pairs map to distinct
// stream seeds and neighboring shard indices land in unrelated regions of
// the seed space.

// golden is SplitMix64's state increment, 2^64 divided by the golden ratio.
const golden = 0x9e3779b97f4a7c15

// splitmix64 advances the SplitMix64 state x by the golden-gamma increment
// and returns the mixed output.
func splitmix64(x uint64) uint64 {
	x += golden
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// ShardSeed derives the root seed for shard index shard of seed. The two
// mixing rounds keep (seed, shard) pairs that differ in either argument
// from colliding in practice, and ShardSeed(s, i) never equals s itself for
// small i, so shard streams are also independent from the root's own
// component streams.
func ShardSeed(seed int64, shard int) int64 {
	h := splitmix64(uint64(seed))
	h = splitmix64(h + uint64(int64(shard)))
	return int64(h)
}

// Shard returns a stream factory for the i-th shard of the root seed,
// independent of every other shard index and of the root factory itself.
func (s *Streams) Shard(i int) *Streams {
	return NewStreams(ShardSeed(s.seed, i))
}
