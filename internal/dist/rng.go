package dist

import (
	"math/rand"
	randv2 "math/rand/v2"
)

// Streams derives independent deterministic random streams from a root seed.
// Each named component of the simulation gets its own *rand.Rand so that
// adding a component (or reordering sampling) does not perturb the draws seen
// by the others.
//
// Every stream is a 128-bit PCG-DXSM generator (math/rand/v2.PCG, O'Neill
// 2014) behind a math/rand Source64 adapter. Its 16-byte state makes a stream
// cost two small allocations to build, against the 4.9 KB lagged-Fibonacci
// table math/rand's own source seeds, which matters because the tenant
// replays build two streams per tenant per shard.
type Streams struct {
	seed int64
}

// NewStreams returns a stream factory rooted at seed.
func NewStreams(seed int64) *Streams { return &Streams{seed: seed} }

// Stream returns a deterministic RNG for the given component name. Calling
// Stream twice with the same name yields identically seeded, independent
// generators.
func (s *Streams) Stream(name string) *rand.Rand {
	src := new(pcgSource)
	src.Seed(s.seed ^ int64(fnv64a(name)))
	return rand.New(src)
}

// Seed returns the root seed.
func (s *Streams) Seed() int64 { return s.seed }

// fnv64a is the FNV-1a hash of name, computed inline so that Stream does not
// allocate a hash.Hash64 or a []byte copy of the name.
func fnv64a(name string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime
	}
	return h
}

// pcgSource adapts math/rand/v2's PCG to math/rand's Source64, so streams
// keep handing out the *rand.Rand every sampler takes.
type pcgSource struct {
	pcg randv2.PCG
}

var _ rand.Source64 = (*pcgSource)(nil)

// Seed sets both PCG state words from seed: they are the first two outputs
// of a SplitMix64 sequence started at seed, so nearby seeds (root seeds that
// differ in one bit, or name hashes) give unrelated generators.
func (s *pcgSource) Seed(seed int64) {
	x := uint64(seed)
	s.pcg.Seed(splitmix64(x), splitmix64(x+golden))
}

// Uint64 returns the next 64 random bits.
func (s *pcgSource) Uint64() uint64 { return s.pcg.Uint64() }

// Int63 returns the next 63 random bits as a non-negative int64.
func (s *pcgSource) Int63() int64 { return int64(s.pcg.Uint64() &^ (1 << 63)) }
