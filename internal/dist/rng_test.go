package dist

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// TestStreamFingerprint pins the first draws of a root stream and of a
// shard stream. Every golden fingerprint depends on these values, so a
// generator or seeding change must fail here first, loudly, and be re-pinned
// deliberately together with the goldens.
func TestStreamFingerprint(t *testing.T) {
	cases := []struct {
		name string
		rng  *rand.Rand
		want [8]uint64
	}{
		{`NewStreams(1).Stream("x")`, NewStreams(1).Stream("x"), [8]uint64{
			0x2659f3925e206d9c, 0xc4452f8554bfe258, 0x19f40c6e2a009c56, 0xcd34a84f3c3028b5,
			0xd53c4712167948e4, 0xbf12b16e9df204fe, 0x372175f275cb62ed, 0x0ed7d30db8f56473,
		}},
		{`NewStreams(1).Shard(3).Stream("x")`, NewStreams(1).Shard(3).Stream("x"), [8]uint64{
			0x16776878e5592b67, 0x2c7cfb401e78a82d, 0x21f6b3a916f98d27, 0x776255e5d969307c,
			0xb20d2d88c1eb0d24, 0xe0d45293e88dd737, 0x1e09f3d6c364b2c6, 0x2a6ec3800eb49447,
		}},
	}
	for _, c := range cases {
		var got [8]uint64
		for i := range got {
			got[i] = c.rng.Uint64()
		}
		if got != c.want {
			t.Errorf("%s draws changed:\n got %#v\nwant %#v", c.name, got, c.want)
		}
	}
}

// TestStreamsIndependent: streams that differ in name, or share a name
// under different shard seeds, must look unrelated — no equal leading draws
// and no measurable linear correlation.
func TestStreamsIndependent(t *testing.T) {
	root := NewStreams(1)
	pairs := []struct {
		label string
		a, b  *rand.Rand
	}{
		{"names", root.Stream("tenant/0/iat"), root.Stream("tenant/0/exec")},
		{"adjacent names", root.Stream("tenant/1/iat"), root.Stream("tenant/2/iat")},
		{"shards", root.Shard(0).Stream("cloud"), root.Shard(1).Stream("cloud")},
		{"root vs shard", root.Stream("cloud"), root.Shard(0).Stream("cloud")},
		{"adjacent roots", NewStreams(1).Stream("cloud"), NewStreams(2).Stream("cloud")},
	}
	// Independent streams give |r| about 1/sqrt(n): at 10k draws the 0.02
	// bound is only two standard errors (about 4% of truly independent name
	// pairs cross it), so draw 40k and make it four.
	const n = 40_000
	for _, p := range pairs {
		xs, ys := make([]float64, n), make([]float64, n)
		for i := range xs {
			xs[i], ys[i] = p.a.Float64(), p.b.Float64()
			if i < 8 && xs[i] == ys[i] {
				t.Errorf("%s: draw %d equal in both streams", p.label, i)
			}
		}
		if r := correlation(xs, ys); math.Abs(r) >= 0.02 {
			t.Errorf("%s: correlation over %d draws = %.4f, want |r| < 0.02", p.label, n, r)
		}
	}
}

// correlation is the Pearson correlation coefficient of xs and ys.
func correlation(xs, ys []float64) float64 {
	n := float64(len(xs))
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/n, sy/n
	var cov, vx, vy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		cov += dx * dy
		vx += dx * dx
		vy += dy * dy
	}
	return cov / math.Sqrt(vx*vy)
}

var streamSink *rand.Rand

// TestStreamSize gates what one stream costs to build: the tenant replays
// build two per tenant per shard, so a return to a table-seeded source
// (5.4 KB per stream) fails here.
func TestStreamSize(t *testing.T) {
	s := NewStreams(1)
	if allocs := testing.AllocsPerRun(1000, func() { streamSink = s.Stream("tenant/0/iat") }); allocs > 2 {
		t.Errorf("Stream allocates %.1f times per call, want <= 2", allocs)
	}
	const n = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		streamSink = s.Stream("tenant/0/iat")
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per > 128 {
		t.Errorf("Stream allocates %d B per call, want <= 128", per)
	}
}

// BenchmarkStream measures building one named stream.
func BenchmarkStream(b *testing.B) {
	s := NewStreams(1)
	names := make([]string, 64)
	for i := range names {
		names[i] = fmt.Sprintf("tenant/%d/iat", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		streamSink = s.Stream(names[i%len(names)])
	}
}

var drawSink float64

// BenchmarkStreamDraw measures one ExpFloat64+Float64 pair, the draws an
// exponential inter-arrival plus a mixture pick cost on a stream.
func BenchmarkStreamDraw(b *testing.B) {
	rng := NewStreams(1).Stream("tenant/0/iat")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		drawSink += rng.ExpFloat64() + rng.Float64()
	}
}
