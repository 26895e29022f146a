package main

import (
	"bytes"
	"runtime/pprof"
	"testing"
	"time"
)

func TestLayerOfStack(t *testing.T) {
	const m = "github.com/stellar-repro/stellar/internal/"
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{m + "des.(*Engine).siftDown", m + "des.(*Engine).pop"}, "des"},
		{[]string{"math.archExp", "math.Exp", m + "dist.LogNormal.Sample"}, "dist"},
		{[]string{"math/rand.(*rngSource).Uint64", m + "cloud.(*Cloud).Invoke"}, "dist"},
		{[]string{"runtime.mapaccess2_faststr", m + "cloud.(*Cloud).InvokeAsync"}, "cloud"},
		{[]string{"runtime.mallocgcTiny", "runtime.mallocgc", m + "cloud.(*Cloud).Deploy"}, "runtime.malloc"},
		{[]string{"internal/runtime/atomic.(*Int32).Add", "runtime.casgstatus", m + "des.(*Proc).park"}, "runtime.sched"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker", "runtime.goexit"}, "runtime.other"},
		{[]string{m + "runner.Map[go.shape.*uint8].func1", "runtime.goexit"}, "runner"},
		{[]string{m + "stats/sketch.(*Sketch).AddN", "main.(*timedRecorder).Add"}, "sketch"},
		{[]string{"main.clock", "main.(*shardTrace).end"}, "bench"},
		{[]string{"fmt.Sprintf"}, "other"},
		{nil, "other"},
	} {
		if got := layerOfStack(c.stack); got != c.want {
			t.Errorf("%v: got %s, want %s", c.stack, got, c.want)
		}
	}
}

// spin burns CPU in package main for d.
func spin(d time.Duration) (n uint64) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			n = n*6364136223846793005 + 1442695040888963407
		}
	}
	return n
}

func TestAddProfileDecodesCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	flat := map[string]int64{}
	samples, err := addProfile(flat, buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, v := range flat {
		total += v
	}
	if samples == 0 || total == 0 {
		t.Fatalf("no samples decoded: %d samples, %v", samples, flat)
	}
	if flat["bench"]*2 < total {
		t.Errorf("spin in package main got %d of %d ns: %v", flat["bench"], total, flat)
	}
}
