package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// Host-cost readings. The untraced run takes them only before and after
// each public Run call, plus runtime/metrics reads after every GC cycle,
// so nothing is recorded inside the simulator.

var hostMetricNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/tiny/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

// hostReading is the process's cumulative host cost at one instant.
type hostReading struct {
	at       time.Time
	cpu      time.Duration // user + system, from getrusage
	mallocs  uint64        // heap allocations, tiny ones included
	gcCycles uint64
	gcCPU    float64 // seconds of GC CPU, runtime estimate
	busyCPU  float64 // seconds of non-idle Go CPU, runtime estimate
}

func readHost() (hostReading, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return hostReading{}, fmt.Errorf("getrusage: %w", err)
	}
	s := make([]metrics.Sample, len(hostMetricNames))
	for i, n := range hostMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	for _, m := range s {
		if m.Value.Kind() == metrics.KindBad {
			return hostReading{}, fmt.Errorf("runtime/metrics: %s unsupported", m.Name)
		}
	}
	return hostReading{
		at:       time.Now(),
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs:  s[0].Value.Uint64() + s[1].Value.Uint64(),
		gcCycles: s[2].Value.Uint64(),
		gcCPU:    s[3].Value.Float64(),
		busyCPU:  s[4].Value.Float64() - s[5].Value.Float64(),
	}, nil
}

// peakRSS reads the process's peak resident set size in bytes: VmHWM of
// /proc/self/status. getrusage's maxrss is not used, because Linux
// carries it across exec: a process started through a shell inherits the
// footprint of whatever forked the shell.
func peakRSS() (uint64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kib, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %q: %w", line, err)
			}
			return kib << 10, nil
		}
	}
	return 0, errors.New("peak RSS: no VmHWM in /proc/self/status")
}

// gcWatch keeps the highest live heap seen after any GC cycle while it
// is armed. A finalizer on a sentinel object runs after each cycle that
// finds the sentinel unreachable, reads the live heap, and re-arms on the
// same sentinel, so watching allocates nothing per cycle.
type gcWatch struct {
	peak atomic.Uint64
	done atomic.Bool
}

// sentinel holds a pointer so it is not a tiny allocation, whose
// finalizer could wait for unrelated objects sharing its block. buf is
// used only by the finalizer goroutine.
type sentinel struct {
	w   *gcWatch
	buf []metrics.Sample
}

func liveSample() []metrics.Sample { return []metrics.Sample{{Name: "/gc/heap/live:bytes"}} }

func watchGC() *gcWatch {
	w := &gcWatch{}
	w.note(liveSample())
	runtime.SetFinalizer(&sentinel{w: w, buf: liveSample()}, afterGC)
	return w
}

func afterGC(s *sentinel) {
	s.w.note(s.buf)
	if !s.w.done.Load() {
		runtime.SetFinalizer(s, afterGC)
	}
}

// note reads the live heap into buf and raises the peak.
func (w *gcWatch) note(buf []metrics.Sample) {
	metrics.Read(buf)
	if buf[0].Value.Kind() != metrics.KindUint64 {
		return
	}
	v := buf[0].Value.Uint64()
	for old := w.peak.Load(); v > old && !w.peak.CompareAndSwap(old, v); old = w.peak.Load() {
	}
}

// stop disarms the watch and returns its peak, including the cycle that
// completed last.
func (w *gcWatch) stop() uint64 {
	w.done.Store(true)
	w.note(liveSample())
	return w.peak.Load()
}

// rep is the host cost of one batch.
type rep struct {
	wall     time.Duration
	cpu      time.Duration
	mallocs  uint64
	gcCycles uint64
	gcFrac   float64
	peakLive uint64
	out      *outcome
	digest   string
}

// measure runs one batch from a freshly collected heap and reads the host
// cost around it.
func measure(batch func() (*outcome, error)) (rep, error) {
	runtime.GC()
	w := watchGC()
	before, err := readHost()
	if err != nil {
		return rep{}, err
	}
	out, err := batch()
	after, rerr := readHost()
	peak := w.stop()
	if err != nil {
		return rep{}, err
	}
	if rerr != nil {
		return rep{}, rerr
	}
	d, err := out.digest()
	if err != nil {
		return rep{}, err
	}
	r := rep{
		wall:     after.at.Sub(before.at),
		cpu:      after.cpu - before.cpu,
		mallocs:  after.mallocs - before.mallocs,
		gcCycles: after.gcCycles - before.gcCycles,
		peakLive: peak,
		out:      out,
		digest:   d,
	}
	if busy := after.busyCPU - before.busyCPU; busy > 0 {
		r.gcFrac = (after.gcCPU - before.gcCPU) / busy
	}
	return r, nil
}

// median returns the median of xs (the mean of the middle two for an even
// count).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianOf applies f to every rep and returns the median.
func medianOf(reps []rep, f func(rep) float64) float64 {
	xs := make([]float64, len(reps))
	for i, r := range reps {
		xs[i] = f(r)
	}
	return median(xs)
}
