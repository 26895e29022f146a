package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// CPU-profile attribution by layer. A sample's flat time goes to the
// function at the top of its stack, inlined frames included, which is the
// flat column `go tool pprof -top` prints; the functions are summed by
// package into layers. Standard-library and runtime helpers are charged
// to the layer that called them (math.Exp under a distribution sample
// counts as dist, a map lookup in the cloud as cloud), except the
// runtime's allocator and scheduler, which are layers of their own.

const module = "github.com/stellar-repro/stellar/internal/"

// cpuLayers lists the layers a profile splits into, in report order.
var cpuLayers = []string{
	"des", "cloud", "dist", "azuretrace", "sketch", "econ", "trace", "experiments", "runner",
	"runtime.malloc", "runtime.sched", "runtime.other", "bench", "other",
}

// packageLayers maps a package path (or path prefix) to its layer.
var packageLayers = []struct{ pkg, layer string }{
	{module + "des", "des"},
	{module + "cloud", "cloud"},
	{module + "dist", "dist"},
	{"math/rand", "dist"},
	{module + "azuretrace", "azuretrace"},
	{module + "stats", "sketch"}, // the recorders: sketch, and exact samples
	{module + "econ", "econ"},
	{module + "trace", "trace"},
	{module + "experiments", "experiments"},
	{module + "runner", "runner"},
	{"main", "bench"},
	{"github.com/stellar-repro/stellar/bench", "bench"}, // package main under go test
}

// Runtime functions by role, matched as name prefixes after "runtime.".
var (
	mallocFuncs = []string{
		"mallocgc", "newobject", "newarray", "makeslice", "growslice", "makemap",
		"nextFreeFast", "memclrNoHeapPointers", "heapSetType", "deductAssistCredit",
		"(*mcache).", "(*mcentral).", "(*mheap).", "(*mspan).nextFreeIndex", "(*mspan).init",
	}
	schedFuncs = []string{
		"schedule", "findRunnable", "park_m", "gopark", "goready", "ready", "mcall", "gogo",
		"runqget", "runqput", "runqgrab", "runqsteal", "stealWork", "execute", "futex",
		"notesleep", "notewakeup", "wakep", "startm", "stopm", "handoffp", "casgstatus",
		"newproc", "gfget", "gfput", "chansend", "chanrecv", "send", "recv",
		"selectgo", "lock2", "unlock2", "procyield", "osyield", "usleep", "netpoll",
		"checkTimers", "resetspinning", "acquirep", "releasep", "gosched", "mPark",
		"semacquire", "semrelease", "(*waitq).",
	}
)

// packageOf returns a symbol's package path: up to the first dot after
// the last slash, ignoring generic type arguments.
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// layerOfStack attributes one sample, stack[0] being the leaf. It walks
// up from the leaf: a runtime frame that allocates or schedules claims the
// sample for runtime.malloc or runtime.sched; other runtime and
// standard-library frames pass it up to the first layer that calls them.
// Runtime work no layer called, such as background GC marking, is
// runtime.other.
func layerOfStack(stack []string) string {
	runtimeLeaf := false
	for i, fn := range stack {
		pkg := packageOf(fn)
		if pkg == "runtime" || strings.HasPrefix(pkg, "internal/runtime/") {
			runtimeLeaf = runtimeLeaf || i == 0
			name := strings.TrimPrefix(fn, "runtime.")
			switch {
			case hasAnyPrefix(name, mallocFuncs):
				return "runtime.malloc"
			case hasAnyPrefix(name, schedFuncs):
				return "runtime.sched"
			}
			continue
		}
		for _, pl := range packageLayers {
			if pkg == pl.pkg || strings.HasPrefix(pkg, pl.pkg+"/") {
				return pl.layer
			}
		}
	}
	if runtimeLeaf {
		return "runtime.other"
	}
	return "other"
}

// addProfile decodes a gzipped pprof CPU profile and adds its CPU time per
// layer into flat. It returns the number of samples.
func addProfile(flat map[string]int64, data []byte) (int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return 0, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return 0, fmt.Errorf("profile: %w", err)
	}
	var samples, locations, functions [][]byte
	var strs []string
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2:
			samples = append(samples, b)
		case 4:
			locations = append(locations, b)
		case 5:
			functions = append(functions, b)
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return 0, err
	}

	names := map[uint64]string{} // function id -> name
	for _, f := range functions {
		var id, name uint64
		if err := eachField(f, func(num int, v uint64, _ []byte) error {
			switch num {
			case 1:
				id = v
			case 2:
				name = v
			}
			return nil
		}); err != nil {
			return 0, err
		}
		if name >= uint64(len(strs)) {
			return 0, errors.New("profile: function name out of range")
		}
		names[id] = strs[name]
	}
	frames := map[uint64][]string{} // location id -> functions, innermost first
	for _, l := range locations {
		var id uint64
		var fns []string
		if err := eachField(l, func(num int, v uint64, b []byte) error {
			switch num {
			case 1:
				id = v
			case 4:
				return eachField(b, func(num int, v uint64, _ []byte) error {
					if num == 1 {
						fns = append(fns, names[v])
					}
					return nil
				})
			}
			return nil
		}); err != nil {
			return 0, err
		}
		frames[id] = fns
	}

	var count int64
	for _, s := range samples {
		var locs, values []uint64
		if err := eachField(s, func(num int, v uint64, b []byte) error {
			switch num {
			case 1:
				return appendVarints(&locs, v, b)
			case 2:
				return appendVarints(&values, v, b)
			}
			return nil
		}); err != nil {
			return 0, err
		}
		if len(values) < 2 {
			return 0, errors.New("profile: sample without a cpu value")
		}
		var stack []string
		for _, id := range locs {
			stack = append(stack, frames[id]...)
		}
		flat[layerOfStack(stack)] += int64(values[1])
		count += int64(values[0])
	}
	return count, nil
}

// eachField walks the fields of one protobuf message, passing varints as v
// and length-delimited fields as b.
func eachField(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		num := int(key >> 3)
		var v uint64
		var b []byte
		switch key & 7 {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("profile: short fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("profile: bad length")
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("profile: short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("profile: wire type %d", key&7)
		}
		if err := fn(num, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends one repeated-varint field, packed (b) or not (v).
func appendVarints(dst *[]uint64, v uint64, b []byte) error {
	if b == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}
