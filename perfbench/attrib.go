package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"strings"
)

// modules are the measured layers: the packages under internal/ whose
// host cost the traced run attributes. Subpackages count toward their
// parent (obs/profile and obs/critpath are obs).
var modules = []string{"sim", "fabric", "mpi", "armci", "armcimpi", "conflicttree", "native", "ga", "nwchem", "obs", "harness"}

const modPrefix = "repro/internal/"

// bucketGC and bucketRuntime collect what no measured module owns:
// garbage collection, and everything else (the Go runtime and
// scheduler, and the benchmark's own code).
const (
	bucketGC      = "gc"
	bucketRuntime = "runtime"
)

var gcFrames = []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markrootSpans", "runtime.gcDrain"}

// classify attributes one stack, innermost frame first, to a bucket:
// gc when any frame is GC work, else the first frame outside the Go
// runtime if it belongs to a measured module, walking outward past
// unmeasured internal packages; everything else is runtime.
func classify(funcs []string) string {
	for _, f := range funcs {
		for _, g := range gcFrames {
			if f == g {
				return bucketGC
			}
		}
	}
	for _, f := range funcs {
		if strings.HasPrefix(f, "runtime.") || strings.HasPrefix(f, "runtime/") {
			continue
		}
		mod, ok := strings.CutPrefix(f, modPrefix)
		if !ok {
			return bucketRuntime // the benchmark's own code, or the standard library it called
		}
		if i := strings.IndexAny(mod, "./"); i >= 0 {
			mod = mod[:i]
		}
		for _, m := range modules {
			if m == mod {
				return m
			}
		}
	}
	return bucketRuntime
}

// cpuProfile collects a CPU profile of the process between start and
// stop and attributes its samples to buckets.
type cpuProfile struct{ buf bytes.Buffer }

func (c *cpuProfile) start() error { return pprof.StartCPUProfile(&c.buf) }

// stop ends the profile and returns CPU seconds per bucket.
func (c *cpuProfile) stop() (map[string]float64, error) {
	pprof.StopCPUProfile()
	return parseCPUProfile(&c.buf)
}

// allocSnapshot is the cumulative allocation profile keyed by stack.
type allocSnapshot map[[32]uintptr]runtime.MemProfileRecord

// takeAllocs publishes every allocation made so far (a GC flushes the
// profile) and snapshots the allocation profile.
func takeAllocs() allocSnapshot {
	runtime.GC()
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			break
		}
	}
	out := allocSnapshot{}
	for _, r := range recs[:n] {
		out[r.Stack0] = r
	}
	return out
}

// allocDelta attributes the allocations made between two snapshots to
// buckets: objects and bytes.
func allocDelta(before, after allocSnapshot) (objs, bytes map[string]float64) {
	objs, bytes = map[string]float64{}, map[string]float64{}
	for key, r := range after {
		b := before[key]
		do, db := r.AllocObjects-b.AllocObjects, r.AllocBytes-b.AllocBytes
		if do == 0 && db == 0 {
			continue
		}
		bucket := classify(stackFuncs(r.Stack()))
		objs[bucket] += float64(do)
		bytes[bucket] += float64(db)
	}
	return objs, bytes
}

// stackFuncs expands program counters to function names, inlined
// frames included, innermost first.
func stackFuncs(pcs []uintptr) []string {
	var out []string
	frames := runtime.CallersFrames(pcs)
	for {
		f, more := frames.Next()
		out = append(out, f.Function)
		if !more {
			return out
		}
	}
}

// parseCPUProfile decodes the gzipped profile.proto that runtime/pprof
// writes and returns CPU seconds per bucket. It reads only the fields
// attribution needs: samples (location ids and values), locations
// (their line entries' function ids), functions (name string index),
// and the string table.
func parseCPUProfile(r io.Reader) (map[string]float64, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type sample struct {
		locs []uint64
		vals []int64
	}
	var samples []sample
	locFuncs := map[uint64][]uint64{} // location id -> function ids, innermost first
	funcName := map[uint64]int64{}    // function id -> string index
	var strs []string
	err = eachField(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s sample
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, w, v, b)
				case 2:
					for _, x := range appendVarints(nil, w, v, b) {
						s.vals = append(s.vals, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(f, w int, v uint64, b []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	out := map[string]float64{}
	for _, s := range samples {
		if len(s.vals) < 2 {
			continue
		}
		var funcs []string
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if i := funcName[fn]; i >= 0 && int(i) < len(strs) {
					funcs = append(funcs, strs[i])
				}
			}
		}
		out[classify(funcs)] += float64(s.vals[1]) / 1e9 // values: samples, cpu nanoseconds
	}
	return out, nil
}

var errProto = errors.New("malformed protobuf")

// eachField walks the fields of one protobuf message: varints arrive
// in v, length-delimited fields in b. Fixed-width fields are skipped.
func eachField(msg []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errProto
		}
		msg = msg[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errProto
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errProto
			}
			msg = msg[8:]
			continue
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errProto
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errProto
			}
			msg = msg[4:]
			continue
		default:
			return errProto
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
