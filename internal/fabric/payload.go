package fabric

import (
	"encoding/binary"
	"math"
	"math/bits"
)

// This file holds the host-side data movement shared by every runtime's
// RMA paths: the per-machine pool of in-flight payload snapshots and the
// in-place float64 reduction kernel.
//
// A put or accumulate snapshots its origin bytes at issue and a get
// snapshots the target bytes when its request arrives; the snapshot
// lives until the event that applies it at the other end. Those
// snapshots are the simulator's stand-in for the bytes on the wire, so
// they are recycled rather than allocated per operation: the runtime
// takes one with Payload and hands it back with Recycle from the event
// that last reads it. The pool belongs to one Machine, so it is
// deterministic, needs no lock (a full-stack job runs on one shard), and
// dies with the job.

// payloadClasses bounds the size classes: class c holds buffers of
// capacity 1<<c.
const payloadClasses = 64

// Payload returns a buffer of n bytes for an in-flight snapshot. Its
// contents are unspecified: the caller overwrites all n bytes. The
// buffer comes from the free list of the smallest power-of-two size
// class that holds n, or is allocated with that class's capacity. n <= 0
// returns nil.
func (m *Machine) Payload(n int) []byte {
	if n <= 0 {
		return nil
	}
	c := bits.Len(uint(n - 1))
	if free := m.payloads[c]; len(free) > 0 {
		b := free[len(free)-1]
		free[len(free)-1] = nil
		m.payloads[c] = free[:len(free)-1]
		return b[:n]
	}
	return make([]byte, n, 1<<c)
}

// Recycle returns a buffer obtained from Payload to its size class. The
// caller must not touch b afterwards. Buffers whose capacity is not a
// power of two (so not from Payload) and nil are ignored.
func (m *Machine) Recycle(b []byte) {
	c := cap(b)
	if c == 0 || c&(c-1) != 0 {
		return
	}
	k := bits.TrailingZeros(uint(c))
	m.payloads[k] = append(m.payloads[k], b[:0])
}

// F64Op selects the elementwise reduction ReduceF64 applies.
type F64Op uint8

const (
	F64Sum F64Op = iota
	F64Min
	F64Max
	F64Prod
	F64Replace
)

// ReduceF64 folds src into dst in place, elementwise over little-endian
// float64s: dst[i] = dst[i] op scale*src[i]. With scale 1 the operand is
// src[i] itself, so F64Replace is a plain copy. Trailing bytes short of
// a whole element are left alone.
//
// Each expression keeps the form of the decode/reduce/encode code it
// replaced (a sum is cur += scale*inc, a scaled copy x*scale), so a
// compiler that fuses multiply-add rounds it the same way; and dst is
// read before src, which keeps the old operand order and with it the
// payload a NaN result carries. The internal/mpi reduce tests pin both
// against the old code.
func ReduceF64(op F64Op, dst, src []byte, scale float64) {
	n := len(dst) &^ 7
	src = src[:n]
	if op == F64Replace && scale == 1 {
		copy(dst[:n], src)
		return
	}
	for i := 0; i < n; i += 8 {
		cur := getF64(dst[i:])
		switch op {
		case F64Sum:
			if scale == 1 {
				cur += getF64(src[i:])
			} else {
				cur += scale * getF64(src[i:])
			}
		case F64Prod:
			if scale == 1 {
				cur *= getF64(src[i:])
			} else {
				cur *= getF64(src[i:]) * scale
			}
		case F64Min:
			if inc := getF64(src[i:]) * scale; inc < cur {
				cur = inc
			}
		case F64Max:
			if inc := getF64(src[i:]) * scale; inc > cur {
				cur = inc
			}
		case F64Replace:
			cur = getF64(src[i:]) * scale
		default:
			panic("fabric: unknown F64Op")
		}
		putF64(dst[i:], cur)
	}
}

func getF64(b []byte) float64    { return math.Float64frombits(binary.LittleEndian.Uint64(b)) }
func putF64(b []byte, v float64) { binary.LittleEndian.PutUint64(b, math.Float64bits(v)) }
