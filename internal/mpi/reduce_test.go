package mpi

import (
	"math"
	"testing"

	"repro/internal/fabric"
)

// The in-place float64 kernel (fabric.ReduceF64) replaced decode →
// reduce → encode round trips in mpi, native, dataserver and armcimpi.
// These tests keep those round trips as references and require the
// kernel to match them bit for bit.

// refApplyReduction is the decode/reduceF64/encode accumulate that
// applyReduction used before the in-place kernel.
func refApplyReduction(dst []byte, t Datatype, data []byte, op Op) {
	if op == OpReplace {
		Unpack(t, dst, data)
		return
	}
	pos := 0
	t.Segments(func(off, n int) {
		cur := bytesToF64s(dst[off : off+n])
		inc := bytesToF64s(data[pos : pos+n])
		reduceF64(op, cur, inc)
		copy(dst[off:off+n], f64sToBytes(cur))
		pos += n
	})
}

// refScaledSum is the scaled accumulate of the native strided pipeline
// and the data server: cur += scale*inc on decoded copies.
func refScaledSum(dst, src []byte, scale float64) {
	cur := bytesToF64s(dst)
	inc := bytesToF64s(src)
	for k := range cur {
		cur[k] += scale * inc[k]
	}
	copy(dst, f64sToBytes(cur))
}

// refScale is the prescale of armcimpi and the issue-time scaling of the
// native contiguous accumulate: a decoded copy times scale.
func refScale(src []byte, scale float64) []byte {
	vals := bytesToF64s(src)
	for i, x := range vals {
		vals[i] = x * scale
	}
	return f64sToBytes(vals)
}

// specialF64s mixes NaNs (quiet, signaling, negative), signed zeros,
// infinities, subnormals and ordinary values.
func specialF64s() []float64 {
	bits := []uint64{
		0x7FF8000000000000, // quiet NaN
		0x7FF8000000000123, // quiet NaN with payload
		0xFFF8000000000000, // negative quiet NaN
		0x7FF0000000000001, // signaling NaN
		0x0000000000000000, // +0
		0x8000000000000000, // -0
		0x7FF0000000000000, // +Inf
		0xFFF0000000000000, // -Inf
		0x0000000000000001, // smallest subnormal
		0x800FFFFFFFFFFFFF, // largest negative subnormal
		0x0010000000000000, // smallest normal
	}
	out := make([]float64, 0, len(bits)+6)
	for _, b := range bits {
		out = append(out, math.Float64frombits(b))
	}
	return append(out, 1, -1, 0.1, -3.75, math.MaxFloat64, 1e-300)
}

// pairs returns cur and inc encodings covering every (cur, inc)
// combination of the special values.
func pairs() (cur, inc []byte) {
	vals := specialF64s()
	var c, s []float64
	for _, a := range vals {
		for _, b := range vals {
			c = append(c, a)
			s = append(s, b)
		}
	}
	return f64sToBytes(c), f64sToBytes(s)
}

// sameBits requires got and want to be bitwise equal wherever at most
// one of the two operands, cur[i] and scale*inc[i], is a NaN. Where both
// are, IEEE 754 leaves open which payload the result carries, and Go's
// register allocation decides it (the references themselves flip under
// -race), so both results need only be NaN. A replace has no cur
// operand: pass nil.
func sameBits(t *testing.T, what string, got, want, cur, inc []byte, scale float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: len %d, want %d", what, len(got), len(want))
	}
	g, w := bytesToF64s(got), bytesToF64s(want)
	c, s := bytesToF64s(cur), bytesToF64s(inc)
	for i := range g {
		if cur != nil && math.IsNaN(c[i]) && math.IsNaN(s[i]*scale) && math.IsNaN(g[i]) && math.IsNaN(w[i]) {
			continue
		}
		if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
			t.Fatalf("%s: element %d (%v op %v*%v) = %#016x, reference %#016x", what, i,
				c[i], s[i], scale, math.Float64bits(g[i]), math.Float64bits(w[i]))
		}
	}
}

// operand returns the cur operand sameBits should see for op.
func operand(op Op, cur []byte) []byte {
	if op == OpReplace {
		return nil
	}
	return cur
}

var kernelOps = []struct {
	op Op
	f  fabric.F64Op
}{
	{OpSum, fabric.F64Sum},
	{OpMin, fabric.F64Min},
	{OpMax, fabric.F64Max},
	{OpProd, fabric.F64Prod},
	{OpReplace, fabric.F64Replace},
}

// TestReduceKernelMatchesRoundTrip compares applyReduction and the raw
// kernel at scale 1 with the decode/reduceF64/encode reference, for
// every op on contiguous and strided layouts.
func TestReduceKernelMatchesRoundTrip(t *testing.T) {
	cur, inc := pairs()
	n := len(cur) / 8
	types := []Datatype{TypeContiguous(len(cur)), TypeVector(n/3, 24, 40)}
	for _, k := range kernelOps {
		for _, dt := range types {
			span := dt.Span()
			base := make([]byte, span)
			for i := range base {
				base[i] = cur[i%len(cur)]
			}
			data := inc[:dt.Size()]
			want := append([]byte(nil), base...)
			refApplyReduction(want, dt, data, k.op)
			got := append([]byte(nil), base...)
			applyReduction(got, dt, data, k.op)
			packed := func(b []byte) []byte {
				out := make([]byte, dt.Size())
				PackInto(out, dt, b)
				return out
			}
			sameBits(t, k.op.String()+" "+dt.String(), packed(got), packed(want),
				operand(k.op, packed(base)), data, 1)
		}

		want := append([]byte(nil), cur...)
		refApplyReduction(want, TypeContiguous(len(cur)), inc, k.op)
		got := append([]byte(nil), cur...)
		fabric.ReduceF64(k.f, got, inc, 1)
		sameBits(t, "kernel "+k.op.String(), got, want, operand(k.op, cur), inc, 1)
	}
}

// TestReduceKernelScaledMatchesRoundTrip compares the kernel at scale ≠ 1
// with the scaled references: cur += scale*inc for a sum, the scaled
// copy x*scale for a replace, and a scaled copy reduced by reduceF64 for
// the other ops.
func TestReduceKernelScaledMatchesRoundTrip(t *testing.T) {
	cur, inc := pairs()
	for _, scale := range []float64{2, -0.5, 3.7, 1e-300, math.Inf(1), 0} {
		for _, k := range kernelOps {
			want := append([]byte(nil), cur...)
			switch k.op {
			case OpSum:
				refScaledSum(want, inc, scale)
			case OpReplace:
				want = refScale(inc, scale)
			default:
				w := bytesToF64s(want)
				reduceF64(k.op, w, bytesToF64s(refScale(inc, scale)))
				want = f64sToBytes(w)
			}
			got := append([]byte(nil), cur...)
			fabric.ReduceF64(k.f, got, inc, scale)
			sameBits(t, k.op.String()+" scaled", got, want, operand(k.op, cur), inc, scale)
		}

		// In place, as the native accumulate scales its own snapshot.
		got := append([]byte(nil), inc...)
		fabric.ReduceF64(fabric.F64Replace, got, got, scale)
		sameBits(t, "in-place scale", got, refScale(inc, scale), nil, inc, scale)
	}
}

// TestReduceKernelIgnoresTrailingBytes checks that bytes short of a
// whole element are left alone, as the decoders dropped them.
func TestReduceKernelIgnoresTrailingBytes(t *testing.T) {
	dst := append(f64sToBytes([]float64{1, 2}), 0xAA, 0xBB, 0xCC)
	src := append(f64sToBytes([]float64{10, 20}), 1, 2, 3)
	fabric.ReduceF64(fabric.F64Sum, dst, src, 1)
	if got := bytesToF64s(dst[:16]); got[0] != 11 || got[1] != 22 {
		t.Errorf("sum = %v", got)
	}
	if dst[16] != 0xAA || dst[17] != 0xBB || dst[18] != 0xCC {
		t.Errorf("trailing bytes changed: %v", dst[16:])
	}
}
