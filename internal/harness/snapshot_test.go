package harness

import (
	"bytes"
	"testing"

	"repro/internal/armci"
	"repro/internal/armcimpi"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// Snapshot semantics of the native and data-server pipelines: a put or
// accumulate carries the origin bytes as they were at issue, and a get
// carries the target bytes as they were when the target read them. Each
// case scribbles on the sending side from an engine event `at` after
// issue, and records that the receiving side was still untouched then,
// so a pass is never vacuous. On the test platform a 64 KiB payload
// needs about 65 µs on the wire (16 µs for a same-node copy); the
// snapshot is taken within 1 µs of issue for puts, at request arrival
// (about 1.5 µs) for native gets, and once the data server has served
// the request (about 84 µs) for data-server gets.

const snapBytes = 64 << 10

// snapSegs is the strided ops' segment count: 16 KiB segments, dense at
// the origin, every other slot at the target.
const snapSegs = 4

type snapCase struct {
	impl   Impl
	op     string // Put, Acc, PutS, AccS, Get or GetS
	target int    // 1 shares rank 0's node, 2 is on another node
	at     sim.Time
}

func (c snapCase) get() bool     { return c.op == "Get" || c.op == "GetS" }
func (c snapCase) acc() bool     { return c.op == "Acc" || c.op == "AccS" }
func (c snapCase) strided() bool { return len(c.op) == 4 }

func snapCases() []snapCase {
	early := sim.FromSeconds(5e-6)
	var cs []snapCase
	for _, op := range []string{"Put", "Acc", "PutS", "AccS", "Get", "GetS"} {
		cs = append(cs, snapCase{ImplNative, op, 2, early})
		at := early
		if op == "Get" || op == "GetS" {
			at = sim.FromSeconds(110e-6)
		}
		cs = append(cs, snapCase{ImplDataServer, op, 2, at})
	}
	// The data server's same-node put copies straight into the target
	// after charging the copy.
	cs = append(cs, snapCase{ImplDataServer, "Put", 1, early}, snapCase{ImplDataServer, "PutS", 1, early})
	return cs
}

// snapPattern is a deterministic byte pattern with no zero bytes.
func snapPattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7) + seed | 1
	}
	return b
}

// snapF64s returns n/8 float64s a*i + c, encoded.
func snapF64s(n int, a, c float64) []byte {
	xs := make([]float64, n/8)
	for i := range xs {
		xs[i] = a*float64(i) + c
	}
	return mpi.F64sToBytes(xs)
}

// TestSnapshotSemantics modifies the sending side of every native and
// data-server put, accumulate and get while its payload is in flight.
// The rank bodies report errors with t.Error: t.Fatal may only be
// called from the test's own goroutine. A rank that returns early
// leaves the others blocked, which fails the job.
func TestSnapshotSemantics(t *testing.T) {
	for _, c := range snapCases() {
		name := string(c.impl) + "/" + c.op
		if c.target == 1 {
			name += "/same-node"
		}
		t.Run(name, func(t *testing.T) { runSnapCase(t, c) })
	}
}

func runSnapCase(t *testing.T, c snapCase) {
	j, err := NewJob(TestPlatform(), 4, c.impl, armcimpi.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	mem := func(a armci.Addr, n int) []byte {
		return j.M.Space(a.Rank).Find(a.VA, n).Bytes(a.VA, n)
	}
	seg, stride := snapBytes, snapBytes
	if c.strided() {
		seg, stride = snapBytes/snapSegs, 2*snapBytes/snapSegs
	}
	// The target-side slots of the payload, read and written in payload
	// order.
	remoteRead := func(base armci.Addr) []byte {
		var out []byte
		for off := 0; off < snapBytes/seg*stride; off += stride {
			out = append(out, mem(base.Add(off), seg)...)
		}
		return out
	}
	remoteWrite := func(base armci.Addr, data []byte) {
		for i := 0; i*seg < snapBytes; i++ {
			copy(mem(base.Add(i*stride), seg), data[i*seg:(i+1)*seg])
		}
	}
	body := func(p *sim.Proc) {
		rt := j.Runtime(p)
		addrs, err := rt.Malloc(2 * snapBytes)
		if err != nil {
			t.Error(err)
			return
		}
		if rt.Rank() == 0 {
			local := rt.MallocLocal(snapBytes)
			remote := addrs[c.target]
			var before, want []byte // the receiving side before and after
			switch {
			case c.get():
				before = make([]byte, snapBytes)
				want = snapPattern(snapBytes, 9)
				remoteWrite(remote, want)
			case c.acc():
				before = snapF64s(snapBytes, 1, 0.5)
				remoteWrite(remote, before)
				copy(mem(local, snapBytes), snapF64s(snapBytes, 2, 1))
				want = snapF64s(snapBytes, 5, 2.5) // before + 2*inc
			default:
				before = make([]byte, snapBytes)
				want = snapPattern(snapBytes, 3)
				copy(mem(local, snapBytes), want)
			}
			recv := func() []byte {
				if c.get() {
					return mem(local, snapBytes)
				}
				return remoteRead(remote)
			}
			untouched := false
			j.Eng.At(p.Now()+c.at, func() {
				untouched = bytes.Equal(recv(), before)
				junk := bytes.Repeat([]byte{0x7F}, snapBytes)
				if c.get() {
					remoteWrite(remote, junk)
				} else {
					copy(mem(local, snapBytes), junk)
				}
			})
			s := &armci.Strided{
				Src: local, Dst: remote,
				SrcStride: []int{seg}, DstStride: []int{stride},
				Count: []int{seg, snapSegs},
			}
			gs := &armci.Strided{
				Src: remote, Dst: local,
				SrcStride: []int{stride}, DstStride: []int{seg},
				Count: []int{seg, snapSegs},
			}
			var err error
			switch c.op {
			case "Put":
				err = rt.Put(local, remote, snapBytes)
			case "Acc":
				err = rt.Acc(armci.AccDbl, 2, local, remote, snapBytes)
			case "PutS":
				err = rt.PutS(s)
			case "AccS":
				err = rt.AccS(armci.AccDbl, 2, s)
			case "Get":
				err = rt.Get(remote, local, snapBytes)
			case "GetS":
				err = rt.GetS(gs)
			}
			if err != nil {
				t.Error(err)
				return
			}
			rt.Fence(c.target)
			if !untouched {
				t.Error("the data had landed before the sending side was modified")
			}
			if !bytes.Equal(recv(), want) {
				t.Error("delivered bytes include changes made after the snapshot point")
			}
		}
		rt.Barrier()
		if err := rt.Free(addrs[rt.Rank()]); err != nil {
			t.Error(err)
		}
	}
	if err := j.Eng.Run(4, body); err != nil {
		t.Fatal(err)
	}
}
