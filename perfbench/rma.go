package main

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"

	"repro/internal/armci"
	"repro/internal/harness"
	"repro/internal/sim"
)

// sourcePattern fills n bytes with small-integer float64 values, so
// accumulates are exact and order-independent and partial-word puts
// (whose low bytes are zero) keep every word a finite float64.
func sourcePattern(n int, salt int) []byte {
	b := make([]byte, n)
	for i := 0; i+8 <= n; i += 8 {
		putF64(b[i:], float64((i/8*7919+salt)%1000+1))
	}
	return b
}

func putF64(b []byte, v float64) { binary.LittleEndian.PutUint64(b, math.Float64bits(v)) }

func getF64(b []byte) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(b)) }

// accModel applies dst += src elementwise over whole float64 words.
func accModel(dst, src []byte) {
	for i := 0; i+8 <= len(dst); i += 8 {
		putF64(dst[i:], getF64(dst[i:])+getF64(src[i:]))
	}
}

// rmaWorkload is shared by the two RMA workloads: jobs of one origin
// and one target, with the final target window checked against a
// dense model and against the native oracle job.
type rmaWorkload struct {
	pattern []byte
	oracle  uint32 // CRC of the native job's final window
	haveOrc bool
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// readFinal reads the target window back through direct local access
// on the target rank and compares it with the model and with the
// oracle job's window.
func (w *rmaWorkload) readFinal(r *rep, rt armci.Runtime, win armci.Addr, model []byte, impl harness.Impl) {
	final, err := rt.AccessBegin(win, len(model))
	if err != nil {
		r.callErr(err)
		return
	}
	defer func() { r.callErr(rt.AccessEnd(win)) }()
	if !bytes.Equal(final, model) {
		r.mismatches++
		return
	}
	sum := crc32.Checksum(final, castagnoli)
	if impl == harness.ImplNative && !w.haveOrc {
		w.oracle, w.haveOrc = sum, true
	}
	if sum != w.oracle {
		r.mismatches++
	}
}

// rmaBufs is rank 0's memory in one RMA job.
type rmaBufs struct {
	target   int        // rank that exposes the target window
	remote   armci.Addr // base of the target window
	src, dst armci.Addr // origin source buffer (holds the pattern) and get buffer
	dstBytes []byte     // the get buffer's bytes
	model    []byte     // dense model of the target window
	unfenced []span     // window ranges written since the last fence
}

// span is a byte range [lo, hi) of the target window written by a put
// or, with acc set, by an accumulate.
type span struct {
	lo, hi int
	acc    bool
}

// order fences the target before a call that touches [lo, hi) of its
// window if that range overlaps a write issued since the last fence.
// The armci.Runtime contract makes a blocking put or accumulate only
// locally complete on return, with remote completion under Fence, so a
// program may not count on a later call seeing the write without one.
// Accumulates do not conflict with each other.
func (b *rmaBufs) order(r *rep, rt armci.Runtime, lo, hi int, acc bool) {
	for _, s := range b.unfenced {
		if lo < s.hi && s.lo < hi && !(acc && s.acc) {
			rt.Fence(b.target)
			b.unfenced = b.unfenced[:0]
			r.fences++
			return
		}
	}
}

// wrote records a put or accumulate to [lo, hi) of the target window.
func (b *rmaBufs) wrote(lo, hi int, acc bool) {
	b.unfenced = append(b.unfenced, span{lo, hi, acc})
}

// runRMA runs one job of an RMA workload. The target, one node away
// from rank 0, exposes a window the size of win; rank 0 loads the
// pattern into its source buffer and runs prepare (both part of
// set-up), then issues the stream through step, one call per index.
// At the end the target reads its window back and checks it.
func (w *rmaWorkload) runRMA(r *rep, cfg runCfg, spec jobSpec, win, dstLen, calls int, payload int64,
	prepare func(b *rmaBufs), step func(rt armci.Runtime, p *sim.Proc, b *rmaBufs, i int)) {
	target := spec.plat.CoresPerNode
	b := &rmaBufs{target: target, model: make([]byte, win)}
	var origin sim.Time
	body := func(j *harness.Job, p *sim.Proc, ready func()) {
		rt := j.Runtime(p)
		me := rt.Rank()
		mine := 0
		if me == target {
			mine = win
		}
		addrs, err := rt.Malloc(mine)
		if err != nil {
			r.callErr(err)
			return
		}
		if me == 0 {
			b.remote = addrs[target]
			b.src, b.dst = rt.MallocLocal(len(w.pattern)), rt.MallocLocal(dstLen)
			src, err := rt.LocalBytes(b.src, len(w.pattern))
			r.callErr(err)
			copy(src, w.pattern)
			b.dstBytes, err = rt.LocalBytes(b.dst, dstLen)
			r.callErr(err)
			if prepare != nil {
				prepare(b)
			}
		}
		rt.Barrier()
		if me == 0 {
			ready()
			t0 := p.Now()
			for i := 0; i < calls; i++ {
				step(rt, p, b, i)
			}
			origin = p.Now() - t0
		}
		rt.Barrier()
		if me == target {
			w.readFinal(r, rt, addrs[target], b.model, spec.impl)
		}
		rt.Barrier()
		r.callErr(rt.Free(addrs[me]))
	}
	r.runJob(cfg, spec, body, nil)
	r.virt += origin
	r.units += int64(calls)
	r.payload += payload
}
