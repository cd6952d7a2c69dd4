package main

import (
	"bytes"
	"math"
	"math/rand"

	"repro/internal/armci"
	"repro/internal/armcimpi"
	"repro/internal/harness"
	"repro/internal/platform"
	"repro/internal/sim"
)

// Fig 3 shape: one origin, one target a node away, a closed loop of
// blocking contiguous calls.
const (
	contigCalls  = 320     // calls per job; put:get:acc = 2:2:1
	contigMinLog = 3       // smallest size 2^3 = 8 B
	contigMaxLog = 22      // largest size 2^22 = 4 MiB
	contigWin    = 8 << 20 // target window
	contigSrc    = 8 << 20 // origin source buffer
)

type rmaCall struct {
	op   string // put, get, acc
	size int
	off  int // byte offset in the target window
	src  int // byte offset in the origin source buffer
}

type contigInput struct {
	calls   []rmaCall
	payload int64
	small   float64 // share of calls of at most 4 KiB
}

// logUniformStrata draws k sizes log-uniform in [2^lo, 2^hi], one from
// the middle quarter of each of k equal strata of the log range, so the
// total and the percentiles of the size mix vary little with the seed.
// Sizes come back in stratum order.
func logUniformStrata(rng *rand.Rand, k int, lo, hi float64) []int {
	out := make([]int, k)
	for i := range out {
		u := (float64(i) + 0.375 + rng.Float64()/4) / float64(k)
		out[i] = int(math.Round(math.Exp2(lo + u*(hi-lo))))
	}
	return out
}

// interleave shuffles the stratified call list into a fixed order that
// does not depend on the seed. A call's simulated latency depends on the
// calls before it (a large put still occupies the NIC when the next
// call starts), so a seeded order would move the latency percentiles
// from seed to seed; the seed varies sizes within their strata and
// where each call lands instead.
func interleave(n int, swap func(i, j int)) {
	rand.New(rand.NewSource(0x5eed)).Shuffle(n, swap)
}

// align8 rounds n down to a multiple of 8, at least 8.
func align8(n int) int {
	if n < 8 {
		return 8
	}
	return n &^ 7
}

// randOff is a random 8-byte-aligned offset that fits n bytes in span.
func randOff(rng *rand.Rand, span, n int) int {
	return rng.Intn((span-n)/8+1) * 8
}

func genContig(seed int64) *contigInput {
	rng := rand.New(rand.NewSource(seed))
	in := &contigInput{}
	mix := []struct {
		op string
		k  int
	}{{"put", contigCalls * 2 / 5}, {"get", contigCalls * 2 / 5}, {"acc", contigCalls / 5}}
	for _, m := range mix {
		for _, size := range logUniformStrata(rng, m.k, contigMinLog, contigMaxLog) {
			if m.op == "acc" {
				size = align8(size)
			}
			in.calls = append(in.calls, rmaCall{op: m.op, size: size})
		}
	}
	interleave(len(in.calls), func(i, j int) { in.calls[i], in.calls[j] = in.calls[j], in.calls[i] })
	small := 0
	for i := range in.calls {
		c := &in.calls[i]
		c.off = randOff(rng, contigWin, c.size)
		c.src = randOff(rng, contigSrc, c.size)
		in.payload += int64(c.size)
		if c.size <= 4096 {
			small++
		}
	}
	in.small = float64(small) / float64(len(in.calls))
	return in
}

type contigWL struct {
	rmaWorkload
	in *contigInput
}

func newContig(seed int64) *contigWL {
	return &contigWL{rmaWorkload{pattern: sourcePattern(contigSrc, int(seed%1000))}, genContig(seed)}
}

func (w *contigWL) run(cfg runCfg) *rep {
	r := newRep()
	for _, plat := range platform.All() {
		for _, impl := range []harness.Impl{harness.ImplNative, harness.ImplARMCIMPI} {
			spec := jobSpec{plat: plat, nranks: 2 * plat.CoresPerNode, impl: impl, opt: armcimpi.DefaultOptions()}
			w.runRMA(r, cfg, spec, contigWin, 1<<contigMaxLog, len(w.in.calls), w.in.payload, nil,
				func(rt armci.Runtime, p *sim.Proc, b *rmaBufs, i int) { w.call(r, cfg.spans, rt, p, b, w.in.calls[i]) })
		}
	}
	return r
}

// call issues one contiguous call, fencing first if it conflicts with
// an earlier write, then updates the model (put, acc) or checks the
// data against it (get).
func (w *contigWL) call(r *rep, spans bool, rt armci.Runtime, p *sim.Proc, b *rmaBufs, c rmaCall) {
	var err error
	b.order(r, rt, c.off, c.off+c.size, c.op == "acc")
	st := begin(p, spans)
	switch c.op {
	case "put":
		err = rt.Put(b.src.Add(c.src), b.remote.Add(c.off), c.size)
	case "get":
		err = rt.Get(b.remote.Add(c.off), b.dst, c.size)
	case "acc":
		err = rt.Acc(armci.AccDbl, 1.0, b.src.Add(c.src), b.remote.Add(c.off), c.size)
	}
	r.end(contigOpName(c.op, c.size), p, st)
	r.callErr(err)
	m := b.model[c.off : c.off+c.size]
	switch c.op {
	case "put":
		copy(m, w.pattern[c.src:])
		b.wrote(c.off, c.off+c.size, false)
	case "get":
		if !bytes.Equal(b.dstBytes[:c.size], m) {
			r.mismatches++
		}
	case "acc":
		accModel(m, w.pattern[c.src:])
		b.wrote(c.off, c.off+c.size, true)
	}
}
