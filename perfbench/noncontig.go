package main

import (
	"bytes"
	"math/rand"

	"repro/internal/armci"
	"repro/internal/armcimpi"
	"repro/internal/harness"
	"repro/internal/platform"
	"repro/internal/sim"
)

// Fig 4 shape: one origin, one target a node away, a closed loop of
// blocking strided and I/O-vector calls.
const (
	ncPerOp   = 32       // calls per job for each of the six operations
	ncPool    = 12       // shapes per family; armcimpi memoizes 4
	ncMinSegs = 4        // 2^4 = 16 segments
	ncMaxSegs = 10       // 2^10 = 1024 segments
	ncMinSeg  = 3        // 2^3 = 8 B segments
	ncMaxSeg  = 12       // 2^12 = 4 KiB segments
	ncWin     = 16 << 20 // target window
	ncSrc     = 8 << 20  // origin source buffer
	ncDst     = 4 << 20  // origin get buffer, at least the largest local span
	ncPlatNm  = "ib"
)

// ncShape is one noncontiguous layout. Segment i sits at remote[i] in
// the target window and at local[i] in the origin buffer, both relative
// to the call's base offsets. Strided shapes also keep their
// descriptor form.
type ncShape struct {
	seg           int
	remote, local []int
	count         []int // strided only: Count
	rStride       []int // strided only: remote strides
	lStride       []int // strided only: local strides
	rSpan, lSpan  int
}

type ncCall struct {
	op    string // puts, gets, accs, putv, getv, accv
	shape int    // index into the family's pool
	off   int    // remote base
	src   int    // local source base (puts and accs)
}

type ncInput struct {
	strided, iov []ncShape
	calls        []ncCall
	payload      int64
	segments     int64
	repeat       float64 // share of strided calls a 4-entry FIFO memo would hit
}

func (in *ncInput) shape(c ncCall) *ncShape {
	if c.op[len(c.op)-1] == 's' {
		return &in.strided[c.shape]
	}
	return &in.iov[c.shape]
}

// pairing pairs segment-count strata with segment-size strata in
// reverse order: many small segments or few large ones, so per-segment
// work dominates and a seed moves sizes only within their strata.
func pairing(i, k int) int { return k - 1 - i }

func genNoncontig(seed int64) *ncInput {
	rng := rand.New(rand.NewSource(seed))
	in := &ncInput{}
	for fam := 0; fam < 2; fam++ {
		segs := logUniformStrata(rng, ncPool, ncMinSegs, ncMaxSegs)
		sizes := logUniformStrata(rng, ncPool, ncMinSeg, ncMaxSeg)
		for i := 0; i < ncPool; i++ {
			b := align8(sizes[pairing(i, ncPool)])
			if fam == 0 {
				in.strided = append(in.strided, stridedShape(rng, 1+i%3, segs[i], b))
			} else {
				in.iov = append(in.iov, iovShape(rng, segs[i], b))
			}
		}
	}
	for _, op := range []string{"puts", "gets", "accs", "putv", "getv", "accv"} {
		for i := 0; i < ncPerOp; i++ {
			in.calls = append(in.calls, ncCall{op: op, shape: i % ncPool})
		}
	}
	interleave(len(in.calls), func(i, j int) { in.calls[i], in.calls[j] = in.calls[j], in.calls[i] })
	var ring []int
	hits, strided := 0, 0
	for i := range in.calls {
		c := &in.calls[i]
		s := in.shape(*c)
		c.off = randOff(rng, ncWin, s.rSpan)
		c.src = randOff(rng, ncSrc, s.lSpan)
		in.payload += int64(s.seg * len(s.remote))
		in.segments += int64(len(s.remote))
		if s.count == nil {
			continue
		}
		strided++
		if contains(ring, c.shape) {
			hits++
			continue
		}
		if ring = append(ring, c.shape); len(ring) > 4 {
			ring = ring[1:]
		}
	}
	in.repeat = float64(hits) / float64(strided)
	return in
}

func contains(xs []int, x int) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

// stridedShape builds a descriptor of levels stride levels with about
// nseg segments of seg bytes: every outer level has a count of 2 and
// the innermost level takes the rest, so the segment count follows the
// seeded nseg closely. Remote strides leave random 8-byte-aligned gaps
// of up to half the inner span; the local layout is dense.
func stridedShape(rng *rand.Rand, levels, nseg, seg int) ncShape {
	s := ncShape{seg: seg, count: []int{seg, max(1, nseg>>(levels-1))}}
	for l := 1; l < levels; l++ {
		s.count = append(s.count, 2)
	}
	rSpan, lSpan := seg, seg
	for _, c := range s.count[1:] {
		r := rSpan + rng.Intn(rSpan/16+1)*8
		s.rStride = append(s.rStride, r)
		s.lStride = append(s.lStride, lSpan)
		rSpan, lSpan = r*c, lSpan*c
	}
	s.rSpan, s.lSpan = rSpan, lSpan
	// Enumerate the segments, innermost level fastest.
	idx := make([]int, levels)
	for {
		ro, lo := 0, 0
		for l := 0; l < levels; l++ {
			ro += idx[l] * s.rStride[l]
			lo += idx[l] * s.lStride[l]
		}
		s.remote = append(s.remote, ro)
		s.local = append(s.local, lo)
		l := 0
		for ; l < levels; l++ {
			if idx[l]++; idx[l] < s.count[l+1] {
				break
			}
			idx[l] = 0
		}
		if l == levels {
			break
		}
	}
	return s
}

// iovShape scatters nseg segments of seg bytes over 2*nseg remote slots
// in random order; the local side is dense.
func iovShape(rng *rand.Rand, nseg, seg int) ncShape {
	s := ncShape{seg: seg, rSpan: 2 * nseg * seg, lSpan: nseg * seg}
	slots := rng.Perm(2 * nseg)[:nseg]
	for i, sl := range slots {
		s.remote = append(s.remote, sl*seg)
		s.local = append(s.local, i*seg)
	}
	return s
}

// ncMethods are the Figure 4 variants: native as the oracle, then one
// ARMCI-MPI job per noncontiguous method.
var ncMethods = []struct {
	impl   harness.Impl
	method armcimpi.Method
}{
	{harness.ImplNative, armcimpi.MethodDirect},
	{harness.ImplARMCIMPI, armcimpi.MethodAuto},
	{harness.ImplARMCIMPI, armcimpi.MethodDirect},
	{harness.ImplARMCIMPI, armcimpi.MethodIOVDirect},
	{harness.ImplARMCIMPI, armcimpi.MethodBatched},
	{harness.ImplARMCIMPI, armcimpi.MethodConservative},
}

type noncontigWL struct {
	rmaWorkload
	in *ncInput
}

func newNoncontig(seed int64) *noncontigWL {
	return &noncontigWL{rmaWorkload{pattern: sourcePattern(ncSrc, int(seed%1000))}, genNoncontig(seed)}
}

func (w *noncontigWL) run(cfg runCfg) *rep {
	r := newRep()
	plat := platform.Get(ncPlatNm)
	for _, m := range ncMethods {
		opt := armcimpi.DefaultOptions()
		// One method for both descriptor kinds; auto resolves strided
		// descriptors to direct, and direct is strided-only, so IOV
		// calls keep the default (auto) there.
		opt.StridedMethod = m.method
		if m.method != armcimpi.MethodDirect {
			opt.IOVMethod = m.method
		}
		spec := jobSpec{plat: plat, nranks: 2 * plat.CoresPerNode, impl: m.impl, opt: opt}
		var descs []ncDesc
		prepare := func(b *rmaBufs) {
			for _, c := range w.in.calls {
				descs = append(descs, w.descriptor(c, b.remote, b.src, b.dst))
			}
		}
		step := func(rt armci.Runtime, p *sim.Proc, b *rmaBufs, i int) {
			c := w.in.calls[i]
			s := w.in.shape(c)
			b.order(r, rt, c.off, c.off+s.rSpan, c.op[0] == 'a')
			st := begin(p, cfg.spans)
			err := issueNC(rt, c.op, descs[i], spec.plat.CoresPerNode)
			r.end(c.op, p, st)
			r.callErr(err)
			w.apply(r, c, b.model, b.dstBytes)
			if c.op[0] != 'g' {
				b.wrote(c.off, c.off+s.rSpan, c.op[0] == 'a')
			}
		}
		w.runRMA(r, cfg, spec, ncWin, ncDst, len(w.in.calls), w.in.payload, prepare, step)
	}
	return r
}

// ncDesc is the ARMCI descriptor of one call against a job's addresses.
// Descriptors are built in the prologue, so their allocations stay out
// of the timed phase.
type ncDesc struct {
	s   *armci.Strided
	iov []armci.GIOV
}

func (w *noncontigWL) descriptor(c ncCall, remote, src, dst armci.Addr) ncDesc {
	s := w.in.shape(c)
	rBase := remote.Add(c.off)
	lBase := src.Add(c.src)
	get := c.op[0] == 'g'
	if get {
		lBase = dst
	}
	if s.count != nil {
		d := &armci.Strided{Count: s.count}
		if get {
			d.Src, d.Dst, d.SrcStride, d.DstStride = rBase, lBase, s.rStride, s.lStride
		} else {
			d.Src, d.Dst, d.SrcStride, d.DstStride = lBase, rBase, s.lStride, s.rStride
		}
		return ncDesc{s: d}
	}
	g := armci.GIOV{Bytes: s.seg, Src: make([]armci.Addr, len(s.remote)), Dst: make([]armci.Addr, len(s.remote))}
	for i := range s.remote {
		ra, la := rBase.Add(s.remote[i]), lBase.Add(s.local[i])
		if get {
			g.Src[i], g.Dst[i] = ra, la
		} else {
			g.Src[i], g.Dst[i] = la, ra
		}
	}
	return ncDesc{iov: []armci.GIOV{g}}
}

func issueNC(rt armci.Runtime, op string, d ncDesc, target int) error {
	switch op {
	case "puts":
		return rt.PutS(d.s)
	case "gets":
		return rt.GetS(d.s)
	case "accs":
		return rt.AccS(armci.AccDbl, 1.0, d.s)
	case "putv":
		return rt.PutV(d.iov, target)
	case "getv":
		return rt.GetV(d.iov, target)
	default:
		return rt.AccV(armci.AccDbl, 1.0, d.iov, target)
	}
}

// apply updates the model for a put or accumulate, or checks a get's
// result against it.
func (w *noncontigWL) apply(r *rep, c ncCall, model, dst []byte) {
	s := w.in.shape(c)
	for i, ro := range s.remote {
		m := model[c.off+ro : c.off+ro+s.seg]
		switch c.op[0] {
		case 'p':
			copy(m, w.pattern[c.src+s.local[i]:])
		case 'a':
			accModel(m, w.pattern[c.src+s.local[i]:])
		default:
			if !bytes.Equal(dst[s.local[i]:s.local[i]+s.seg], m) {
				r.mismatches++
				return
			}
		}
	}
}
