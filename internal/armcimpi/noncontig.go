package armcimpi

import (
	"fmt"

	"repro/internal/armci"
	"repro/internal/fabric"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/obs/profile"
)

// Profiler op classification per surface shape, indexed by OpClass.
var (
	profStridedOp   = [3]profile.Op{ClassGet: profile.OpGetS, ClassPut: profile.OpPutS, ClassAcc: profile.OpAccS}
	profIOVOp       = [3]profile.Op{ClassGet: profile.OpGetV, ClassPut: profile.OpPutV, ClassAcc: profile.OpAccV}
	profNbStridedOp = [3]profile.Op{ClassGet: profile.OpNbGetS, ClassPut: profile.OpNbPutS, ClassAcc: profile.OpNbAccS}
	profNbIOVOp     = [3]profile.Op{ClassGet: profile.OpNbGetV, ClassPut: profile.OpNbPutV, ClassAcc: profile.OpNbAccV}
)

// stridedMethod resolves the configured strided strategy.
func (r *Runtime) stridedMethod() Method {
	switch r.Opt.StridedMethod {
	case MethodDirect, MethodIOVDirect, MethodBatched, MethodConservative:
		return r.Opt.StridedMethod
	case MethodAuto:
		return MethodDirect // strided descriptors cannot self-overlap
	default:
		return MethodDirect
	}
}

// PutS performs a strided put using the configured method.
func (r *Runtime) PutS(s *armci.Strided) error { return r.strided(ClassPut, 1, s) }

// GetS performs a strided get using the configured method.
func (r *Runtime) GetS(s *armci.Strided) error { return r.strided(ClassGet, 1, s) }

// AccS performs a strided accumulate (dst += scale*src).
func (r *Runtime) AccS(op armci.AccOp, scale float64, s *armci.Strided) error {
	if s.SegBytes()%8 != 0 {
		return fmt.Errorf("armcimpi: AccS segment size %d not float64-aligned", s.SegBytes())
	}
	return r.strided(ClassAcc, scale, s)
}

func (r *Runtime) strided(class OpClass, scale float64, s *armci.Strided) error {
	if err := s.Validate(); err != nil {
		return err
	}
	t0 := r.R.P.Now()
	if pr := r.obs().Prof(); pr != nil {
		pr.Begin(r.Rank(), profStridedOp[class])
		defer pr.End(r.Rank())
	}
	local, remote := s.Src, s.Dst
	if class == ClassGet {
		local, remote = s.Dst, s.Src
	}
	rt := r.decide(RouteRequest{Class: class, Shape: ShapeStrided,
		Local: local, Remote: remote, Target: remote.Rank, Bytes: s.TotalBytes()})
	p, err := r.compileStrided(class, scale, s, rt)
	if err != nil {
		return err
	}
	if err := r.execute(p); err != nil {
		return err
	}
	name := "puts"
	switch class {
	case ClassGet:
		name = "gets"
	case ClassAcc:
		name = "accs"
	}
	if o := r.obs(); o.Tracing() {
		o.Span(r.Rank(), "armci", name, t0, r.R.P.Now(),
			obs.A("method", rt.dec.Method.String()), obs.A("seg", s.SegBytes()))
	}
	return nil
}

// stridedTypeCached is stridedType behind the runtime's small memo
// ring: repeated transfers with the same stride/count shape get the
// same Datatype back, so its flatten cache survives across operations.
func (r *Runtime) stridedTypeCached(stride, count []int) mpi.Datatype {
	for i := range r.dtMemo {
		e := &r.dtMemo[i]
		if e.t != nil && eqInts(e.stride, stride) && eqInts(e.count, count) {
			return e.t
		}
	}
	t := stridedType(stride, count)
	r.dtMemo[r.dtNext] = dtEntry{
		stride: append([]int(nil), stride...),
		count:  append([]int(nil), count...),
		t:      t,
	}
	r.dtNext = (r.dtNext + 1) % len(r.dtMemo)
	return t
}

func eqInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// stridedType builds the MPI datatype for one side of a strided
// transfer: the SectionVI.C subarray translation when strides nest
// evenly, an indexed type otherwise.
func stridedType(stride, count []int) mpi.Datatype {
	if sizes, subsizes, starts, ok := subarrayFor(stride, count); ok {
		return mpi.TypeSubarray(sizes, subsizes, starts, 1)
	}
	// Fallback: enumerate segments (Algorithm 1) into an indexed type.
	sl := len(count) - 1
	segs := 1
	for _, c := range count[1:] {
		segs *= c
	}
	offs := make([]int, 0, segs)
	lens := make([]int, 0, segs)
	idx := make([]int, sl)
	for done := false; !done; {
		off := 0
		for i := 0; i < sl; i++ {
			off += stride[i] * idx[i]
		}
		offs = append(offs, off)
		lens = append(lens, count[0])
		done = true
		for i := 0; i < sl; i++ {
			idx[i]++
			if idx[i] < count[i+1] {
				done = false
				break
			}
			idx[i] = 0
		}
	}
	return mpi.TypeIndexed(offs, lens)
}

func subarrayFor(stride, count []int) (sizes, subsizes, starts []int, ok bool) {
	s := armci.Strided{SrcStride: stride, DstStride: stride, Count: count}
	return s.SrcSubarray()
}

// prescale produces a dense buffer holding scale*src for an arbitrary
// origin datatype.
func (r *Runtime) prescale(v *localView, baseVA int64, t mpi.Datatype, scale float64) (*fabric.Region, error) {
	n := t.Size()
	out := r.R.AllocMem(n)
	m := r.W.Mpi.M
	m.CopyLocal(r.R.P, n)
	m.Compute(r.R.P, float64(n/8))
	src := v.reg.Bytes(v.reg.VA+(baseVA-v.base), t.Span())
	// Pack through the flatten cache, scaling each run straight into
	// the dense output.
	dst := out.Backing()
	pos := 0
	for _, s := range mpi.Flatten(t).Segs {
		fabric.ReduceF64(fabric.F64Replace, dst[pos:pos+s.N], src[s.Off:s.Off+s.N], scale)
		pos += s.N
	}
	return out, nil
}

// PutV performs a generalized I/O vector put to proc.
func (r *Runtime) PutV(iov []armci.GIOV, proc int) error {
	return r.iov(ClassPut, 1, iov, proc)
}

// GetV performs a generalized I/O vector get from proc.
func (r *Runtime) GetV(iov []armci.GIOV, proc int) error {
	return r.iov(ClassGet, 1, iov, proc)
}

// AccV performs a generalized I/O vector accumulate to proc.
func (r *Runtime) AccV(op armci.AccOp, scale float64, iov []armci.GIOV, proc int) error {
	if err := checkAccIOV(iov); err != nil {
		return err
	}
	return r.iov(ClassAcc, scale, iov, proc)
}

// iovBytes is the total payload of a generalized I/O vector.
func iovBytes(iov []armci.GIOV) int {
	n := 0
	for i := range iov {
		n += len(iov[i].Src) * iov[i].Bytes
	}
	return n
}

func checkAccIOV(iov []armci.GIOV) error {
	for i := range iov {
		if iov[i].Bytes%8 != 0 {
			return fmt.Errorf("armcimpi: AccV segment size %d not float64-aligned", iov[i].Bytes)
		}
	}
	return nil
}

// iovSeg is one segment with local/remote orientation resolved.
type iovSeg struct {
	local, remote armci.Addr
	n             int
}

func orient(iov []armci.GIOV, class OpClass) []iovSeg {
	var segs []iovSeg
	for gi := range iov {
		g := &iov[gi]
		for i := range g.Src {
			s := iovSeg{local: g.Src[i], remote: g.Dst[i], n: g.Bytes}
			if class == ClassGet {
				s.local, s.remote = g.Dst[i], g.Src[i]
			}
			segs = append(segs, s)
		}
	}
	return segs
}

// iov compiles and executes an IOV operation with the routed method
// (SectionVI.A).
func (r *Runtime) iov(class OpClass, scale float64, iov []armci.GIOV, proc int) error {
	if pr := r.obs().Prof(); pr != nil {
		pr.Begin(r.Rank(), profIOVOp[class])
		defer pr.End(r.Rank())
	}
	rt := r.decide(RouteRequest{Class: class, Shape: ShapeIOV, Target: proc, Bytes: iovBytes(iov)})
	p, err := r.compileIOV(class, scale, iov, proc, rt)
	if err != nil {
		return err
	}
	return r.execute(p)
}
