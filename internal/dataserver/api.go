package dataserver

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/armci"
	"repro/internal/fabric"
	"repro/internal/obs/profile"
	"repro/internal/sim"
)

// profBegin opens a profiler scope for one surface op; it returns the
// matching close func (or nil when profiling is off). The Nb* variants
// delegate to their blocking twins and are recorded as those.
func (r *Runtime) profBegin(op profile.Op) func() {
	pr := r.w.Obs.Prof()
	if pr == nil {
		return nil
	}
	rank := r.Rank()
	pr.Begin(rank, op)
	return func() { pr.End(rank) }
}

// Malloc collectively allocates globally accessible memory (world).
func (r *Runtime) Malloc(bytes int) ([]armci.Addr, error) { return r.mallocOn(nil, bytes) }

// MallocGroup allocates over a group.
func (r *Runtime) MallocGroup(g *armci.Group, bytes int) ([]armci.Addr, error) {
	if g == nil {
		return nil, fmt.Errorf("armci-ds: MallocGroup with nil group")
	}
	return r.mallocOn(g, bytes)
}

func (r *Runtime) mallocOn(g *armci.Group, bytes int) ([]armci.Addr, error) {
	if bytes < 0 {
		return nil, fmt.Errorf("armci-ds: Malloc(%d): negative size", bytes)
	}
	var va int64
	if bytes > 0 {
		// The server maps this memory into node-shared space; DomainNone
		// is appropriate — the data server, not the NIC, serves it.
		reg := r.w.M.Space(r.Rank()).Alloc(bytes, fabric.DomainNone, false)
		va = reg.VA
	}
	var vas []int64
	var members []int
	if g == nil {
		vas = r.coll.AllgatherI64([]int64{va, int64(bytes)})
		members = make([]int, r.Nprocs())
		for i := range members {
			members[i] = i
		}
	} else {
		vas = r.coll.GroupAllgatherI64(g.Impl, []int64{va, int64(bytes)})
		members = g.Ranks
	}
	a := &allocation{group: members, rankOf: map[int]int{},
		addrs: make([]armci.Addr, len(members)), sizes: make([]int, len(members))}
	for i, world := range members {
		a.rankOf[world] = i
		a.sizes[i] = int(vas[2*i+1])
		if a.sizes[i] > 0 {
			a.addrs[i] = armci.Addr{Rank: world, VA: vas[2*i]}
		}
	}
	if members[0] == r.Rank() {
		a.id = r.w.nextID
		r.w.nextID++
		r.w.allocs = append(r.w.allocs, a)
	}
	r.barrierOn(g)
	return append([]armci.Addr(nil), a.addrs...), nil
}

func (r *Runtime) barrierOn(g *armci.Group) {
	if g == nil {
		r.coll.Barrier()
	} else {
		r.coll.GroupBarrier(g.Impl)
	}
}

func (w *World) findAlloc(addr armci.Addr) *allocation {
	for _, a := range w.allocs {
		if gr, ok := a.rankOf[addr.Rank]; ok {
			base := a.addrs[gr]
			if !base.Nil() && addr.VA >= base.VA && addr.VA < base.VA+int64(a.sizes[gr]) {
				return a
			}
		}
	}
	return nil
}

// Free collectively releases a world allocation.
func (r *Runtime) Free(addr armci.Addr) error { return r.freeOn(nil, addr) }

// FreeGroup releases a group allocation.
func (r *Runtime) FreeGroup(g *armci.Group, addr armci.Addr) error { return r.freeOn(g, addr) }

func (r *Runtime) freeOn(g *armci.Group, addr armci.Addr) error {
	mine := int64(-1)
	if !addr.Nil() {
		mine = int64(r.Rank())
	}
	var gathered []int64
	if g == nil {
		gathered = r.coll.AllgatherI64([]int64{mine, addr.VA})
	} else {
		gathered = r.coll.GroupAllgatherI64(g.Impl, []int64{mine, addr.VA})
	}
	leader, leaderVA := int64(-1), int64(0)
	for i := 0; i < len(gathered)/2; i++ {
		if gathered[2*i] > leader {
			leader = gathered[2*i]
			leaderVA = gathered[2*i+1]
		}
	}
	if leader < 0 {
		return fmt.Errorf("armci-ds: Free: all processes passed NULL")
	}
	a := r.w.findAlloc(armci.Addr{Rank: int(leader), VA: leaderVA})
	if a == nil {
		return fmt.Errorf("armci-ds: Free: unknown allocation")
	}
	gr := a.rankOf[r.Rank()]
	if a.sizes[gr] > 0 {
		if err := r.w.M.Space(r.Rank()).Free(a.addrs[gr].VA); err != nil {
			return err
		}
	}
	r.barrierOn(g)
	if a.group[0] == r.Rank() {
		for i, e := range r.w.allocs {
			if e == a {
				r.w.allocs = append(r.w.allocs[:i], r.w.allocs[i+1:]...)
				break
			}
		}
	}
	return nil
}

// MallocLocal allocates plain local memory.
func (r *Runtime) MallocLocal(bytes int) armci.Addr {
	reg := r.w.M.Space(r.Rank()).Alloc(bytes, fabric.DomainNone, false)
	return armci.Addr{Rank: r.Rank(), VA: reg.VA}
}

// FreeLocal releases local memory.
func (r *Runtime) FreeLocal(addr armci.Addr) error {
	if addr.Rank != r.Rank() {
		return fmt.Errorf("armci-ds: FreeLocal of remote address %v", addr)
	}
	return r.w.M.Space(r.Rank()).Free(addr.VA)
}

// LocalBytes exposes local buffer memory.
func (r *Runtime) LocalBytes(addr armci.Addr, n int) ([]byte, error) {
	if addr.Rank != r.Rank() {
		return nil, fmt.Errorf("armci-ds: LocalBytes on remote address %v", addr)
	}
	reg, err := r.region(addr, n)
	if err != nil {
		return nil, err
	}
	return reg.Bytes(addr.VA, n), nil
}

// contigSegs builds the single-segment list for a contiguous transfer.
func (r *Runtime) contigSegs(src, dst armci.Addr, n int) ([]seg, error) {
	sreg, err := r.region(src, n)
	if err != nil {
		return nil, err
	}
	dreg, err := r.region(dst, n)
	if err != nil {
		return nil, err
	}
	return []seg{{srcVA: src.VA, dstVA: dst.VA, sreg: sreg, dreg: dreg, n: n}}, nil
}

// Put copies n bytes from the local src to the global dst.
func (r *Runtime) Put(src, dst armci.Addr, n int) error {
	if end := r.profBegin(profile.OpPut); end != nil {
		defer end()
	}
	if err := armci.CheckContig(src, dst, n); err != nil {
		return err
	}
	segs, err := r.contigSegs(src, dst, n)
	if err != nil {
		return err
	}
	return r.putSegs(segs, dst.Rank, false, 1)
}

// Get copies n bytes from the global src to the local dst.
func (r *Runtime) Get(src, dst armci.Addr, n int) error {
	if end := r.profBegin(profile.OpGet); end != nil {
		defer end()
	}
	if err := armci.CheckContig(src, dst, n); err != nil {
		return err
	}
	segs, err := r.contigSegs(src, dst, n)
	if err != nil {
		return err
	}
	return r.getSegs(segs, src.Rank)
}

// Acc applies dst += scale*src on float64 elements.
func (r *Runtime) Acc(op armci.AccOp, scale float64, src, dst armci.Addr, n int) error {
	if end := r.profBegin(profile.OpAcc); end != nil {
		defer end()
	}
	if err := armci.CheckContig(src, dst, n); err != nil {
		return err
	}
	if n%8 != 0 {
		return fmt.Errorf("armci-ds: Acc size %d not a multiple of 8", n)
	}
	segs, err := r.contigSegs(src, dst, n)
	if err != nil {
		return err
	}
	return r.putSegs(segs, dst.Rank, true, scale)
}

// resolveStrided expands a strided descriptor into segments.
func (r *Runtime) resolveStrided(s *armci.Strided) ([]seg, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	sreg, err := r.region(s.Src, s.SrcSpan())
	if err != nil {
		return nil, err
	}
	dreg, err := r.region(s.Dst, s.DstSpan())
	if err != nil {
		return nil, err
	}
	segs := make([]seg, 0, s.Segments())
	s.Iterate(func(so, do int) {
		segs = append(segs, seg{
			srcVA: s.Src.VA + int64(so), dstVA: s.Dst.VA + int64(do),
			sreg: sreg, dreg: dreg, n: s.SegBytes(),
		})
	})
	return segs, nil
}

// PutS performs a strided put (the whole descriptor in one exchange —
// the data server unpacks it, which is this design's noncontiguous
// advantage).
func (r *Runtime) PutS(s *armci.Strided) error {
	if end := r.profBegin(profile.OpPutS); end != nil {
		defer end()
	}
	segs, err := r.resolveStrided(s)
	if err != nil {
		return err
	}
	return r.putSegs(segs, s.Dst.Rank, false, 1)
}

// GetS performs a strided get.
func (r *Runtime) GetS(s *armci.Strided) error {
	if end := r.profBegin(profile.OpGetS); end != nil {
		defer end()
	}
	segs, err := r.resolveStrided(s)
	if err != nil {
		return err
	}
	return r.getSegs(segs, s.Src.Rank)
}

// AccS performs a strided accumulate.
func (r *Runtime) AccS(op armci.AccOp, scale float64, s *armci.Strided) error {
	if end := r.profBegin(profile.OpAccS); end != nil {
		defer end()
	}
	if s.SegBytes()%8 != 0 {
		return fmt.Errorf("armci-ds: AccS segment size %d not float64-aligned", s.SegBytes())
	}
	segs, err := r.resolveStrided(s)
	if err != nil {
		return err
	}
	return r.putSegs(segs, s.Dst.Rank, true, scale)
}

// resolveIOV expands IOV descriptors into segments.
func (r *Runtime) resolveIOV(iov []armci.GIOV, proc int, remoteIsSrc bool) ([]seg, error) {
	if err := armci.ValidateIOV(iov, proc, remoteIsSrc); err != nil {
		return nil, err
	}
	var segs []seg
	for gi := range iov {
		g := &iov[gi]
		for i := range g.Src {
			sreg, err := r.region(g.Src[i], g.Bytes)
			if err != nil {
				return nil, err
			}
			dreg, err := r.region(g.Dst[i], g.Bytes)
			if err != nil {
				return nil, err
			}
			segs = append(segs, seg{srcVA: g.Src[i].VA, dstVA: g.Dst[i].VA,
				sreg: sreg, dreg: dreg, n: g.Bytes})
		}
	}
	return segs, nil
}

// PutV performs a generalized I/O vector put.
func (r *Runtime) PutV(iov []armci.GIOV, proc int) error {
	if end := r.profBegin(profile.OpPutV); end != nil {
		defer end()
	}
	segs, err := r.resolveIOV(iov, proc, false)
	if err != nil {
		return err
	}
	return r.putSegs(segs, proc, false, 1)
}

// GetV performs a generalized I/O vector get.
func (r *Runtime) GetV(iov []armci.GIOV, proc int) error {
	if end := r.profBegin(profile.OpGetV); end != nil {
		defer end()
	}
	segs, err := r.resolveIOV(iov, proc, true)
	if err != nil {
		return err
	}
	return r.getSegs(segs, proc)
}

// AccV performs a generalized I/O vector accumulate.
func (r *Runtime) AccV(op armci.AccOp, scale float64, iov []armci.GIOV, proc int) error {
	if end := r.profBegin(profile.OpAccV); end != nil {
		defer end()
	}
	for i := range iov {
		if iov[i].Bytes%8 != 0 {
			return fmt.Errorf("armci-ds: AccV segment size %d not float64-aligned", iov[i].Bytes)
		}
	}
	segs, err := r.resolveIOV(iov, proc, false)
	if err != nil {
		return err
	}
	return r.putSegs(segs, proc, true, scale)
}

// completed is a trivially complete nonblocking handle: puts complete
// locally at issue, and the data server protocol makes gets blocking.
type completed struct{}

func (completed) Wait()      {}
func (completed) Test() bool { return true }

// NbPut issues a put; local completion is immediate (buffered send).
func (r *Runtime) NbPut(src, dst armci.Addr, n int) (armci.Handle, error) {
	if err := r.Put(src, dst, n); err != nil {
		return nil, err
	}
	return completed{}, nil
}

// NbGet issues a get; the two-sided protocol completes it eagerly.
func (r *Runtime) NbGet(src, dst armci.Addr, n int) (armci.Handle, error) {
	if err := r.Get(src, dst, n); err != nil {
		return nil, err
	}
	return completed{}, nil
}

// NbPutS issues a strided put.
func (r *Runtime) NbPutS(s *armci.Strided) (armci.Handle, error) {
	if err := r.PutS(s); err != nil {
		return nil, err
	}
	return completed{}, nil
}

// NbGetS issues a strided get.
func (r *Runtime) NbGetS(s *armci.Strided) (armci.Handle, error) {
	if err := r.GetS(s); err != nil {
		return nil, err
	}
	return completed{}, nil
}

// NbAcc issues an accumulate (buffered at issue, locally complete).
func (r *Runtime) NbAcc(op armci.AccOp, scale float64, src, dst armci.Addr, n int) (armci.Handle, error) {
	if err := r.Acc(op, scale, src, dst, n); err != nil {
		return nil, err
	}
	return completed{}, nil
}

// NbAccS issues a strided accumulate.
func (r *Runtime) NbAccS(op armci.AccOp, scale float64, s *armci.Strided) (armci.Handle, error) {
	if err := r.AccS(op, scale, s); err != nil {
		return nil, err
	}
	return completed{}, nil
}

// NbPutV issues an I/O vector put.
func (r *Runtime) NbPutV(iov []armci.GIOV, proc int) (armci.Handle, error) {
	if err := r.PutV(iov, proc); err != nil {
		return nil, err
	}
	return completed{}, nil
}

// NbGetV issues an I/O vector get (eagerly complete, two-sided).
func (r *Runtime) NbGetV(iov []armci.GIOV, proc int) (armci.Handle, error) {
	if err := r.GetV(iov, proc); err != nil {
		return nil, err
	}
	return completed{}, nil
}

// NbAccV issues an I/O vector accumulate.
func (r *Runtime) NbAccV(op armci.AccOp, scale float64, iov []armci.GIOV, proc int) (armci.Handle, error) {
	if err := r.AccV(op, scale, iov, proc); err != nil {
		return nil, err
	}
	return completed{}, nil
}

// Fence blocks until operations to proc are remotely complete.
func (r *Runtime) Fence(proc int) {
	r.w.M.SleepUntil(r.p, r.w.lastRemote[r.Rank()][proc])
}

// AllFence fences every target.
func (r *Runtime) AllFence() {
	var last sim.Time
	for _, t := range r.w.lastRemote[r.Rank()] {
		if t > last {
			last = t
		}
	}
	r.w.M.SleepUntil(r.p, last)
}

// Barrier fences and synchronizes all processes.
func (r *Runtime) Barrier() {
	r.AllFence()
	r.coll.Barrier()
}

// Rmw performs an atomic read-modify-write, served (and therefore
// trivially serialized) by the target's data server.
func (r *Runtime) Rmw(op armci.RmwOp, addr armci.Addr, operand int64) (int64, error) {
	if end := r.profBegin(profile.OpRmw); end != nil {
		defer end()
	}
	if addr.Nil() {
		return 0, fmt.Errorf("armci-ds: Rmw on NULL address")
	}
	r.opCost()
	reg, err := r.region(addr, 8)
	if err != nil {
		return 0, err
	}
	m := r.w.M
	eng := m.Eng
	p := r.p
	me := r.Rank()
	node := m.NodeOf(addr.Rank)
	arrive := m.SendDataAsync(me, addr.Rank, 0, fabric.XferOpt{NoNIC: true})
	start, served := r.w.serve(node, arrive, 8, 0)
	pr := r.w.Obs.Prof()
	if pr != nil {
		pr.PhaseAt(me, profile.PhaseTargetQueue, arrive, start)
		pr.PhaseAt(me, profile.PhaseTargetProc, start, served)
		pr.Send(me, addr.Rank, profile.MsgAmo, profile.RouteDS, 8)
	}
	var old int64
	done := false
	va := addr.VA
	eng.At(served, func() {
		if pr != nil {
			pr.Recv(me, addr.Rank, profile.MsgAmo, profile.RouteDS, 8)
		}
		b := reg.Bytes(va, 8)
		old = int64(binary.LittleEndian.Uint64(b))
		switch op {
		case armci.FetchAndAdd:
			binary.LittleEndian.PutUint64(b, uint64(old+operand))
		case armci.Swap:
			binary.LittleEndian.PutUint64(b, uint64(operand))
		}
		back := m.SendDataAsync(addr.Rank, me, 0, fabric.XferOpt{NoNIC: true})
		eng.At(back, func() {
			done = true
			eng.Unpark(p)
		})
	})
	for !done {
		p.Park("armci-ds.Rmw")
	}
	return old, nil
}

// mutexHost mirrors the native implementation's server-side queues;
// here the data server itself plays the arbiter.
type mutexHost struct {
	counts []int
	held   map[[2]int]bool
	queue  map[[2]int][]*mutexWaiter
}

type mutexWaiter struct {
	p   *sim.Proc
	got bool
	eng *sim.Engine
}

func (w *mutexWaiter) grant() {
	w.got = true
	w.eng.Unpark(w.p)
}

type mutexSet struct {
	r    *Runtime
	host *mutexHost
}

// CreateMutexes collectively creates n mutexes hosted on the caller.
func (r *Runtime) CreateMutexes(n int) (armci.Mutexes, error) {
	if n < 0 {
		return nil, fmt.Errorf("armci-ds: CreateMutexes(%d)", n)
	}
	counts := r.coll.AllgatherI64([]int64{int64(n)})
	h := &mutexHost{counts: make([]int, len(counts)),
		held: map[[2]int]bool{}, queue: map[[2]int][]*mutexWaiter{}}
	for i, c := range counts {
		h.counts[i] = int(c)
	}
	if r.Rank() == 0 {
		r.w.mutexes = append(r.w.mutexes, h)
	} else {
		h = nil
	}
	r.coll.Barrier()
	if h == nil {
		h = r.w.mutexes[len(r.w.mutexes)-1]
	}
	return &mutexSet{r: r, host: h}, nil
}

// Lock acquires mutex mtx hosted on proc.
func (s *mutexSet) Lock(mtx, proc int) {
	r := s.r
	if mtx < 0 || mtx >= s.host.counts[proc] {
		panic(fmt.Sprintf("armci-ds: Lock(%d,%d): invalid mutex", mtx, proc))
	}
	r.opCost()
	m := r.w.M
	eng := m.Eng
	key := [2]int{proc, mtx}
	w := &mutexWaiter{p: r.p, eng: eng}
	arrive := m.SendDataAsync(r.Rank(), proc, 0, fabric.XferOpt{NoNIC: true})
	_, served := r.w.serve(m.NodeOf(proc), arrive, 0, 0)
	me := r.Rank()
	eng.At(served, func() {
		if !s.host.held[key] {
			s.host.held[key] = true
			back := m.SendDataAsync(proc, me, 0, fabric.XferOpt{NoNIC: true})
			eng.At(back, w.grant)
		} else {
			s.host.queue[key] = append(s.host.queue[key], w)
		}
	})
	for !w.got {
		r.p.Park("armci-ds.MutexLock")
	}
}

// Unlock releases mutex mtx on proc.
func (s *mutexSet) Unlock(mtx, proc int) {
	r := s.r
	r.opCost()
	m := r.w.M
	eng := m.Eng
	key := [2]int{proc, mtx}
	arrive := m.SendDataAsync(r.Rank(), proc, 0, fabric.XferOpt{NoNIC: true})
	_, served := r.w.serve(m.NodeOf(proc), arrive, 0, 0)
	eng.At(served, func() {
		q := s.host.queue[key]
		if len(q) == 0 {
			s.host.held[key] = false
			return
		}
		next := q[0]
		s.host.queue[key] = q[1:]
		relAt := eng.Now()
		by := r.Rank()
		back := m.SendDataAsync(proc, next.p.ID(), 0, fabric.XferOpt{NoNIC: true})
		eng.At(back, func() {
			// Critical path: the waiter's lock wait ends because this
			// rank released the mutex at relAt.
			if c := m.Obs.Crit(); c != nil {
				c.WakeGrant(next.p.ID(), by, relAt)
			}
			next.grant()
		})
	})
}

// Destroy collectively frees the mutex set.
func (s *mutexSet) Destroy() error {
	s.r.coll.Barrier()
	return nil
}

// AccessBegin grants direct access (node-shared memory, coherent).
func (r *Runtime) AccessBegin(addr armci.Addr, n int) ([]byte, error) {
	if addr.Rank != r.Rank() {
		return nil, fmt.Errorf("armci-ds: AccessBegin on remote address %v", addr)
	}
	reg, err := r.region(addr, n)
	if err != nil {
		return nil, err
	}
	r.dla[addr.VA] = true
	return reg.Bytes(addr.VA, n), nil
}

// AccessEnd completes a direct access section.
func (r *Runtime) AccessEnd(addr armci.Addr) error {
	if !r.dla[addr.VA] {
		return fmt.Errorf("armci-ds: AccessEnd without AccessBegin at %v", addr)
	}
	delete(r.dla, addr.VA)
	return nil
}

// SetAccessMode accepts the hint; nothing to relax on this backend.
func (r *Runtime) SetAccessMode(mode armci.AccessMode, addr armci.Addr) error {
	r.AllFence()
	r.coll.Barrier()
	return nil
}

// GroupCreateCollective creates a processor group (all world ranks call).
func (r *Runtime) GroupCreateCollective(members []int) (*armci.Group, error) {
	ms := sortedUnique(members)
	impl := r.coll.GroupComm(ms, true)
	if impl == nil {
		return nil, nil
	}
	return &armci.Group{Ranks: ms, Impl: impl}, nil
}

// GroupCreate creates a group noncollectively (members only).
func (r *Runtime) GroupCreate(members []int) (*armci.Group, error) {
	ms := sortedUnique(members)
	impl := r.coll.GroupComm(ms, false)
	return &armci.Group{Ranks: ms, Impl: impl}, nil
}

func sortedUnique(members []int) []int {
	ms := append([]int(nil), members...)
	sort.Ints(ms)
	out := ms[:0]
	for i, v := range ms {
		if i == 0 || v != ms[i-1] {
			out = append(out, v)
		}
	}
	return out
}
