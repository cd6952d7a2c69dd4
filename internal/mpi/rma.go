package mpi

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/internal/obs/profile"
	"repro/internal/sim"
)

// LockType selects the passive-target access mode.
type LockType int

const (
	LockShared LockType = iota
	LockExclusive
)

func (lt LockType) String() string {
	if lt == LockExclusive {
		return "exclusive"
	}
	return "shared"
}

type opKind int

const (
	opGet opKind = iota
	opPut
	opAcc
)

func (k opKind) writes() bool { return k != opGet }

// rng is a byte range [Lo,Hi) touched at a target, with the access kind.
type rng struct {
	lo, hi int
	kind   opKind
	op     Op // for opAcc: same-op accumulates may overlap
}

func (a rng) overlaps(b rng) bool { return a.lo < b.hi && b.lo < a.hi }

func (a rng) conflicts(b rng) bool {
	if !a.overlaps(b) {
		return false
	}
	if !a.kind.writes() && !b.kind.writes() {
		return false // concurrent reads are fine
	}
	if a.kind == opAcc && b.kind == opAcc && a.op == b.op {
		return false // same-op accumulates may overlap (MPI-2 7.4.2)
	}
	return true
}

// activeEpoch is the target-side record of one origin's open epoch,
// used for cross-origin conflict detection under shared locks.
type activeEpoch struct {
	originWorld int
	ltype       LockType
	ranges      []rng
}

type lockWaiter struct {
	originWorld int
	ltype       LockType
	// grant hands the lock over at time at; by is the world rank whose
	// release made the grant possible (-1 for an uncontended direct
	// grant), feeding the critical-path wait-chain attribution.
	grant func(at sim.Time, by int)
}

// targetLock arbitrates passive-target access to one window rank.
type targetLock struct {
	holders []*activeEpoch // currently granted epochs
	queue   []lockWaiter   // FIFO waiters
	// accBusy serializes target-side accumulate processing, modeling
	// the agent/NIC that applies reductions.
	accBusy sim.Time
}

func (t *targetLock) heldExclusive() bool {
	return len(t.holders) == 1 && t.holders[0].ltype == LockExclusive
}

func (t *targetLock) grantable(lt LockType) bool {
	if len(t.holders) == 0 {
		return len(t.queue) == 0
	}
	if t.heldExclusive() || lt == LockExclusive {
		return false
	}
	// Shared request with shared holders: grant only if no exclusive
	// request is queued ahead (prevents writer starvation).
	return len(t.queue) == 0
}

func (t *targetLock) find(originWorld int) *activeEpoch {
	for _, h := range t.holders {
		if h.originWorld == originWorld {
			return h
		}
	}
	return nil
}

// winState is the shared (cross-rank) state of one window.
type winState struct {
	id      int
	w       *World
	group   []int // window rank -> world rank
	regions []*fabric.Region
	sizes   []int
	locks   []*targetLock
	err     error // first asynchronous semantic violation
	freed   bool

	// Win_allocate_shared flavor: same-node ranks map each other's
	// regions directly and RMA to them degenerates to memcpys.
	shared bool
	segs   map[int]*fabric.ShmSegment // node -> segment
}

func (ws *winState) setErr(err error) {
	if ws.err == nil {
		ws.err = err
	}
}

// lockAt returns target's arbitration state, materializing it on first
// use — most targets of a large window are never locked by anyone.
func (ws *winState) lockAt(target int) *targetLock {
	if ws.locks[target] == nil {
		ws.locks[target] = &targetLock{}
	}
	return ws.locks[target]
}

// Win is one rank's handle on a window.
type Win struct {
	state *winState
	comm  *Comm
	rank  int // window rank

	cur *epoch         // at most one open epoch per window per origin (MPI-2)
	all map[int]*epoch // lock-all mode accounting (MPI-3); nil when inactive
}

// epoch is the origin-side record of an open access epoch.
type epoch struct {
	target     int // window rank
	ltype      LockType
	nops       int
	openedAt   sim.Time // grant time, for epoch trace spans
	completeAt sim.Time
	ranges     []rng // target ranges touched, for same-epoch checking
	active     *activeEpoch
	relaxed    bool // MPI-3 lock-all: conflicts are undefined, not errors
}

// LocalBuf names an origin-side buffer for RMA: a region, a byte
// offset into it, and a datatype describing the layout from there.
type LocalBuf struct {
	Region *fabric.Region
	Off    int
	Type   Datatype
}

// WinCreate collectively creates a window over comm; each rank exposes
// region (which may be nil or zero-length for no local exposure). The
// window's memory is registered with the interconnect at creation, as
// MPI_Win_create does.
func WinCreate(comm *Comm, region *fabric.Region) (*Win, error) {
	return winCreate(comm, region, false)
}

// WinCreateShared creates a window with MPI_Win_allocate_shared
// semantics: ranks sharing a node attach their regions to a per-node
// shared segment, so RMA between them degenerates to direct load/store
// (see SharedQuery), while cross-node access keeps the ordinary RMA
// path. Creation cost is identical to WinCreate — the memory is still
// exposed (and registered) for remote ranks.
func WinCreateShared(comm *Comm, region *fabric.Region) (*Win, error) {
	return winCreate(comm, region, true)
}

func winCreate(comm *Comm, region *fabric.Region, shared bool) (*Win, error) {
	r := comm.r
	w := r.W
	var sz int64
	if region != nil {
		sz = int64(region.Len)
	}
	var id int
	if comm.Size() >= BigCommThreshold {
		// Large windows: gather the sizes at rank 0 instead of
		// allgathering — the N-entry size table exists once, on the rank
		// that builds the shared window state, not on all N lock-stepped
		// ranks at once. Rank 0 must build the state before broadcasting
		// the id, since peers look it up as soon as the id arrives.
		parts := comm.Gather(0, i64sToBytes([]int64{sz}))
		if comm.rank == 0 {
			id = w.nextWin
			w.nextWin++
			ws := newWinState(id, w, comm, shared)
			for i, p := range parts {
				ws.sizes[i] = int(bytesToI64s(p)[0])
			}
			w.wins[id] = ws
		}
		id = int(comm.bcastI64(0, []int64{int64(id)})[0])
	} else {
		// Rank 0 allocates the window id; bcast carries real cost.
		if comm.rank == 0 {
			id = w.nextWin
			w.nextWin++
		}
		id = int(comm.bcastI64(0, []int64{int64(id)})[0])
		// Exchange sizes (the allgather is part of MPI_Win_create's cost).
		sizes := comm.allgatherI64([]int64{sz})
		if _, ok := w.wins[id]; !ok {
			ws := newWinState(id, w, comm, shared)
			for i := range ws.sizes {
				ws.sizes[i] = int(sizes[i])
			}
			w.wins[id] = ws
		}
	}
	ws := w.wins[id]
	ws.regions[comm.rank] = region
	if ws.shared && region != nil && region.Len > 0 {
		node := w.M.NodeOf(r.ID())
		seg := ws.segs[node]
		if seg == nil {
			seg = w.M.NewShmSegment(node)
			ws.segs[node] = seg
		}
		if err := seg.Attach(r.ID(), region); err != nil {
			return nil, err
		}
	}
	// Register the exposed memory with the device (charged here).
	if region != nil && region.Len > 0 {
		r.P.Elapse(w.M.PinCost(region, fabric.DomainMPI))
	}
	comm.Barrier()
	return &Win{state: ws, comm: comm, rank: comm.rank}, nil
}

// newWinState builds the shared window state skeleton. The group slice
// is shared with the creating communicator (window groups are
// immutable); target locks materialize lazily via lockAt.
func newWinState(id int, w *World, comm *Comm, shared bool) *winState {
	ws := &winState{
		id:      id,
		w:       w,
		group:   comm.group,
		regions: make([]*fabric.Region, comm.Size()),
		sizes:   make([]int, comm.Size()),
		locks:   make([]*targetLock, comm.Size()),
		shared:  shared,
	}
	if shared {
		ws.segs = map[int]*fabric.ShmSegment{}
	}
	return ws
}

// Shared reports whether the window was created with
// Win_allocate_shared semantics.
func (w *Win) Shared() bool { return w.state.shared }

// SharedQuery returns the directly-addressable region of a same-node
// target in a shared window (MPI_Win_shared_query). The second result
// is false for cross-node targets, non-shared windows, or targets
// exposing no memory.
func (w *Win) SharedQuery(target int) (*fabric.Region, bool) {
	ws := w.state
	if !ws.shared || target < 0 || target >= len(ws.group) {
		return nil, false
	}
	tw := ws.group[target]
	me := w.comm.r.ID()
	if !ws.w.M.SameNode(me, tw) {
		return nil, false
	}
	seg := ws.segs[ws.w.M.NodeOf(me)]
	if seg == nil {
		return nil, false
	}
	reg := seg.RegionOf(tw)
	if reg == nil {
		return nil, false
	}
	return reg, true
}

// shmFast reports whether ops on target can take the intra-node
// shared-memory path.
func (w *Win) shmFast(target int) bool {
	_, ok := w.SharedQuery(target)
	return ok
}

// shmLatency is the cost of one shared-segment synchronization step
// (lock-word CAS, release store): a node-local memory round trip.
func (w *Win) shmLatency() sim.Time {
	return sim.FromSeconds(w.state.w.M.Par.LocalLatencyNs / 1e9)
}

// Free collectively destroys the window. All epochs must be closed.
func (w *Win) Free() error {
	if w.cur != nil {
		return fmt.Errorf("mpi: Win.Free with open epoch on target %d", w.cur.target)
	}
	w.comm.Barrier()
	if w.rank == 0 {
		w.state.freed = true
	}
	err := w.state.err
	return err
}

// Size returns the exposed byte count of the given window rank.
func (w *Win) Size(rank int) int { return w.state.sizes[rank] }

// LocalRegion returns the memory this rank exposes in the window.
func (w *Win) LocalRegion() *fabric.Region { return w.state.regions[w.rank] }

// Comm returns the communicator the window was created over.
func (w *Win) Comm() *Comm { return w.comm }

// control returns the arrival time of a minimal control message from
// the calling rank to a world rank, charging per-message overhead.
// When the MPI library runs without asynchronous progress, the target
// only services the request once it re-enters the library; the average
// wait is modeled by the tuning's NoProgressDelayNs (SectionV.F).
func (r *Rank) control(toWorld int) sim.Time {
	m := r.W.M
	at := m.SendDataAsync(r.ID(), toWorld, 0, fabric.XferOpt{NoNIC: true})
	return at + r.progressDelay()
}

// progressDelay is the target-side service delay without async progress.
func (r *Rank) progressDelay() sim.Time {
	return sim.FromSeconds(r.W.Tun.NoProgressDelayNs / 1e9)
}

// Lock opens a passive-target access epoch on target (a window rank).
// MPI-2 permits at most one epoch per window per origin; violating
// that returns an error (the restriction ARMCI-MPI's global-buffer
// staging exists to respect).
func (w *Win) Lock(lt LockType, target int) error {
	if w.cur != nil {
		return fmt.Errorf("mpi: Win.Lock(%v,%d): window already locked (target %d); MPI-2 forbids multiple epochs per window",
			lt, target, w.cur.target)
	}
	if w.all != nil {
		return fmt.Errorf("mpi: Win.Lock(%v,%d) while in lock-all mode is erroneous", lt, target)
	}
	if target < 0 || target >= len(w.state.group) {
		return fmt.Errorf("mpi: Win.Lock: bad target %d", target)
	}
	r := w.comm.r
	reqAt := r.P.Now()
	r.opOverhead()
	ws := w.state
	tl := ws.lockAt(target)
	targetWorld := ws.group[target]
	eng := r.W.M.Eng
	p := r.P

	shm := w.shmFast(target)
	notify := r.W.M.RoundTripTime(targetWorld, r.ID()) / 2
	if shm {
		// The lock word lives in the shared segment: acquiring it is a
		// node-local CAS, with no control message and no target-side
		// progress needed. Arbitration (shared/exclusive, FIFO queue) is
		// unchanged.
		notify = w.shmLatency()
	}
	ep := &epoch{target: target, ltype: lt}
	w.cur = ep
	granted := false
	grant := func(at sim.Time, by int) {
		ae := &activeEpoch{originWorld: r.ID(), ltype: lt}
		ep.active = ae
		tl.holders = append(tl.holders, ae)
		// Grant notification travels back to the origin.
		eng.At(at+notify, func() {
			granted = true
			if by >= 0 {
				// A queued grant: name the releasing rank as the edge
				// that ends the origin's lock wait.
				if c := r.W.Obs.Crit(); c != nil {
					c.WakeGrant(p.ID(), by, at)
				}
			}
			eng.Unpark(p)
		})
	}
	arrive := p.Now()
	if !shm {
		arrive = r.control(targetWorld)
	}
	eng.At(arrive, func() {
		if tl.grantable(lt) {
			grant(eng.Now(), -1)
		} else {
			tl.queue = append(tl.queue, lockWaiter{originWorld: r.ID(), ltype: lt, grant: grant})
		}
	})
	for !granted {
		p.Park("mpi.WinLock")
	}
	ep.openedAt = p.Now()
	ep.completeAt = p.Now()
	r.W.Epochs++
	if lt == LockShared {
		r.W.SharedEpochs++
	} else {
		r.W.ExclEpochs++
	}
	o := r.W.Obs
	wait := p.Now() - reqAt
	if lt == LockShared {
		o.AddTime(r.ID(), obs.TLockWaitShared, wait)
	} else {
		o.AddTime(r.ID(), obs.TLockWaitExcl, wait)
	}
	o.Observe(r.ID(), obs.HLockWait, wait)
	o.Inc(r.ID(), obs.CEpochs)
	if pr := o.Prof(); pr != nil {
		pr.PhaseAt(r.ID(), profile.PhaseLockWait, reqAt, p.Now())
	}
	if o.Tracing() {
		o.Span(r.ID(), "mpi", "lock("+lt.String()+")", reqAt, p.Now(), obs.A("target", targetWorld))
	}
	return nil
}

// release drops the epoch's hold at the target and hands the lock to
// eligible waiters. Runs in event context at the target; by is the
// world rank performing the release (the grant chain's blocking rank).
func (ws *winState) release(tl *targetLock, ae *activeEpoch, now sim.Time, by int) {
	for i, h := range tl.holders {
		if h == ae {
			tl.holders = append(tl.holders[:i], tl.holders[i+1:]...)
			break
		}
	}
	// Grant queued waiters: an exclusive waiter needs an empty holder
	// set; shared waiters can be granted together until an exclusive
	// waiter is reached.
	for len(tl.queue) > 0 {
		next := tl.queue[0]
		if next.ltype == LockExclusive {
			if len(tl.holders) != 0 {
				return
			}
			tl.queue = tl.queue[1:]
			next.grant(now, by)
			return
		}
		if tl.heldExclusive() {
			return
		}
		tl.queue = tl.queue[1:]
		next.grant(now, by)
	}
}

// Unlock closes the epoch on target, blocking until every operation
// issued in the epoch has completed at the target (MPI_Win_unlock
// guarantees both local and remote completion).
func (w *Win) Unlock(target int) error {
	ep := w.cur
	if ep == nil || ep.target != target {
		return fmt.Errorf("mpi: Win.Unlock(%d): no epoch open on that target", target)
	}
	r := w.comm.r
	r.opOverhead()
	ws := w.state
	tl := ws.lockAt(target)
	targetWorld := ws.group[target]
	eng := r.W.M.Eng
	p := r.P
	tU := p.Now()

	// Wait for the slowest operation of the epoch to complete remotely.
	// completeAt can advance while we sleep (get return paths are timed
	// when their request reaches the target), so re-check until stable.
	for {
		horizon := ep.completeAt
		r.W.M.SleepUntil(p, horizon)
		if ep.completeAt <= horizon {
			break
		}
	}
	// Unlock handshake: release at the target, ack back to the origin.
	// On the shared-memory path the release is a node-local store on the
	// lock word — no control message, no target-side progress.
	done := false
	if w.shmFast(target) {
		eng.At(p.Now()+w.shmLatency(), func() {
			ws.release(tl, ep.active, eng.Now(), r.ID())
			done = true
			eng.Unpark(p)
		})
	} else {
		arrive := r.control(targetWorld)
		eng.At(arrive, func() {
			ws.release(tl, ep.active, eng.Now(), r.ID())
			eng.At(eng.Now()+r.W.M.RoundTripTime(targetWorld, r.ID())/2, func() {
				done = true
				eng.Unpark(p)
			})
		})
	}
	for !done {
		p.Park("mpi.WinUnlock")
	}
	if pr := r.W.Obs.Prof(); pr != nil {
		pr.PhaseAt(r.ID(), profile.PhaseEpochWait, tU, p.Now())
	}
	if o := r.W.Obs; o.Tracing() {
		o.Span(r.ID(), "epoch", "epoch("+ep.ltype.String()+")", ep.openedAt, p.Now(),
			obs.A("target", targetWorld), obs.A("ops", ep.nops))
	}
	w.cur = nil
	return ws.err
}

// effRateFor returns the MPI transfer rate on this machine for a
// message of n bytes, honouring a poorly tuned large-transfer path.
func (r *Rank) effRateFor(n int) float64 {
	frac := r.W.Tun.BandwidthFrac
	if r.W.Tun.LargeFrac > 0 && n >= r.W.Tun.LargeAt {
		frac = r.W.Tun.LargeFrac
	}
	return r.W.M.Par.Bandwidth * frac
}

// chargeRMAOverheads charges per-op software overhead, including the
// long-epoch queue slowdown defect, and bumps counters.
func (w *Win) chargeRMAOverheads(ep *epoch) {
	r := w.comm.r
	tun := r.W.Tun
	over := tun.OpOverheadNs
	if tun.QueueSlowdownNs > 0 && ep.nops > tun.QueueThreshold {
		over += tun.QueueSlowdownNs * float64(ep.nops-tun.QueueThreshold)
	}
	if tun.ScalePenaltyNs > 0 {
		over += tun.ScalePenaltyNs * log2f(len(w.state.group))
	}
	r.P.Elapse(sim.FromSeconds(over / 1e9))
	r.W.RMAOps++
	ep.nops++
}

func log2f(n int) float64 {
	f := 0.0
	for n > 1 {
		f++
		n >>= 1
	}
	return f
}

// originXferRate decides the data rate for moving bytes between the
// origin buffer and the network, applying the registration model: an
// unregistered origin buffer either goes through bounce buffers (small
// transfers) or pays on-demand registration (large transfers).
func (w *Win) originXferRate(buf LocalBuf, nbytes int) float64 {
	r := w.comm.r
	m := r.W.M
	full := r.effRateFor(nbytes)
	if m.Par.PinPageNs <= 0 {
		return full
	}
	if buf.Region.PinnedFor(fabric.DomainMPI) {
		return full
	}
	if nbytes <= m.Par.BounceThreshold {
		if m.Par.BounceRate < full {
			return m.Par.BounceRate
		}
		return full
	}
	// On-demand registration: pay the pin cost now, then run at full rate.
	r.P.Elapse(m.PinCost(buf.Region, fabric.DomainMPI))
	return full
}

// checkEpochOp validates an op's target range against the same epoch's
// previous ops and records it; also records into the target-side
// active epoch for cross-origin checking (done at issue time — the
// simulation's cooperative scheduling makes issue order a valid
// serialization of the real concurrency).
func (w *Win) checkEpochOp(ep *epoch, target int, newRng rng) error {
	ws := w.state
	if !w.comm.r.W.Checked {
		return nil
	}
	if newRng.lo < 0 || newRng.hi > ws.sizes[target] {
		return fmt.Errorf("mpi: RMA access [%d,%d) outside window of size %d at rank %d",
			newRng.lo, newRng.hi, ws.sizes[target], target)
	}
	if ep.relaxed {
		return nil // MPI-3: conflicting outcomes are undefined, not erroneous
	}
	for _, old := range ep.ranges {
		if old.conflicts(newRng) {
			return fmt.Errorf("mpi: conflicting RMA operations in one epoch at target %d: [%d,%d) %v vs [%d,%d) %v",
				target, old.lo, old.hi, kindName(old.kind), newRng.lo, newRng.hi, kindName(newRng.kind))
		}
	}
	ep.ranges = append(ep.ranges, newRng)
	tl := ws.lockAt(target)
	for _, h := range tl.holders {
		if h == ep.active {
			continue
		}
		for _, old := range h.ranges {
			if old.conflicts(newRng) {
				return fmt.Errorf("mpi: conflicting RMA operations from origins %d and %d at target %d (shared-lock data race)",
					h.originWorld, w.comm.r.ID(), target)
			}
		}
	}
	if ep.active != nil {
		ep.active.ranges = append(ep.active.ranges, newRng)
	}
	return nil
}

func kindName(k opKind) string {
	switch k {
	case opGet:
		return "get"
	case opPut:
		return "put"
	default:
		return "accumulate"
	}
}

func (w *Win) opPrologue(buf LocalBuf, target, tdisp int, ttype Datatype, kind opKind, op Op) (*epoch, error) {
	ep := w.cur
	if ep == nil || ep.target != target {
		return nil, fmt.Errorf("mpi: RMA op on target %d without an open epoch", target)
	}
	if buf.Type.Size() != ttype.Size() {
		return nil, fmt.Errorf("mpi: RMA origin/target size mismatch: %d vs %d bytes",
			buf.Type.Size(), ttype.Size())
	}
	if err := w.checkEpochOp(ep, target, rng{lo: tdisp, hi: tdisp + ttype.Span(), kind: kind, op: op}); err != nil {
		return nil, err
	}
	w.chargeRMAOverheads(ep)
	return ep, nil
}

// pack snapshots the origin datatype's bytes into a dense pooled
// payload, charging copy time for noncontiguous layouts. The snapshot
// is taken after the pack cost has elapsed.
func (w *Win) pack(buf LocalBuf) []byte {
	r := w.comm.r
	src := buf.Region.Bytes(buf.Region.VA+int64(buf.Off), buf.Type.Span())
	if buf.Type.Contig() {
		return snapshot(r.W.M, buf.Type, src)
	}
	t0 := r.P.Now()
	r.W.M.CopyLocal(r.P, buf.Type.Size()) // pack cost
	o := r.W.Obs
	o.Add(r.ID(), obs.CPackBytes, int64(buf.Type.Size()))
	o.AddTime(r.ID(), obs.TPack, r.P.Now()-t0)
	if pr := o.Prof(); pr != nil {
		pr.PhaseAt(r.ID(), profile.PhasePack, t0, r.P.Now())
	}
	if o.Tracing() {
		o.Span(r.ID(), "dt", "pack", t0, r.P.Now(), obs.A("bytes", buf.Type.Size()))
	}
	return snapshot(r.W.M, buf.Type, src)
}

// snapshot gathers the datatype's bytes out of src (covering its span)
// into a payload from m's pool. The event that last reads it recycles
// it.
func snapshot(m *fabric.Machine, t Datatype, src []byte) []byte {
	data := m.Payload(t.Size())
	PackInto(data, t, src)
	return data
}

// Put transfers the origin buffer into the target window at byte
// displacement tdisp with layout ttype. Nonblocking: completion is
// guaranteed by Unlock.
func (w *Win) Put(buf LocalBuf, target, tdisp int, ttype Datatype) error {
	t0 := w.comm.r.P.Now()
	ep, err := w.opPrologue(buf, target, tdisp, ttype, opPut, OpReplace)
	if err != nil {
		return err
	}
	if w.shmFast(target) {
		return w.shmPut(buf, target, tdisp, ttype, ep, t0)
	}
	r := w.comm.r
	m := r.W.M
	data := w.pack(buf) // snapshot origin bytes at issue time
	rate := w.originXferRate(buf, len(data))
	targetWorld := w.state.group[target]
	arrive := m.SendDataAsync(r.ID(), targetWorld, len(data), fabric.XferOpt{Rate: rate}) + r.progressDelay()
	origin := r.ID()
	pr := r.W.Obs.Prof()
	if pr != nil {
		base, xs, xa := m.LastXfer()
		pr.PhaseAt(origin, profile.PhaseWireQueue, base, xs)
		pr.PhaseAt(origin, profile.PhaseWire, xs, xa)
		pr.Send(origin, targetWorld, profile.MsgPut, profile.RouteRMA, len(data))
	}
	treg := w.state.regions[target]
	ws := w.state
	m.Eng.At(arrive, func() {
		if pr != nil {
			pr.Recv(origin, targetWorld, profile.MsgPut, profile.RouteRMA, len(data))
		}
		defer func() {
			if rec := recover(); rec != nil {
				ws.setErr(fmt.Errorf("mpi: Put apply failed: %v", rec))
			}
		}()
		dst := treg.Bytes(treg.VA+int64(tdisp), ttype.Span())
		Unpack(ttype, dst, data)
		m.Recycle(data)
	})
	done := arrive
	if !ttype.Contig() {
		done += m.CopyTime(len(data))
	}
	if done > ep.completeAt {
		ep.completeAt = done
	}
	o := r.W.Obs
	o.Inc(r.ID(), obs.COpsPut)
	o.Add(r.ID(), bytesMetric(buf.Type, ttype), int64(len(data)))
	if o.Tracing() {
		o.Span(r.ID(), "rma", "put", t0, done, obs.A("target", targetWorld), obs.A("bytes", len(data)))
	}
	return nil
}

// bytesMetric classifies an op's payload: contiguous on both sides, or
// moved through a datatype pack/unpack path on either side.
func bytesMetric(origin, target Datatype) string {
	if origin.Contig() && target.Contig() {
		return obs.CBytesContig
	}
	return obs.CBytesPacked
}

// shmPut is Put over the shared segment: one direct (possibly strided)
// copy by the origin CPU, complete on return. No NIC, no registration.
func (w *Win) shmPut(buf LocalBuf, target, tdisp int, ttype Datatype, ep *epoch, t0 sim.Time) error {
	r := w.comm.r
	m := r.W.M
	treg, _ := w.SharedQuery(target)
	src := buf.Region.Bytes(buf.Region.VA+int64(buf.Off), buf.Type.Span())
	data := snapshot(m, buf.Type, src)
	t0c := r.P.Now()
	m.ShmCopy(r.P, len(data))
	if pr := r.W.Obs.Prof(); pr != nil {
		pr.PhaseAt(r.ID(), profile.PhaseShmCopy, t0c, r.P.Now())
	}
	err := w.shmApply(func() {
		dst := treg.Bytes(treg.VA+int64(tdisp), ttype.Span())
		Unpack(ttype, dst, data)
	}, "Put")
	m.Recycle(data)
	if err != nil {
		return err
	}
	if now := r.P.Now(); now > ep.completeAt {
		ep.completeAt = now
	}
	w.shmOpObs(obs.COpsPut, "put.shm", target, len(data), t0)
	return nil
}

// shmApply runs a direct store into the shared segment, converting
// panics (bad displacements with checking off) into window errors.
func (w *Win) shmApply(apply func(), op string) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("mpi: %s apply failed: %v", op, rec)
			w.state.setErr(err)
		}
	}()
	apply()
	return nil
}

// shmOpObs records counters, the comm-matrix entry, and the trace span
// of one shm-path op.
func (w *Win) shmOpObs(opMetric, span string, target, nbytes int, t0 sim.Time) {
	r := w.comm.r
	o := r.W.Obs
	o.Inc(r.ID(), opMetric)
	o.Add(r.ID(), obs.CBytesShm, int64(nbytes))
	o.Inc(r.ID(), obs.CShmCopies)
	if pr := o.Prof(); pr != nil {
		class := profile.MsgAcc
		switch opMetric {
		case obs.COpsPut:
			class = profile.MsgPut
		case obs.COpsGet:
			class = profile.MsgGet
		}
		src, dst := r.ID(), w.state.group[target]
		if class == profile.MsgGet {
			src, dst = dst, src
		}
		// The shm path completes synchronously at the origin CPU, so the
		// send and receive sides of the matrix are recorded together.
		pr.Send(src, dst, class, profile.RouteShm, nbytes)
		pr.Recv(src, dst, class, profile.RouteShm, nbytes)
	}
	if o.Tracing() {
		o.Span(r.ID(), "rma", span, t0, r.P.Now(),
			obs.A("target", w.state.group[target]), obs.A("bytes", nbytes))
	}
}

// Get transfers from the target window into the origin buffer.
// Nonblocking: the origin buffer holds the data only after Unlock.
func (w *Win) Get(buf LocalBuf, target, tdisp int, ttype Datatype) error {
	t0 := w.comm.r.P.Now()
	ep, err := w.opPrologue(buf, target, tdisp, ttype, opGet, OpNoOp)
	if err != nil {
		return err
	}
	if w.shmFast(target) {
		return w.shmGet(buf, target, tdisp, ttype, ep, t0)
	}
	r := w.comm.r
	m := r.W.M
	nbytes := ttype.Size()
	rate := w.originXferRate(buf, nbytes)
	targetWorld := w.state.group[target]
	treg := w.state.regions[target]
	ws := w.state
	// Request travels to the target; at arrival the data is read and
	// streamed back, landing in the origin buffer. The true return time
	// depends on NIC occupancy at request arrival, so the epoch's
	// completion horizon is updated from inside the event; Unlock
	// re-checks completeAt after sleeping so it never closes the epoch
	// before the data has landed.
	origin := r.ID()
	pr := r.W.Obs.Prof()
	reqArrive := r.control(targetWorld)
	m.Eng.At(reqArrive, func() {
		src := treg.Bytes(treg.VA+int64(tdisp), ttype.Span())
		data := snapshot(m, ttype, src)
		back := m.SendDataAsync(targetWorld, origin, len(data), fabric.XferOpt{Rate: rate})
		if pr != nil {
			base, xs, xa := m.LastXfer()
			pr.PhaseAt(origin, profile.PhaseWireQueue, base, xs)
			pr.PhaseAt(origin, profile.PhaseWire, xs, xa)
			pr.Send(targetWorld, origin, profile.MsgGet, profile.RouteRMA, len(data))
		}
		back0 := back
		if !ttype.Contig() || !buf.Type.Contig() {
			back += m.CopyTime(nbytes)
		}
		if pr != nil && back > back0 {
			pr.PhaseAt(origin, profile.PhasePack, back0, back)
		}
		if back > ep.completeAt {
			ep.completeAt = back
		}
		// The true return time is known only here (it depends on NIC
		// occupancy at the target), so the span is recorded from inside
		// the event.
		if o := r.W.Obs; o.Tracing() {
			o.Span(origin, "rma", "get", t0, back, obs.A("target", targetWorld), obs.A("bytes", nbytes))
		}
		m.Eng.At(back, func() {
			if pr != nil {
				pr.Recv(targetWorld, origin, profile.MsgGet, profile.RouteRMA, len(data))
			}
			defer func() {
				if rec := recover(); rec != nil {
					ws.setErr(fmt.Errorf("mpi: Get apply failed: %v", rec))
				}
			}()
			dst := buf.Region.Bytes(buf.Region.VA+int64(buf.Off), buf.Type.Span())
			Unpack(buf.Type, dst, data)
			m.Recycle(data)
		})
	})
	// Lower bound available at issue time; refined inside the event.
	done := reqArrive + sim.FromSeconds(float64(nbytes)/rate) +
		sim.FromSeconds(m.Par.LatencyNs/1e9)
	if done > ep.completeAt {
		ep.completeAt = done
	}
	o := r.W.Obs
	o.Inc(r.ID(), obs.COpsGet)
	o.Add(r.ID(), bytesMetric(buf.Type, ttype), int64(nbytes))
	return nil
}

// shmGet is Get over the shared segment: a direct read by the origin
// CPU. Unlike the RMA path, the data is in the origin buffer on return.
func (w *Win) shmGet(buf LocalBuf, target, tdisp int, ttype Datatype, ep *epoch, t0 sim.Time) error {
	r := w.comm.r
	m := r.W.M
	treg, _ := w.SharedQuery(target)
	var data []byte
	if err := w.shmApply(func() {
		src := treg.Bytes(treg.VA+int64(tdisp), ttype.Span())
		data = snapshot(m, ttype, src)
	}, "Get"); err != nil {
		return err
	}
	t0c := r.P.Now()
	m.ShmCopy(r.P, len(data))
	if pr := r.W.Obs.Prof(); pr != nil {
		pr.PhaseAt(r.ID(), profile.PhaseShmCopy, t0c, r.P.Now())
	}
	err := w.shmApply(func() {
		dst := buf.Region.Bytes(buf.Region.VA+int64(buf.Off), buf.Type.Span())
		Unpack(buf.Type, dst, data)
	}, "Get")
	m.Recycle(data)
	if err != nil {
		return err
	}
	if now := r.P.Now(); now > ep.completeAt {
		ep.completeAt = now
	}
	w.shmOpObs(obs.COpsGet, "get.shm", target, len(data), t0)
	return nil
}

// Accumulate applies the origin buffer into the target window with the
// reduction op (element type float64 for arithmetic ops; OpReplace
// behaves like Put with element granularity). Nonblocking.
func (w *Win) Accumulate(buf LocalBuf, op Op, target, tdisp int, ttype Datatype) error {
	t0 := w.comm.r.P.Now()
	ep, err := w.opPrologue(buf, target, tdisp, ttype, opAcc, op)
	if err != nil {
		return err
	}
	if w.shmFast(target) {
		return w.shmAccumulate(buf, op, target, tdisp, ttype, ep, t0)
	}
	r := w.comm.r
	m := r.W.M
	data := w.pack(buf)
	rate := w.originXferRate(buf, len(data))
	targetWorld := w.state.group[target]
	treg := w.state.regions[target]
	ws := w.state
	tl := w.state.lockAt(target)
	arrive := m.SendDataAsync(r.ID(), targetWorld, len(data), fabric.XferOpt{Rate: rate}) + r.progressDelay()
	origin := r.ID()
	pr := r.W.Obs.Prof()
	if pr != nil {
		base, xs, xa := m.LastXfer()
		pr.PhaseAt(origin, profile.PhaseWireQueue, base, xs)
		pr.PhaseAt(origin, profile.PhaseWire, xs, xa)
		pr.Send(origin, targetWorld, profile.MsgAcc, profile.RouteRMA, len(data))
	}
	// The target agent applies the reduction at the accumulate rate,
	// serialized per target.
	accRate := m.Par.AccumRate
	if r.W.Tun.AccumRate > 0 {
		accRate = r.W.Tun.AccumRate
	}
	start := arrive
	if tl.accBusy > start {
		start = tl.accBusy
	}
	applyDone := start + sim.FromSeconds(float64(len(data))/accRate)
	tl.accBusy = applyDone
	if pr != nil {
		pr.PhaseAt(origin, profile.PhaseTargetQueue, arrive, start)
		pr.PhaseAt(origin, profile.PhaseTargetProc, start, applyDone)
	}
	m.Eng.At(applyDone, func() {
		if pr != nil {
			pr.Recv(origin, targetWorld, profile.MsgAcc, profile.RouteRMA, len(data))
		}
		defer func() {
			if rec := recover(); rec != nil {
				ws.setErr(fmt.Errorf("mpi: Accumulate apply failed: %v", rec))
			}
		}()
		dst := treg.Bytes(treg.VA+int64(tdisp), ttype.Span())
		applyReduction(dst, ttype, data, op)
		m.Recycle(data)
	})
	if applyDone > ep.completeAt {
		ep.completeAt = applyDone
	}
	o := r.W.Obs
	o.Inc(r.ID(), obs.COpsAcc)
	o.Add(r.ID(), bytesMetric(buf.Type, ttype), int64(len(data)))
	if o.Tracing() {
		o.Span(r.ID(), "rma", "acc("+op.String()+")", t0, applyDone,
			obs.A("target", targetWorld), obs.A("bytes", len(data)))
		o.SpanLane(obs.LaneServer(m.NodeOf(targetWorld)), "agent", "apply("+op.String()+")",
			start, applyDone, obs.A("origin", r.ID()), obs.A("bytes", len(data)))
	}
	return nil
}

// shmAccumulate applies a reduction through the shared segment. The
// read-modify-write is done by the origin CPU, but applications to one
// target stay serialized (the accBusy horizon the RMA agent also uses):
// concurrent same-op accumulates under shared locks must not interleave
// elementwise.
func (w *Win) shmAccumulate(buf LocalBuf, op Op, target, tdisp int, ttype Datatype, ep *epoch, t0 sim.Time) error {
	r := w.comm.r
	m := r.W.M
	src := buf.Region.Bytes(buf.Region.VA+int64(buf.Off), buf.Type.Span())
	data := snapshot(m, buf.Type, src)
	treg, _ := w.SharedQuery(target)
	tl := w.state.lockAt(target)
	t0q := r.P.Now()
	start := t0q
	if tl.accBusy > start {
		start = tl.accBusy
	}
	fin := start + m.ShmCopyTime(len(data))
	tl.accBusy = fin
	m.ShmAccount(len(data))
	if pr := r.W.Obs.Prof(); pr != nil {
		pr.PhaseAt(r.ID(), profile.PhaseTargetQueue, t0q, start)
		pr.PhaseAt(r.ID(), profile.PhaseTargetProc, start, fin)
	}
	m.SleepUntil(r.P, fin)
	err := w.shmApply(func() {
		dst := treg.Bytes(treg.VA+int64(tdisp), ttype.Span())
		applyReduction(dst, ttype, data, op)
	}, "Accumulate")
	m.Recycle(data)
	if err != nil {
		return err
	}
	if fin > ep.completeAt {
		ep.completeAt = fin
	}
	w.shmOpObs(obs.COpsAcc, "acc.shm("+op.String()+")", target, len(data), t0)
	return nil
}

// f64Ops maps the arithmetic reductions onto the fabric's float64
// kernel.
var f64Ops = map[Op]fabric.F64Op{
	OpSum:  fabric.F64Sum,
	OpMin:  fabric.F64Min,
	OpMax:  fabric.F64Max,
	OpProd: fabric.F64Prod,
}

// applyReduction folds dense data into dst following the datatype
// layout, elementwise on float64 for arithmetic ops, in place.
func applyReduction(dst []byte, t Datatype, data []byte, op Op) {
	if op == OpReplace {
		Unpack(t, dst, data)
		return
	}
	f, ok := f64Ops[op]
	pos := 0
	t.Segments(func(off, n int) {
		if n%8 != 0 || off%8 != 0 {
			panic(fmt.Sprintf("mpi: accumulate segment not float64-aligned (off=%d n=%d)", off, n))
		}
		if !ok {
			panic("mpi: unsupported float64 reduction op " + op.String())
		}
		fabric.ReduceF64(f, dst[off:off+n], data[pos:pos+n], 1)
		pos += n
	})
}
