// Shard dispatch: the engine's only dispatcher, and conservative
// time-window execution across host cores.
//
// Ranks are partitioned into shards. Each shard owns a private event
// heap, runnable FIFO, virtual clock, sequence counter, and a full
// continuation dispatcher, and executes on its own worker flow. Shards
// synchronize through a window barrier run by the coordinator (the
// goroutine that called Run):
//
//	windowStart = min over shards of the earliest undispatched event
//	windowEnd   = windowStart + Lookahead
//
// Inside a window [start, end) every shard dispatches only events with
// at < end, so no shard's clock can pass end. A cross-shard event must
// therefore be scheduled at t >= the sender's windowEnd (any delay >=
// Lookahead guarantees this); it cannot land in the receiver's past,
// which is the classic conservative-PDES argument. Cross-shard events
// travel through per-shard-pair outboxes, are swapped by the
// coordinator at the barrier, and each receiving shard merges its
// inbox into its heap — sorted by (time, virtual send time, source
// shard, outbox sequence) — before the next window opens, so the merge
// order is a pure function of virtual time and the partition: repeat
// runs are byte-identical regardless of host scheduling.
//
// With a single shard windowEnd is unbounded and no event ever crosses
// a shard boundary, so the run is the exact sequential schedule. That
// is the configuration the full communication stacks use (their layers
// mutate remote-rank state synchronously — NIC clocks, lock queues,
// window memory — which no partition can confine). Multi-shard runs
// require a shard-confined workload: ranks touch only their own
// shard's state, and all cross-shard interaction flows through AtRank
// with at least Lookahead of virtual delay. fabric's sharded delivery
// path provides exactly that contract for node-aligned partitions.
//
// Divergences of multi-shard runs from the single-shard schedule, by
// design:
//
//   - One shard stops the instant its last rank finishes and drops any
//     still-scheduled events. A multi-shard run only observes "all
//     ranks done" at a window barrier, so events inside the final
//     window may still dispatch. Workloads that end quiescent (every
//     scheduled event consumed before the last rank exits) are
//     unaffected, and equivalence tests use such workloads.
//   - MaxTime aborts at the first clock crossing per shard; when
//     several shards cross in one window, the lowest shard id's error
//     wins (deterministically), where a single shard would have
//     reported the temporally first.
package sim

import (
	"fmt"
	"sort"
)

// xev is a cross-shard event in flight: a closure plus the ordering
// key it will be merged under at the receiving shard.
type xev struct {
	at   Time
	sent Time  // sending shard's clock at scheduling time
	seq  int64 // sending shard's outbox sequence
	src  int   // sending shard id
	fn   func()
}

// shardReport is what a shard hands the coordinator at a barrier.
type shardReport struct {
	id      int
	next    Time // earliest undispatched local event; MaxTime if none
	alive   int
	failure error
	outbox  [][]xev // ownership moves to the coordinator
}

type cmdKind int

const (
	cmdWindow cmdKind = iota // open the next window and keep dispatching
	cmdDrain                 // the run is over abnormally; unwind fibers
	cmdExit                  // the run is over normally; release the flow
)

// shardCmd is the coordinator's barrier response.
type shardCmd struct {
	kind      cmdKind
	windowEnd Time
	inbox     []xev // cross-shard arrivals to merge before dispatching
}

// shard is one partition's private engine state plus its barrier
// endpoints. Exactly one flow of control runs a shard's dispatcher at
// any instant, so none of these fields need locks; the barrier
// channels provide the happens-before edges between shard flows and
// the coordinator.
type shard struct {
	e    *Engine
	id   int
	solo bool // single-shard run: exact sequential termination

	now    Time
	seq    int64
	events eventHeap
	procs  []*Proc // this shard's ranks, ascending rank id

	runq   []*Proc
	rqHead int
	rqLen  int

	alive      int
	lastFinish Time // clock when the shard's last rank finished
	stats      Stats
	obs        Observer
	failure    error

	chanPool    []chan struct{}
	drainCursor int

	// windowEnd is the exclusive bound on dispatchable event times in
	// the current window; MaxTime means unbounded.
	windowEnd Time

	outSeq int64
	outbox [][]xev // indexed by destination shard id

	cmd  chan shardCmd // coordinator -> shard barrier response
	done chan struct{} // shard -> coordinator: drain/exit handshake
}

func (sh *shard) at(t Time, fn func()) {
	if t < sh.now {
		t = sh.now
	}
	sh.seq++
	sh.events.push(event{at: t, seq: sh.seq, fn: fn})
}

func (sh *shard) atWake(t Time, p *Proc) {
	if t < sh.now {
		t = sh.now
	}
	sh.seq++
	sh.events.push(event{at: t, seq: sh.seq, wake: p})
}

func (sh *shard) pushRunnable(p *Proc) {
	i := sh.rqHead + sh.rqLen
	if i >= len(sh.runq) {
		i -= len(sh.runq)
	}
	sh.runq[i] = p
	sh.rqLen++
}

func (sh *shard) popRunnable() *Proc {
	p := sh.runq[sh.rqHead]
	sh.runq[sh.rqHead] = nil
	sh.rqHead++
	if sh.rqHead == len(sh.runq) {
		sh.rqHead = 0
	}
	sh.rqLen--
	return p
}

// park blocks p: the parking rank itself executes the shard's dispatch
// loop (the simulation's continuation), hands control directly to the
// next runnable flow, and blocks on its pooled wake slot until a wake
// event or Unpark resumes it. preCounted marks parks whose statistics
// and observer callback Elapse's inline path already recorded.
func (sh *shard) park(p *Proc, why string, preCounted bool) {
	e := sh.e
	if e.draining {
		panic(drainSignal{})
	}
	p.state = stateParked
	p.why = why
	if !preCounted {
		sh.stats.Parks++
		if sh.obs != nil {
			sh.obs.RankParked(p.id, why, sh.now)
		}
	}
	if next := sh.advance(false); next != nil {
		panic("sim: internal: advance(false) returned a fresh proc")
	}
	<-p.wake
	if e.draining {
		panic(drainSignal{})
	}
	p.state = stateRunning
	p.why = ""
	if sh.obs != nil {
		sh.obs.RankResumed(p.id, sh.now)
	}
}

// advance is the shard's dispatch loop, executed by whatever flow of
// control is giving up the shard (a parking rank, a finished body's
// fiber, or the shard's seed flow at startup). It returns after handing
// control to exactly one successor. When the next runnable rank is
// fresh (no fiber yet) and the caller can run it on its own goroutine
// (mayInline), the proc is returned instead; otherwise a new fiber is
// spawned for it. A nil return means control went elsewhere. When
// nothing is dispatchable below windowEnd (or the shard is finished or
// failed), the current flow carries the shard into the barrier and
// resumes dispatching when the coordinator opens the next window.
func (sh *shard) advance(mayInline bool) *Proc {
	e := sh.e
	for {
		if e.draining {
			sh.drainNext()
			return nil
		}
		if sh.failure != nil {
			if sh.barrier() {
				continue
			}
			return nil
		}
		if sh.rqLen > 0 {
			p := sh.popRunnable()
			if p.started {
				p.wake <- struct{}{} // resume the parked fiber; never blocks (cap 1)
				return nil
			}
			if mayInline {
				return p
			}
			sh.spawnFiber(p)
			return nil
		}
		if sh.solo && sh.alive == 0 {
			// Exact sequential termination: remaining events are
			// dropped the instant the last rank finishes.
			if sh.barrier() {
				continue
			}
			return nil
		}
		if len(sh.events) == 0 || sh.events[0].at >= sh.windowEnd {
			if sh.barrier() {
				continue
			}
			return nil
		}
		ev := sh.events.pop()
		if ev.at > sh.now {
			sh.now = ev.at
		}
		if e.MaxTime > 0 && sh.now > e.MaxTime {
			sh.failure = &ErrTimeLimit{At: sh.now}
			continue
		}
		sh.stats.Events++
		if ev.wake != nil {
			e.Unpark(ev.wake)
		} else {
			ev.fn()
		}
	}
}

// barrier reports the shard's state to the coordinator and blocks the
// current flow until the coordinator answers. True means "keep
// dispatching" (a new window opened, or a drain was initiated and the
// loop top will pick it up); false releases the flow for good.
func (sh *shard) barrier() bool {
	next := MaxTime
	if len(sh.events) > 0 {
		next = sh.events[0].at
	}
	rep := shardReport{id: sh.id, next: next, alive: sh.alive, failure: sh.failure, outbox: sh.outbox}
	sh.outbox = make([][]xev, len(sh.outbox))
	sh.e.reports <- rep
	cmd := <-sh.cmd
	switch cmd.kind {
	case cmdWindow:
		sh.ingest(cmd.inbox)
		sh.windowEnd = cmd.windowEnd
		return true
	case cmdDrain:
		return true // e.draining is set; the loop top drains
	default: // cmdExit
		sh.done <- struct{}{}
		return false
	}
}

// ingest merges one window's cross-shard arrivals into the heap. The
// sort key (at, sent, src, seq) is a total order — seq is unique per
// source shard — so the merged sequence numbering is deterministic.
// Ordering by virtual send time first reproduces sequential creation
// order whenever the sending instants differ; only events scheduled at
// identical (at, sent) from different shards can tie, and those
// resolve by shard id.
func (sh *shard) ingest(inbox []xev) {
	if len(inbox) == 0 {
		return
	}
	sort.Slice(inbox, func(i, j int) bool {
		a, b := inbox[i], inbox[j]
		if a.at != b.at {
			return a.at < b.at
		}
		if a.sent != b.sent {
			return a.sent < b.sent
		}
		if a.src != b.src {
			return a.src < b.src
		}
		return a.seq < b.seq
	})
	for _, x := range inbox {
		sh.seq++
		sh.events.push(event{at: x.at, seq: sh.seq, fn: x.fn})
	}
}

// getChan takes a wake slot from the pool (or makes one). Wake slots
// have capacity one so a handoff never blocks the sender; a slot is
// returned to the pool when its fiber's body finishes, so steady-state
// dispatch allocates nothing.
func (sh *shard) getChan() chan struct{} {
	if n := len(sh.chanPool); n > 0 {
		ch := sh.chanPool[n-1]
		sh.chanPool[n-1] = nil
		sh.chanPool = sh.chanPool[:n-1]
		return ch
	}
	return make(chan struct{}, 1)
}

func (sh *shard) putChan(ch chan struct{}) {
	sh.chanPool = append(sh.chanPool, ch)
}

// spawnFiber starts the lazily created goroutine that will run p's
// body (and, after it finishes, any further fresh bodies the dispatch
// loop hands it).
func (sh *shard) spawnFiber(p *Proc) {
	p.started = true
	p.wake = sh.getChan()
	go sh.fiberLoop(p)
}

// fiberLoop runs rank bodies to completion on one goroutine: after a
// body finishes, the fiber itself drives the dispatch loop, and if the
// next dispatch is a fresh rank it runs that body in place instead of
// spawning — so phases where ranks finish back-to-back execute on a
// single goroutine.
func (sh *shard) fiberLoop(p *Proc) {
	for {
		sh.runBody(p)
		ch := p.wake
		p.wake = nil
		sh.putChan(ch) // before advance: the slot may serve the next spawn
		next := sh.advance(true)
		if next == nil {
			return
		}
		next.started = true
		next.wake = sh.getChan()
		p = next
	}
}

// runBody executes one rank body, recording a panic as the shard's
// failure and counting the rank finished. Shards run concurrently, so
// the failure and alive bookkeeping is per shard; the coordinator
// merges outcomes deterministically at the barrier.
func (sh *shard) runBody(p *Proc) {
	defer func() {
		r := recover()
		if r != nil {
			if _, drained := r.(drainSignal); !drained && sh.failure == nil {
				sh.failure = &rankPanic{rank: p.id, val: r}
			}
		}
		p.state = stateDone
		sh.alive--
		if sh.alive == 0 {
			sh.lastFinish = sh.now
		}
		if r == nil && !sh.e.draining {
			if f, ok := sh.obs.(FinishObserver); ok {
				f.RankFinished(p.id, sh.now)
			}
		}
	}()
	p.state = stateRunning
	sh.e.body(p)
}

// drainNext resumes the shard's next blocked fiber (parked, or runnable
// but not yet handed the token — both block on their wake slot) so it
// unwinds, or signals the coordinator when none remain. Never-started
// ranks have no goroutine and need no draining. The cursor is
// monotonic: states cannot regress during a drain (Unpark is a no-op).
// Drains of different shards never overlap: the coordinator walks
// shards in id order and waits for each handshake.
func (sh *shard) drainNext() {
	for sh.drainCursor < len(sh.procs) {
		p := sh.procs[sh.drainCursor]
		sh.drainCursor++
		if p.started && p.state != stateDone {
			p.wake <- struct{}{}
			return
		}
	}
	sh.done <- struct{}{}
}

// ShardOf reports which shard rank i lands on under the engine's
// configuration (Shards/Partition), independent of whether the run has
// started. n is the rank count Run will be called with.
func (e *Engine) ShardOf(i, n int) int {
	k := e.shardCount(n)
	if e.Partition != nil {
		return e.Partition[i]
	}
	return i * k / n
}

// shardCount resolves the effective shard count for n ranks.
func (e *Engine) shardCount(n int) int {
	k := e.Shards
	if k <= 0 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// Run creates n ranks and executes body(p) on each, returning once all
// ranks have finished. It materializes the shards, starts one worker
// flow per shard, then runs the window barrier until the simulation
// finishes, deadlocks, times out, or fails. It returns an error if the
// simulation deadlocks or any rank body panics; in every case — success
// or failure — all rank goroutines have exited by the time Run returns
// (abnormal ends drain the blocked ranks deterministically, in rank
// order). Run may be called repeatedly on fresh engines but not
// concurrently on the same engine.
func (e *Engine) Run(n int, body func(p *Proc)) error {
	if n <= 0 {
		return fmt.Errorf("sim: Run needs n > 0, got %d", n)
	}
	k := e.shardCount(n)
	if e.Partition != nil {
		if len(e.Partition) != n {
			return fmt.Errorf("sim: Partition has %d entries for %d ranks", len(e.Partition), n)
		}
		for i, s := range e.Partition {
			if s < 0 || s >= k {
				return fmt.Errorf("sim: Partition[%d] = %d outside [0, %d)", i, s, k)
			}
		}
	}
	if k > 1 {
		if e.Lookahead <= 0 {
			return fmt.Errorf("sim: %d shards require Lookahead > 0", k)
		}
		if e.obs != nil && e.ShardObservers == nil {
			return fmt.Errorf("sim: a single Observer would race across %d shards; use ShardObservers", k)
		}
		if len(e.pending) > 0 {
			return fmt.Errorf("sim: events scheduled before a multi-shard Run have no home shard; use AtRank after Run starts")
		}
	}
	e.body = body
	e.procs = make([]*Proc, n)
	e.reports = make(chan shardReport, k)
	shards := make([]*shard, k)
	for s := range shards {
		sh := &shard{
			e:         e,
			id:        s,
			solo:      k == 1,
			windowEnd: MaxTime,
			outbox:    make([][]xev, k),
			cmd:       make(chan shardCmd, 1),
			done:      make(chan struct{}),
		}
		if k == 1 && e.obs != nil {
			sh.obs = e.obs
		} else if e.ShardObservers != nil {
			sh.obs = e.ShardObservers(s)
		}
		shards[s] = sh
	}
	if k == 1 {
		// Events scheduled before Run keep their sequence numbers.
		shards[0].events = e.pending
		shards[0].seq = int64(len(e.pending))
		e.pending = nil
	}
	slab := make([]Proc, n)
	for i := range slab {
		p := &slab[i]
		p.id = i
		p.e = e
		p.sh = shards[e.ShardOf(i, n)]
		p.state = stateRunnable
		e.procs[i] = p
		p.sh.procs = append(p.sh.procs, p)
		p.sh.alive++
	}
	for _, sh := range shards {
		sh.runq = make([]*Proc, len(sh.procs))
		for _, p := range sh.procs {
			sh.pushRunnable(p)
		}
	}
	if k > 1 {
		// The first window starts at 0, where every rank begins.
		for _, sh := range shards {
			sh.windowEnd = e.Lookahead
		}
	}
	e.shards = shards

	for _, sh := range shards {
		sh := sh
		go func() {
			if next := sh.advance(false); next != nil {
				panic("sim: internal: shard seed returned a fresh proc")
			}
		}()
	}
	return e.coordinate(shards)
}

// coordinate runs the window barrier: collect one report per shard,
// merge outboxes, and decide — finish, drain, or open the next window
// at the global minimum next event time (window hopping: idle gaps are
// skipped in one step).
func (e *Engine) coordinate(shards []*shard) error {
	k := len(shards)
	reports := make([]shardReport, k)
	for {
		for i := 0; i < k; i++ {
			r := <-e.reports
			reports[r.id] = r
		}
		totalAlive := 0
		next := MaxTime
		var failure error
		inboxes := make([][]xev, k)
		for s := range reports {
			r := &reports[s]
			totalAlive += r.alive
			if failure == nil && r.failure != nil {
				failure = r.failure // lowest shard id wins, deterministically
			}
			if r.next < next {
				next = r.next
			}
			for d, evs := range r.outbox {
				if len(evs) == 0 {
					continue
				}
				inboxes[d] = append(inboxes[d], evs...)
				for i := range evs {
					if evs[i].at < next {
						next = evs[i].at
					}
				}
			}
		}
		switch {
		case failure != nil:
			return e.parDrain(shards, failure)
		case totalAlive == 0:
			var final Time
			for _, sh := range shards {
				if sh.lastFinish > final {
					final = sh.lastFinish
				}
			}
			for _, sh := range shards {
				sh.cmd <- shardCmd{kind: cmdExit}
				<-sh.done
			}
			e.mergeShardStats(shards)
			e.stats.FinalTime = final
			return nil
		case next == MaxTime:
			return e.parDrain(shards, e.parDeadlock(shards))
		case e.MaxTime > 0 && next > e.MaxTime:
			// The earliest event anywhere lies beyond the limit; a
			// single shard would dispatch it and abort at its
			// timestamp.
			return e.parDrain(shards, &ErrTimeLimit{At: next})
		}
		winEnd := MaxTime
		if k > 1 {
			winEnd = next + e.Lookahead
			if winEnd < next {
				winEnd = MaxTime // overflow clamp
			}
		}
		for s, sh := range shards {
			sh.cmd <- shardCmd{kind: cmdWindow, windowEnd: winEnd, inbox: inboxes[s]}
		}
	}
}

// parDrain ends an abnormal run: shards drain one at a time, in shard
// id order, each unwinding its blocked fibers in rank order — so the
// full drain sequence is deterministic and every goroutine has exited
// when Run returns. FinalTime stays zero. Engine statistics and
// observers see nothing of the drain: it happens after the run's last
// observable instant.
func (e *Engine) parDrain(shards []*shard, err error) error {
	e.draining = true
	for _, sh := range shards {
		sh.cmd <- shardCmd{kind: cmdDrain}
		<-sh.done
	}
	e.mergeShardStats(shards)
	return err
}

// parDeadlock builds the deadlock report: no shard has events, every
// living rank is parked. Time is the latest shard clock (for one shard,
// its clock).
func (e *Engine) parDeadlock(shards []*shard) *Deadlock {
	var at Time
	for _, sh := range shards {
		if sh.now > at {
			at = sh.now
		}
	}
	d := &Deadlock{Time: at, Waiting: map[int]string{}}
	for _, p := range e.procs {
		if p.state == stateParked {
			d.Waiting[p.id] = p.why
		}
	}
	return d
}

// mergeShardStats folds per-shard counters into the engine's Stats.
// Every event is dispatched by exactly one shard and every park is
// counted by exactly one shard, so the sums equal the single-shard
// counts for equivalent schedules.
func (e *Engine) mergeShardStats(shards []*shard) {
	for _, sh := range shards {
		e.stats.Events += sh.stats.Events
		e.stats.Parks += sh.stats.Parks
	}
}
