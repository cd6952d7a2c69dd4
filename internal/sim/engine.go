// Package sim provides a deterministic discrete-event simulation engine
// in which "ranks" (processes of a simulated parallel machine) execute
// under a cooperative scheduler. Exactly one flow of control — the
// dispatcher or a single rank — is active at any instant within a
// shard, so every run is bit-reproducible: virtual time advances only
// when an event heap is popped, and ties are broken by insertion
// sequence.
//
// Higher layers (fabric, MPI, ARMCI) are built from three primitives:
// Elapse (charge local virtual time), Park/Unpark (block a rank until a
// condition is signalled), and At (schedule a handler at a future virtual
// time). Handlers run under the dispatcher and must not block.
//
// The engine has one dispatcher, the shard (see parallel.go). Ranks are
// partitioned into shards, each with its own event heap, runnable FIFO,
// clock, and continuation dispatcher: rank bodies run as resumable steps
// on lazily spawned fibers, and whichever flow gives up control (a
// parking rank, or a fiber whose body finished) executes the dispatch
// loop and hands control directly to the next runnable flow with a
// single wake. A finishing fiber keeps executing fresh rank bodies until
// one parks (run-to-completion batching), and wake slots are pooled, so
// a job's live goroutine count is the number of simultaneously parked
// ranks, not N. Proc records live in one slab. This is what holds
// 16k-rank sweeps.
//
// Engine.Shards is the only execution choice. With one shard (0 or 1,
// the default) the engine executes the exact sequential schedule: one
// heap, one sequence counter, and termination the instant the last rank
// finishes. That is how the full communication stacks run. Multiple
// shards execute concurrently inside conservative time windows bounded
// by Lookahead and require a shard-confined workload (cross-shard
// interaction only through AtRank with at least Lookahead of delay).
//
// The package tests keep a goroutine-per-rank reference scheduler (one
// goroutine per rank resumed by a central loop, every Elapse a real
// park) and prove the engine byte-identical to it in schedule, Stats
// counters, and observer callback stream (TestContinuationEquivalence,
// TestParallelEquivalence).
//
// The engine's own wall-clock cost is kept off the simulated results'
// critical path by three mechanisms: events are value-typed in the heap
// slice (the popped slots double as a free list, so scheduling allocates
// nothing once the heap has grown), pure time-advance wakeups carry the
// parked Proc instead of a closure, and Elapse takes an inline fast path
// that advances the clock without any channel ping-pong whenever no
// earlier event or runnable rank could interleave. The fast path
// consumes the same sequence number and counts the same Parks and
// Events as the parked path, so engine counters and every downstream
// virtual-time result are byte-identical whichever path runs.
package sim

import (
	"fmt"
	"math"
	"sort"
)

// Time is virtual time in nanoseconds.
type Time int64

// Common durations.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000
	Millisecond Time = 1000 * 1000
	Second      Time = 1000 * 1000 * 1000
)

// MaxTime is the largest representable virtual time.
const MaxTime Time = math.MaxInt64

// Seconds converts a virtual duration to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// Micros converts a virtual duration to floating-point microseconds.
func (t Time) Micros() float64 { return float64(t) / 1e3 }

// FromSeconds converts floating-point seconds to a virtual duration,
// rounding to the nearest nanosecond and never rounding a positive
// duration down to zero.
func FromSeconds(s float64) Time {
	t := Time(s*1e9 + 0.5)
	if t <= 0 && s > 0 {
		t = 1
	}
	return t
}

// String formats the time in human units.
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/1e6)
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", float64(t)/1e3)
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// event is one scheduled occurrence. Pure wakeups (Elapse) carry the
// parked proc in wake and no closure; handler events carry fn.
type event struct {
	at   Time
	seq  int64
	wake *Proc
	fn   func()
}

// eventHeap is a value-typed binary min-heap ordered by (at, seq).
// Events live inline in the slice: pushes reuse the capacity freed by
// pops, so steady-state scheduling performs no allocation.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	// Sift up.
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = event{} // clear the vacated slot so fn/wake are collectable
	s = s[:n]
	*h = s
	// Sift down.
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && s.less(l, smallest) {
			smallest = l
		}
		if r < n && s.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return top
		}
		s[i], s[smallest] = s[smallest], s[i]
		i = smallest
	}
}

type procState int

const (
	stateRunnable procState = iota
	stateRunning
	stateParked
	stateDone
)

// Proc is the execution context of one simulated rank. All Proc methods
// must be called from the flow of control running that rank's body.
type Proc struct {
	id      int
	e       *Engine
	sh      *shard // owning shard
	state   procState
	started bool   // fiber exists (or body has run)
	why     string // what the proc is parked on, for deadlock reports
	wake    chan struct{}
}

// ID returns the rank's id in [0, N).
func (p *Proc) ID() int { return p.id }

// Engine returns the engine this proc belongs to.
func (p *Proc) Engine() *Engine { return p.e }

// Now returns the current virtual time of the rank's shard (with one
// shard, the global clock).
func (p *Proc) Now() Time { return p.sh.now }

// Observer receives scheduling callbacks from the engine, giving
// observability layers access to the virtual clock at the moments
// ranks block and resume. Callbacks run under the cooperative
// scheduler (never concurrently) and must not block or re-enter the
// engine. Elapse's inline fast path still reports its virtual
// park/resume pair, so observers see the same sequence either way.
type Observer interface {
	// RankParked fires when a rank blocks; why is the park reason.
	RankParked(rank int, why string, at Time)
	// RankResumed fires when a previously parked rank resumes running.
	RankResumed(rank int, at Time)
}

// FinishObserver is an optional Observer extension: when the installed
// observer also implements it, RankFinished fires as each rank's body
// returns normally (never during an abnormal drain), carrying the
// rank's completion time — the job makespan is the maximum over ranks.
// In a multi-shard run the callback runs on the owning shard's worker
// against the shard's observer, like the other callbacks.
type FinishObserver interface {
	RankFinished(rank int, at Time)
}

// Engine runs a fixed set of ranks to completion under a virtual
// clock.
type Engine struct {
	procs []*Proc
	stats Stats
	obs   Observer
	body  func(*Proc)

	// pending holds the events scheduled before Run; a single-shard Run
	// adopts them with their sequence numbers.
	pending eventHeap

	// draining is set when the run is ending abnormally (rank panic,
	// deadlock, or time limit): every remaining blocked rank is resumed
	// once, in rank order, and unwinds via a drainSignal panic so its
	// goroutine exits before Run returns.
	draining bool

	// MaxTime, when nonzero, aborts Run with ErrTimeLimit once the
	// virtual clock passes it — a watchdog against virtual livelock
	// (event chains that never let the ranks finish).
	MaxTime Time

	// Shards is the worker count (<=0 means 1; clamped to the rank
	// count). Partition maps rank -> shard in [0, Shards); nil means
	// contiguous equal blocks. Lookahead is the conservative window
	// width: a cross-shard event must be scheduled at least this far
	// past the sending shard's window start. Required > 0 when
	// Shards > 1; the fabric's MinCrossNodeLatency is the natural bound.
	Shards    int
	Partition []int
	Lookahead Time

	// ShardObservers, when set, supplies one Observer per shard for
	// multi-shard runs (the single obs Observer would race). Callbacks
	// arrive shard-concurrently but rank-sequentially: one shard never
	// reports two ranks at once, and a given rank always reports from
	// its home shard.
	ShardObservers func(shard int) Observer

	// shards is the live shard array (nil before Run); it stays valid
	// after Run so post-run Now() reads resolve against the final shard
	// clocks.
	shards  []*shard
	reports chan shardReport
}

// ErrTimeLimit is returned by Run when the virtual clock exceeds
// Engine.MaxTime.
type ErrTimeLimit struct{ At Time }

func (e *ErrTimeLimit) Error() string {
	return fmt.Sprintf("sim: virtual time limit exceeded at %v", e.At)
}

// Stats aggregates engine-level counters, useful in tests and benchmarks.
// Both Elapse paths maintain them identically: an inline time advance
// still counts one park and one dispatched event.
type Stats struct {
	Events    int64 // events dispatched
	Parks     int64 // times any rank parked
	FinalTime Time  // virtual time when Run returned
}

// NewEngine creates an empty engine at virtual time zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time: zero before Run, the one
// shard's clock during and after a single-shard run. It is safe to call
// from event handlers and rank bodies alike. In a multi-shard run there
// is no global clock, so Now panics there; use Proc.Now instead.
func (e *Engine) Now() Time {
	switch len(e.shards) {
	case 0:
		return 0
	case 1:
		return e.shards[0].now
	default:
		panic("sim: Engine.Now has no global value in a multi-shard run; use Proc.Now")
	}
}

// Stats returns engine counters. Valid after Run has returned.
func (e *Engine) Stats() Stats { return e.stats }

// Observe installs a scheduling observer (nil to remove). Call before
// Run.
func (e *Engine) Observe(o Observer) { e.obs = o }

// At schedules fn to run at absolute virtual time t (clamped to now).
// It may be called before Run, from a rank body, or from another
// handler. Handlers run under the dispatcher and must not block. In a
// multi-shard run the target shard is ambiguous, so At panics there
// (schedule through AtRank).
func (e *Engine) At(t Time, fn func()) {
	switch {
	case e.shards == nil:
		if t < 0 {
			t = 0
		}
		e.pending.push(event{at: t, seq: int64(len(e.pending)) + 1, fn: fn})
	case e.draining:
		// Unwinding cleanup; the run is over.
	case len(e.shards) > 1:
		panic("sim: Engine.At is ambiguous in a multi-shard run; use AtRank")
	default:
		e.shards[0].at(t, fn)
	}
}

// After schedules fn to run d nanoseconds from now.
func (e *Engine) After(d Time, fn func()) { e.At(e.Now()+d, fn) }

// AtRank schedules fn at absolute virtual time t on behalf of rank
// from, to run where rank to's state lives. Whenever both ranks share
// a shard — always, in a single-shard run — it is exactly At. Across
// shards the event is appended to the sending shard's per-destination
// outbox and merged into the target heap at the next window boundary,
// ordered by (time, virtual send time, source shard, outbox sequence);
// t must be at least the sending shard's window end (guaranteed by any
// delay >= Lookahead), or AtRank panics with a lookahead violation.
// It must be called from a flow of control running on rank from's
// shard (from's rank body, or a handler scheduled to it).
func (e *Engine) AtRank(t Time, from, to int, fn func()) {
	if e.shards == nil {
		e.At(t, fn)
		return
	}
	if e.draining {
		return
	}
	src := e.procs[from].sh
	dst := e.procs[to].sh
	if src == dst {
		src.at(t, fn)
		return
	}
	if t < src.windowEnd {
		panic(fmt.Sprintf(
			"sim: cross-shard event violates lookahead: rank %d (shard %d) -> rank %d (shard %d) at %v, window ends %v",
			from, src.id, to, dst.id, t, src.windowEnd))
	}
	src.outSeq++
	src.outbox[dst.id] = append(src.outbox[dst.id],
		xev{at: t, sent: src.now, seq: src.outSeq, src: src.id, fn: fn})
}

// drainSignal is the panic value used to unwind a blocked rank body
// when the run ends abnormally; the rank runner recognizes and
// swallows it.
type drainSignal struct{}

// Elapse charges d nanoseconds of virtual time to the calling rank:
// the rank blocks and resumes once the clock has advanced by d.
//
// When no other rank is runnable and the wake lies inside the current
// window, Elapse runs inline instead of parking: it reserves the wake
// event's sequence number, dispatches any events due before the wake
// exactly as the dispatch loop would (same order, same clock updates,
// same counters), and advances the clock itself — eliminating the
// park/unpark channel ping-pong. If a dispatched event makes another
// rank runnable, that rank must run before this one resumes, so Elapse
// falls back to a real park whose wake event carries the reserved
// sequence number; every tie-break then resolves exactly as the parked
// path would. Which flow of control executes an event handler is
// invisible to the simulation, so the two paths are indistinguishable
// in every virtual-time observable.
func (p *Proc) Elapse(d Time) {
	if d <= 0 {
		return
	}
	sh, e := p.sh, p.e
	if e.draining {
		panic(drainSignal{})
	}
	due := sh.now + d
	if sh.rqLen > 0 || (e.MaxTime > 0 && due > e.MaxTime) || due >= sh.windowEnd {
		sh.atWake(due, p)
		sh.park(p, "elapse", false)
		return
	}
	// Reserve the wake event's sequence number before dispatching:
	// events run below may schedule new events, and a tie at due must
	// resolve in favor of this wake exactly as the parked path would.
	sh.seq++
	wakeSeq := sh.seq
	sh.stats.Parks++
	if sh.obs != nil {
		sh.obs.RankParked(p.id, "elapse", sh.now)
	}
	for {
		if len(sh.events) == 0 || sh.events[0].at > due ||
			(sh.events[0].at == due && sh.events[0].seq > wakeSeq) {
			// The wake event would be dispatched next: count it and
			// advance inline.
			sh.stats.Events++
			sh.now = due
			if sh.obs != nil {
				sh.obs.RankResumed(p.id, sh.now)
			}
			return
		}
		// Dispatch the earlier event exactly as the dispatch loop would.
		ev := sh.events.pop()
		if ev.at > sh.now {
			sh.now = ev.at
		}
		sh.stats.Events++
		if ev.wake != nil {
			e.Unpark(ev.wake)
		} else {
			ev.fn()
		}
		if sh.rqLen > 0 {
			sh.events.push(event{at: due, seq: wakeSeq, wake: p})
			sh.park(p, "elapse", true)
			return
		}
	}
}

// Park blocks the calling rank until another component calls Unpark on
// it. The why string is reported if the simulation deadlocks.
func (p *Proc) Park(why string) { p.sh.park(p, why, false) }

// Unpark marks a parked rank runnable. It may be called from event
// handlers or from the body of another (currently active) rank. Calling
// Unpark on a rank that is not parked or already runnable is a bug in
// the caller and panics, with one exception: unparking a rank that is
// already runnable is ignored, which lets multiple events wake the same
// waiter.
func (e *Engine) Unpark(p *Proc) {
	if e.draining {
		// Unwinding rank bodies may signal peers from their deferred
		// cleanup; the run is over, so wakes are dropped (every blocked
		// rank is resumed exactly once by the drain itself).
		return
	}
	switch p.state {
	case stateParked:
		p.state = stateRunnable
		p.sh.pushRunnable(p)
	case stateRunnable:
		// Already queued; nothing to do.
	case stateDone:
		panic(fmt.Sprintf("sim: unpark of finished rank %d", p.id))
	default:
		panic(fmt.Sprintf("sim: unpark of running rank %d", p.id))
	}
}

// Deadlock is returned (wrapped) by Run when every rank is parked and no
// events remain.
type Deadlock struct {
	Time    Time
	Waiting map[int]string // rank id -> park reason
}

func (d *Deadlock) Error() string {
	ids := make([]int, 0, len(d.Waiting))
	for id := range d.Waiting {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	s := fmt.Sprintf("sim: deadlock at t=%v:", d.Time)
	for _, id := range ids {
		s += fmt.Sprintf(" rank %d parked on %q;", id, d.Waiting[id])
	}
	return s
}

type rankPanic struct {
	rank int
	val  interface{}
}

func (r *rankPanic) Error() string {
	return fmt.Sprintf("sim: rank %d panicked: %v", r.rank, r.val)
}

// Procs returns the engine's ranks; valid during and after Run.
func (e *Engine) Procs() []*Proc { return e.procs }
