package sim

import (
	"fmt"
	"testing"
)

// rank is the per-rank surface the equivalence workloads are written
// against; *Proc and the reference scheduler's *refProc both provide
// it.
type rank interface {
	ID() int
	Now() Time
	Elapse(d Time)
	Park(why string)
}

// world is the scheduling surface the equivalence workloads are written
// against; *refSched provides it directly and engineWorld adapts an
// *Engine.
type world interface {
	At(t Time, fn func())
	AtRank(t Time, from, to int, fn func())
	Wake(r int) // Unpark rank r
}

// workload builds one job's rank body against a world.
type workload func(w world) func(rank)

type engineWorld struct{ *Engine }

func (w engineWorld) Wake(r int) { w.Unpark(w.Procs()[r]) }

// runEngine executes wl on e over n ranks.
func runEngine(e *Engine, n int, wl workload) error {
	body := wl(engineWorld{e})
	return e.Run(n, func(p *Proc) { body(p) })
}

// refSched is the goroutine-per-rank reference scheduler the engine is
// proven against. Every rank gets its own goroutine up front; a central
// loop resumes one rank at a time over a channel rendezvous, and every
// Elapse is a real park on a wake event. It shares only the event heap
// with the engine, so agreement pins the engine's continuation
// dispatch, inline Elapse, and shard windows to the plain semantics.
// Abnormal ends are reported but not drained: the reference only runs
// workloads that finish.
type refSched struct {
	now    Time
	seq    int64
	events eventHeap
	procs  []*refProc
	runq   []*refProc
	alive  int
	yield  chan struct{}
	failed error
	stats  Stats
	obs    Observer
}

type refProc struct {
	id    int
	s     *refSched
	state procState
	wake  chan struct{}
}

func (p *refProc) ID() int   { return p.id }
func (p *refProc) Now() Time { return p.s.now }

func (p *refProc) Elapse(d Time) {
	if d <= 0 {
		return
	}
	p.s.At(p.s.now+d, func() { p.s.Wake(p.id) })
	p.Park("elapse")
}

func (p *refProc) Park(why string) {
	s := p.s
	p.state = stateParked
	s.stats.Parks++
	if s.obs != nil {
		s.obs.RankParked(p.id, why, s.now)
	}
	s.yield <- struct{}{}
	<-p.wake
	p.state = stateRunning
	if s.obs != nil {
		s.obs.RankResumed(p.id, s.now)
	}
}

func (s *refSched) At(t Time, fn func()) {
	if t < s.now {
		t = s.now
	}
	s.seq++
	s.events.push(event{at: t, seq: s.seq, fn: fn})
}

func (s *refSched) AtRank(t Time, _, _ int, fn func()) { s.At(t, fn) }

func (s *refSched) Wake(r int) {
	if p := s.procs[r]; p.state == stateParked {
		p.state = stateRunnable
		s.runq = append(s.runq, p)
	}
}

// runReference executes wl over n ranks on the reference scheduler.
func runReference(n int, obs Observer, wl workload) (Stats, error) {
	s := &refSched{yield: make(chan struct{}), obs: obs, alive: n}
	body := wl(s)
	for i := 0; i < n; i++ {
		p := &refProc{id: i, s: s, wake: make(chan struct{})}
		s.procs = append(s.procs, p)
		s.runq = append(s.runq, p)
		go func() {
			defer func() {
				r := recover()
				if r != nil && s.failed == nil {
					s.failed = fmt.Errorf("rank %d panicked: %v", p.id, r)
				}
				p.state = stateDone
				s.alive--
				if f, ok := s.obs.(FinishObserver); ok && r == nil {
					f.RankFinished(p.id, s.now)
				}
				s.yield <- struct{}{}
			}()
			<-p.wake
			p.state = stateRunning
			body(p)
		}()
	}
	for {
		switch {
		case s.failed != nil:
			return s.stats, s.failed
		case len(s.runq) > 0:
			p := s.runq[0]
			s.runq = s.runq[1:]
			p.wake <- struct{}{}
			<-s.yield
		case s.alive == 0:
			s.stats.FinalTime = s.now
			return s.stats, nil
		case len(s.events) == 0:
			return s.stats, fmt.Errorf("reference deadlock at %v", s.now)
		default:
			ev := s.events.pop()
			if ev.at > s.now {
				s.now = ev.at
			}
			s.stats.Events++
			ev.fn()
		}
	}
}

// mustReference runs the reference and fails the test on error.
func mustReference(t testing.TB, n int, obs Observer, wl workload) Stats {
	t.Helper()
	st, err := runReference(n, obs, wl)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	return st
}

// TestReferenceSchedulerBasics pins the oracle itself on a hand-checked
// schedule, so an equivalence failure points at the engine.
func TestReferenceSchedulerBasics(t *testing.T) {
	var order []string
	st := mustReference(t, 2, nil, func(w world) func(rank) {
		return func(r rank) {
			r.Elapse(Time(10 * (r.ID() + 1)))
			order = append(order, fmt.Sprintf("r%d@%d", r.ID(), r.Now()))
		}
	})
	if got := fmt.Sprint(order); got != "[r0@10 r1@20]" {
		t.Errorf("order = %s", got)
	}
	if st != (Stats{Events: 2, Parks: 2, FinalTime: 20}) {
		t.Errorf("stats = %+v", st)
	}
}
