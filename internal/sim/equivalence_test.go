package sim

import (
	"fmt"
	"testing"
)

// traceObs records every scheduling callback with its virtual time, so
// two runs can be compared event-for-event.
type traceObs struct {
	log []string
}

func (o *traceObs) RankParked(rank int, why string, at Time) {
	o.log = append(o.log, fmt.Sprintf("park r%d %s @%d", rank, why, at))
}

func (o *traceObs) RankResumed(rank int, at Time) {
	o.log = append(o.log, fmt.Sprintf("resume r%d @%d", rank, at))
}

func (o *traceObs) RankFinished(rank int, at Time) {
	o.log = append(o.log, fmt.Sprintf("finish r%d @%d", rank, at))
}

// schedWorkload is a program that exercises every scheduling pathway
// the engine has: inline-eligible elapses, elapses with events due
// before the wake, events that unpark other ranks mid-elapse (forcing
// the reserved-seq fallback), exact ties at the wake time, and explicit
// park/unpark handshakes. Each rank appends to a shared order log, so
// any divergence in rank interleaving shows up directly.
func schedWorkload(order *[]string) workload {
	return func(w world) func(rank) {
		return func(p rank) {
			mark := func(tag string) {
				*order = append(*order, fmt.Sprintf("r%d %s @%d", p.ID(), tag, p.Now()))
			}
			switch p.ID() {
			case 0:
				// Plain elapses, plus a handler scheduled to fire strictly
				// inside the second elapse window.
				p.Elapse(10)
				mark("a")
				w.At(p.Now()+5, func() { *order = append(*order, "ev0") })
				p.Elapse(20)
				mark("b")
				// Handler at exactly the wake time: the wake was scheduled
				// first, so it must win the tie.
				w.At(p.Now()+7, func() { *order = append(*order, "ev-tie") })
				p.Elapse(7)
				mark("c")
			case 1:
				// Handshake: park until rank 2 unparks us mid-elapse.
				p.Elapse(3)
				mark("wait")
				p.Park("handshake")
				mark("woken")
				p.Elapse(50)
				mark("done")
			case 2:
				// Unpark rank 1 from an event handler that fires while some
				// other rank is elapsing — the inline path must fall back.
				w.At(15, func() { w.Wake(1) })
				p.Elapse(40)
				mark("d")
			case 3:
				// Tight loop of short elapses to interleave with everyone.
				for i := 0; i < 8; i++ {
					p.Elapse(6)
				}
				mark("loop-done")
			}
		}
	}
}

// collidingWorkload runs n ranks whose elapse durations repeatedly
// collide at common multiples, stressing the tie-break machinery.
func collidingWorkload(order *[]string) workload {
	return func(world) func(rank) {
		return func(p rank) {
			for i := 0; i < 12; i++ {
				p.Elapse(Time(2 * (p.ID()%3 + 1)))
				*order = append(*order, fmt.Sprintf("r%d@%d", p.ID(), p.Now()))
			}
		}
	}
}

// run is one execution's observables: engine counters, the workload's
// own order log, and the observer callback stream.
type run struct {
	stats Stats
	order []string
	obs   []string
}

// runRef executes the workload built by mk on the reference scheduler.
func runRef(t *testing.T, n int, mk func(*[]string) workload) run {
	t.Helper()
	var r run
	o := &traceObs{}
	r.stats = mustReference(t, n, o, mk(&r.order))
	r.obs = o.log
	return r
}

// runEng executes the workload built by mk on e.
func runEng(t *testing.T, e *Engine, n int, mk func(*[]string) workload) run {
	t.Helper()
	var r run
	o := &traceObs{}
	e.Observe(o)
	if err := runEngine(e, n, mk(&r.order)); err != nil {
		t.Fatal(err)
	}
	r.stats, r.obs = e.Stats(), o.log
	return r
}

// parkedWorld adapts an engine whose ranks all live on shard 0 of a
// multi-shard run, where Engine.At is ambiguous: At schedules on
// shard 0 through AtRank.
type parkedWorld struct{ engineWorld }

func (w parkedWorld) At(t Time, fn func()) { w.AtRank(t, 0, 0, fn) }

// runEngParked executes the workload built by mk with every rank on
// shard 0 of a two-shard engine with a one-nanosecond lookahead. Each
// window then ends one nanosecond after it opens, so every Elapse
// crosses the window end and takes the parked path instead of the
// inline one; the empty second shard only bounds the windows.
func runEngParked(t *testing.T, n int, mk func(*[]string) workload) run {
	t.Helper()
	e := NewEngine()
	e.Shards = 2
	e.Lookahead = 1
	e.Partition = make([]int, n)
	var r run
	o := &traceObs{}
	e.ShardObservers = func(s int) Observer {
		if s == 0 {
			return o
		}
		return nil
	}
	body := mk(&r.order)(parkedWorld{engineWorld{e}})
	if err := e.Run(n, func(p *Proc) { body(p) }); err != nil {
		t.Fatal(err)
	}
	r.stats, r.obs = e.Stats(), o.log
	return r
}

// diffRuns fails the test on any divergence between two executions.
func diffRuns(t *testing.T, ref, got run) {
	t.Helper()
	if ref.stats != got.stats {
		t.Errorf("stats diverge: reference=%+v engine=%+v", ref.stats, got.stats)
	}
	for _, c := range []struct {
		name     string
		ref, got []string
	}{{"order", ref.order, got.order}, {"observer", ref.obs, got.obs}} {
		if len(c.ref) != len(c.got) {
			t.Fatalf("%s length: reference=%d engine=%d\nref=%v\ngot=%v",
				c.name, len(c.ref), len(c.got), c.ref, c.got)
		}
		for i := range c.ref {
			if c.ref[i] != c.got[i] {
				t.Errorf("%s[%d]: reference=%q engine=%q", c.name, i, c.ref[i], c.got[i])
			}
		}
	}
}

// TestInlineElapseEquivalence proves the engine, whose Elapse takes the
// inline fast path whenever it can, produces a schedule byte-identical
// to the reference scheduler, where every Elapse parks: same rank
// interleaving, same virtual timestamps, same engine counters, and the
// same observer callback sequence.
func TestInlineElapseEquivalence(t *testing.T) {
	diffRuns(t, runRef(t, 4, schedWorkload), runEng(t, NewEngine(), 4, schedWorkload))
}

// TestInlineElapseEquivalenceManyRanks stresses the tie-break machinery
// with ranks whose elapse durations repeatedly collide at common
// multiples.
func TestInlineElapseEquivalenceManyRanks(t *testing.T) {
	diffRuns(t, runRef(t, 6, collidingWorkload), runEng(t, NewEngine(), 6, collidingWorkload))
}

// BenchmarkElapseSoloRank measures the inline fast path: one rank
// sleeping repeatedly with no competing events.
func BenchmarkElapseSoloRank(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	if err := e.Run(1, func(p *Proc) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Elapse(1)
		}
	}); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkElapseTwoRanks measures the contended path: two ranks whose
// sleeps interleave, so every elapse wakes through the dispatcher.
func BenchmarkElapseTwoRanks(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	if err := e.Run(2, func(p *Proc) {
		if p.ID() == 0 {
			b.ResetTimer()
		}
		for i := 0; i < b.N; i++ {
			p.Elapse(1)
		}
	}); err != nil {
		b.Fatal(err)
	}
}
