package sim

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"
)

// handoffWorkload exercises the continuation dispatcher over n ranks:
// bodies that finish without ever parking (run back-to-back on one
// fiber), a token passed along a ring of parked ranks both by direct
// Unpark from a rank body and from event handlers, and elapses that
// interleave with the handoffs.
func handoffWorkload(n int) func(*[]string) workload {
	return func(order *[]string) workload {
		return func(w world) func(rank) {
			var ring []int
			for r := 1; r < n; r++ {
				if r%3 != 0 {
					ring = append(ring, r)
				}
			}
			next := map[int]int{}
			for i, r := range ring {
				next[r] = -1
				if i+1 < len(ring) {
					next[r] = ring[i+1]
				}
			}
			return func(p rank) {
				r := p.ID()
				mark := func(tag string) {
					*order = append(*order, fmt.Sprintf("r%d %s @%d", r, tag, p.Now()))
				}
				switch {
				case r == 0:
					p.Elapse(5)
					mark("start")
					w.Wake(ring[0])
					p.Elapse(1)
					mark("done")
				case r%3 == 0:
					mark("fresh")
				default:
					p.Park("token")
					mark("token")
					p.Elapse(Time(r%4 + 1))
					if nx := next[r]; nx >= 0 && r%2 == 0 {
						w.Wake(nx)
					} else if nx >= 0 {
						w.At(p.Now()+2, func() { w.Wake(nx) })
					}
				}
			}
		}
	}
}

// TestContinuationEquivalence proves the engine's continuation
// dispatch produces a schedule byte-identical to the goroutine-per-rank
// reference scheduler: same rank interleaving, same virtual timestamps,
// same engine counters, and the same observer callback sequence — on
// the default engine, where Elapse takes its inline fast path whenever
// it can, and with every Elapse forced onto the parked path.
func TestContinuationEquivalence(t *testing.T) {
	wl := handoffWorkload(8)
	ref := runRef(t, 8, wl)
	t.Run("inline", func(t *testing.T) { diffRuns(t, ref, runEng(t, NewEngine(), 8, wl)) })
	t.Run("noInline", func(t *testing.T) { diffRuns(t, ref, runEngParked(t, 8, wl)) })
}

// TestContinuationEquivalenceManyRanks repeats the comparison with
// enough ranks that fiber reuse and wake-slot pooling cycle many times.
func TestContinuationEquivalenceManyRanks(t *testing.T) {
	wl := handoffWorkload(64)
	diffRuns(t, runRef(t, 64, wl), runEng(t, NewEngine(), 64, wl))
}

// TestContinuationDeadlockDetection: ranks parked after an elapse with
// nothing left to wake them are reported as a Deadlock.
func TestContinuationDeadlockDetection(t *testing.T) {
	e := NewEngine()
	err := e.Run(2, func(p *Proc) {
		p.Elapse(5)
		p.Park("never-signalled")
	})
	var d *Deadlock
	if !errors.As(err, &d) {
		t.Fatalf("want *Deadlock, got %v", err)
	}
	if len(d.Waiting) != 2 {
		t.Fatalf("want 2 waiting ranks, got %v", d.Waiting)
	}
}

// TestContinuationRankPanic: a rank panic surfaces as the run error
// while peers are parked.
func TestContinuationRankPanic(t *testing.T) {
	e := NewEngine()
	err := e.Run(3, func(p *Proc) {
		p.Elapse(Time(p.ID() + 1))
		if p.ID() == 1 {
			panic("boom")
		}
		p.Park("stuck")
	})
	if err == nil || !contains(err.Error(), "boom") {
		t.Fatalf("want panic error containing boom, got %v", err)
	}
}

// TestContinuationMaxTime: the virtual-time watchdog fires with several
// ranks elapsing.
func TestContinuationMaxTime(t *testing.T) {
	e := NewEngine()
	e.MaxTime = 100
	err := e.Run(2, func(p *Proc) {
		for {
			p.Elapse(60)
		}
	})
	var tl *ErrTimeLimit
	if !errors.As(err, &tl) {
		t.Fatalf("want *ErrTimeLimit, got %v", err)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// settledGoroutines waits for the runtime's goroutine count to drop to
// at most want, tolerating scheduling delay after Run returns.
func settledGoroutines(want int) int {
	var n int
	for i := 0; i < 100; i++ {
		n = runtime.NumGoroutine()
		if n <= want {
			return n
		}
		time.Sleep(time.Millisecond)
	}
	return n
}

// leakConfigs are the engine configurations the leak tests drain. They
// carry the names of the scheduler modes they once covered, each now
// the configuration closest to that mode's host threading: goroutine
// puts every rank on a shard of its own (one flow of control per rank),
// continuation is the default single shard, and parallel runs four
// shards.
var leakConfigs = []struct {
	name   string
	engine func(n int) *Engine
}{
	{"goroutine", shardedEngine},
	{"continuation", func(int) *Engine { return NewEngine() }},
	{"parallel", func(int) *Engine { return shardedEngine(4) }},
}

// checkNoLeak runs abnormal-end iterations of one engine configuration
// and fails if the drained ranks' goroutines outlive Run.
func checkNoLeak(t *testing.T, iter func(t *testing.T, e *Engine, i int), engine func() *Engine) {
	t.Helper()
	before := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		iter(t, engine(), i)
	}
	if after := settledGoroutines(before + 2); after > before+2 {
		t.Fatalf("goroutines leaked: before=%d after=%d", before, after)
	}
}

// TestNoGoroutineLeakOnPanic: a rank panic with peers parked must not
// leak the parked ranks' goroutines — they are drained before Run
// returns.
func TestNoGoroutineLeakOnPanic(t *testing.T) {
	for _, c := range leakConfigs {
		t.Run(c.name, func(t *testing.T) {
			checkNoLeak(t, func(t *testing.T, e *Engine, i int) {
				err := e.Run(8, func(p *Proc) {
					if p.ID() == 3 {
						p.Elapse(10)
						panic("kaboom")
					}
					p.Park("victim")
				})
				if err == nil || !contains(err.Error(), "kaboom") {
					t.Fatalf("iter %d: want panic error, got %v", i, err)
				}
			}, func() *Engine { return c.engine(8) })
		})
	}
}

// TestNoGoroutineLeakOnDeadlock: deadlocked runs drain every parked
// rank before returning.
func TestNoGoroutineLeakOnDeadlock(t *testing.T) {
	for _, c := range leakConfigs {
		t.Run(c.name, func(t *testing.T) {
			checkNoLeak(t, func(t *testing.T, e *Engine, i int) {
				err := e.Run(8, func(p *Proc) {
					p.Park("forever")
				})
				var d *Deadlock
				if !errors.As(err, &d) {
					t.Fatalf("iter %d: want *Deadlock, got %v", i, err)
				}
			}, func() *Engine { return c.engine(8) })
		})
	}
}

// TestNoGoroutineLeakOnMaxTime: time-limit aborts drain too.
func TestNoGoroutineLeakOnMaxTime(t *testing.T) {
	for _, c := range leakConfigs {
		t.Run(c.name, func(t *testing.T) {
			checkNoLeak(t, func(t *testing.T, e *Engine, i int) {
				e.MaxTime = 50
				err := e.Run(4, func(p *Proc) {
					for {
						p.Elapse(30)
					}
				})
				var tl *ErrTimeLimit
				if !errors.As(err, &tl) {
					t.Fatalf("iter %d: want *ErrTimeLimit, got %v", i, err)
				}
			}, func() *Engine { return c.engine(4) })
		})
	}
}

// TestContinuationFiberReuse: ranks that never park all execute on a
// bounded set of fibers — the run must not spawn one goroutine per
// rank when bodies run to completion back-to-back.
func TestContinuationFiberReuse(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine()
	peak := 0
	err := e.Run(10000, func(p *Proc) {
		if p.ID()%1000 == 0 {
			if n := runtime.NumGoroutine(); n > peak {
				peak = n
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if peak > before+10 {
		t.Fatalf("fiber reuse broken: %d goroutines live during a no-park run (baseline %d)", peak, before)
	}
}

// BenchmarkManyRanks compares host scheduling overhead of the engine
// with the goroutine-per-rank reference on a park-heavy interleaving
// workload.
func BenchmarkManyRanks(b *testing.B) {
	wl := func(world) func(rank) {
		return func(p rank) {
			for j := 0; j < 16; j++ {
				p.Elapse(Time(1 + p.ID()%7))
			}
		}
	}
	b.Run("engine", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := runEngine(NewEngine(), 256, wl); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			mustReference(b, 256, nil, wl)
		}
	})
}
