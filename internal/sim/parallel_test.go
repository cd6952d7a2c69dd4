package sim

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// rankLogObs records scheduling callbacks keyed by rank, so per-rank
// observer streams can be compared across partitions (each shard owns
// one instance; maps are merged only after Run returns).
type rankLogObs struct {
	logs map[int][]string
}

func newRankLogObs() *rankLogObs { return &rankLogObs{logs: map[int][]string{}} }

func (o *rankLogObs) RankParked(rank int, why string, at Time) {
	o.logs[rank] = append(o.logs[rank], fmt.Sprintf("park %s @%d", why, at))
}

func (o *rankLogObs) RankResumed(rank int, at Time) {
	o.logs[rank] = append(o.logs[rank], fmt.Sprintf("resume @%d", at))
}

// confinedWorkload is a shard-confined message workload: every rank
// alternates compute elapses with messages to the rank halfway across
// the job, sent through AtRank with at least lat of virtual delay, and
// finishes only after receiving everything addressed to it — so the
// run ends quiescent and is schedule-equivalent under any node-aligned
// partition. All mutable state is per-rank and touched only by the
// owning rank's shard (message handlers run at the destination).
func confinedWorkload(n, rounds int, lat Time) workload {
	return func(w world) func(rank) {
		inbox := make([]int, n)
		waiting := make([]bool, n)
		return func(p rank) {
			r := p.ID()
			partner := (r + n/2) % n
			for i := 0; i < rounds; i++ {
				p.Elapse(Time(101*(r%7+1) + 13*i))
				at := p.Now() + lat + Time(17*r+11*i)
				w.AtRank(at, r, partner, func() {
					inbox[partner]++
					if waiting[partner] {
						waiting[partner] = false
						w.Wake(partner)
					}
				})
			}
			for inbox[r] < rounds {
				waiting[r] = true
				p.Park("recv")
			}
		}
	}
}

const confinedRanks, confinedRounds = 16, 6

// runConfined executes confinedWorkload, whose messages carry at least
// lat of delay, on the engine with the given shard count and lookahead
// and returns the engine stats plus the per-rank observer streams.
func runConfined(t *testing.T, shards int, lat, lookahead Time) (Stats, map[int][]string) {
	t.Helper()
	e := NewEngine()
	e.Shards = shards
	e.Lookahead = lookahead
	per := make([]*rankLogObs, shards)
	for s := range per {
		per[s] = newRankLogObs()
	}
	e.ShardObservers = func(s int) Observer { return per[s] }
	if err := runEngine(e, confinedRanks, confinedWorkload(confinedRanks, confinedRounds, lat)); err != nil {
		t.Fatalf("shards=%d: %v", shards, err)
	}
	logs := map[int][]string{}
	for _, o := range per {
		for r, l := range o.logs {
			logs[r] = l
		}
	}
	return e.Stats(), logs
}

// TestParallelEquivalence is the sim-level acceptance test for sharded
// execution: for a shard-confined workload, engine counters, final
// time, and every rank's observer stream are identical between the
// goroutine reference scheduler and the engine at 1, 2, 4, and 8
// shards. The inline case uses the message latency as lookahead, so
// most elapses fit inside a window and take Elapse's inline fast path;
// the noInline case uses a one-nanosecond lookahead, so with more than
// one shard every Elapse crosses the window end and parks. (A single
// shard has no window end, so its runs take the inline path in both.)
func TestParallelEquivalence(t *testing.T) {
	const lat = Time(4000)
	ref := newRankLogObs()
	refStats := mustReference(t, confinedRanks, ref, confinedWorkload(confinedRanks, confinedRounds, lat))
	for _, tc := range []struct {
		name      string
		lookahead Time
	}{{"inline", lat}, {"noInline", 1}} {
		t.Run(tc.name, func(t *testing.T) {
			for _, shards := range []int{1, 2, 4, 8} {
				parStats, parLogs := runConfined(t, shards, lat, tc.lookahead)
				compareRankLogs(t, fmt.Sprintf("shards-%d", shards), refStats, parStats, ref.logs, parLogs)
			}
		})
	}
}

func compareRankLogs(t *testing.T, label string, refStats, gotStats Stats, ref, got map[int][]string) {
	t.Helper()
	if refStats != gotStats {
		t.Errorf("%s: stats diverge: ref=%+v got=%+v", label, refStats, gotStats)
	}
	if len(ref) != len(got) {
		t.Fatalf("%s: rank sets differ: %d vs %d", label, len(ref), len(got))
	}
	for r, rl := range ref {
		gl := got[r]
		if len(rl) != len(gl) {
			t.Errorf("%s: rank %d stream length %d vs %d\nref=%v\ngot=%v", label, r, len(rl), len(gl), rl, gl)
			continue
		}
		for i := range rl {
			if rl[i] != gl[i] {
				t.Errorf("%s: rank %d entry %d: ref=%q got=%q", label, r, i, rl[i], gl[i])
			}
		}
	}
}

// TestParallelDeterminism: two identical multi-shard runs produce
// identical stats and observer streams regardless of host scheduling.
func TestParallelDeterminism(t *testing.T) {
	s1, l1 := runConfined(t, 4, 4000, 4000)
	s2, l2 := runConfined(t, 4, 4000, 4000)
	compareRankLogs(t, "repeat", s1, s2, l1, l2)
}

// TestParallelSingleShardWorkload: the full scheduling workload from
// the inline-Elapse equivalence suite (At, Unpark from handlers, tie
// breaks) runs identically to the reference with all ranks on one
// shard: an explicitly configured single shard — the configuration the
// full communication stacks use — and shard 0 of a two-shard engine
// whose windows force every Elapse onto the parked path.
func TestParallelSingleShardWorkload(t *testing.T) {
	ref := runRef(t, 4, schedWorkload)
	t.Run("inline", func(t *testing.T) {
		e := NewEngine()
		e.Shards = 1
		e.Partition = []int{0, 0, 0, 0}
		e.Lookahead = 1000
		diffRuns(t, ref, runEng(t, e, 4, schedWorkload))
	})
	t.Run("noInline", func(t *testing.T) { diffRuns(t, ref, runEngParked(t, 4, schedWorkload)) })
}

// TestParallelLookaheadViolation: a cross-shard event scheduled closer
// than the window bound is a workload bug and must surface as a run
// error naming the violation.
func TestParallelLookaheadViolation(t *testing.T) {
	e := NewEngine()
	e.Shards = 2
	e.Lookahead = 1000
	err := e.Run(4, func(p *Proc) {
		if p.ID() == 0 {
			e.AtRank(p.Now()+1, 0, 3, func() {})
		}
		p.Elapse(10)
	})
	if err == nil || !strings.Contains(err.Error(), "lookahead") {
		t.Fatalf("want lookahead violation error, got %v", err)
	}
}

// TestParallelConfigErrors: invalid parallel configurations fail fast
// with descriptive errors instead of racing or hanging.
func TestParallelConfigErrors(t *testing.T) {
	body := func(p *Proc) {}
	t.Run("missing lookahead", func(t *testing.T) {
		e := NewEngine()
		e.Shards = 2
		if err := e.Run(4, body); err == nil || !strings.Contains(err.Error(), "Lookahead") {
			t.Fatalf("want Lookahead error, got %v", err)
		}
	})
	t.Run("bad partition length", func(t *testing.T) {
		e := NewEngine()
		e.Shards = 2
		e.Lookahead = 10
		e.Partition = []int{0, 1}
		if err := e.Run(4, body); err == nil || !strings.Contains(err.Error(), "Partition") {
			t.Fatalf("want Partition error, got %v", err)
		}
	})
	t.Run("partition out of range", func(t *testing.T) {
		e := NewEngine()
		e.Shards = 2
		e.Lookahead = 10
		e.Partition = []int{0, 1, 2, 0}
		if err := e.Run(4, body); err == nil || !strings.Contains(err.Error(), "Partition") {
			t.Fatalf("want Partition range error, got %v", err)
		}
	})
	t.Run("racy single observer", func(t *testing.T) {
		e := NewEngine()
		e.Shards = 2
		e.Lookahead = 10
		e.Observe(&traceObs{})
		if err := e.Run(4, body); err == nil || !strings.Contains(err.Error(), "ShardObservers") {
			t.Fatalf("want ShardObservers error, got %v", err)
		}
	})
}

// shardedEngine builds a k-shard engine for the abnormal-end tests.
func shardedEngine(k int) *Engine {
	e := NewEngine()
	e.Shards = k
	e.Lookahead = 1000
	return e
}

// parallelEngine builds a 4-shard engine for the abnormal-end tests.
func parallelEngine() *Engine { return shardedEngine(4) }

// TestParallelDrainOnPanic: a rank panic on one shard drains every
// blocked fiber on every shard — deterministically, without leaking
// goroutines — before Run returns.
func TestParallelDrainOnPanic(t *testing.T) {
	before := runtime.NumGoroutine()
	for iter := 0; iter < 20; iter++ {
		e := parallelEngine()
		err := e.Run(16, func(p *Proc) {
			if p.ID() == 5 {
				p.Elapse(10)
				panic("kaboom")
			}
			p.Park("victim")
		})
		if err == nil || !strings.Contains(err.Error(), "kaboom") {
			t.Fatalf("iter %d: want panic error, got %v", iter, err)
		}
	}
	if after := settledGoroutines(before + 2); after > before+2 {
		t.Fatalf("goroutines leaked: before=%d after=%d", before, after)
	}
}

// TestParallelDeadlock: all ranks parked with no events anywhere is a
// global deadlock, reported with the full waiting set and drained
// cleanly.
func TestParallelDeadlock(t *testing.T) {
	before := runtime.NumGoroutine()
	for iter := 0; iter < 20; iter++ {
		e := parallelEngine()
		err := e.Run(16, func(p *Proc) {
			p.Park("forever")
		})
		var d *Deadlock
		if !errors.As(err, &d) {
			t.Fatalf("iter %d: want *Deadlock, got %v", iter, err)
		}
		if len(d.Waiting) != 16 {
			t.Fatalf("iter %d: want 16 waiting ranks, got %d", iter, len(d.Waiting))
		}
	}
	if after := settledGoroutines(before + 2); after > before+2 {
		t.Fatalf("goroutines leaked: before=%d after=%d", before, after)
	}
}

// TestParallelMaxTime: the virtual-time watchdog fires under parallel
// execution and drains all shards.
func TestParallelMaxTime(t *testing.T) {
	before := runtime.NumGoroutine()
	for iter := 0; iter < 20; iter++ {
		e := parallelEngine()
		e.MaxTime = 5000
		err := e.Run(16, func(p *Proc) {
			for {
				p.Elapse(300)
			}
		})
		var tl *ErrTimeLimit
		if !errors.As(err, &tl) {
			t.Fatalf("iter %d: want *ErrTimeLimit, got %v", iter, err)
		}
	}
	if after := settledGoroutines(before + 2); after > before+2 {
		t.Fatalf("goroutines leaked: before=%d after=%d", before, after)
	}
}

// TestParallelShardOf covers the default contiguous partition and the
// explicit override.
func TestParallelShardOf(t *testing.T) {
	e := NewEngine()
	e.Shards = 4
	want := []int{0, 0, 1, 1, 2, 2, 3, 3}
	for i, w := range want {
		if got := e.ShardOf(i, len(want)); got != w {
			t.Errorf("ShardOf(%d) = %d, want %d", i, got, w)
		}
	}
	e.Partition = []int{3, 2, 1, 0}
	for i, w := range e.Partition {
		if got := e.ShardOf(i, 4); got != w {
			t.Errorf("explicit ShardOf(%d) = %d, want %d", i, got, w)
		}
	}
}

// BenchmarkParallelShards drives the shard-confined workload across
// shard counts; under -race in CI this is the multi-shard smoke.
func BenchmarkParallelShards(b *testing.B) {
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards-%d", shards), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e := NewEngine()
				e.Shards = shards
				e.Lookahead = 4000
				if err := runEngine(e, 64, confinedWorkload(64, 8, 4000)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
