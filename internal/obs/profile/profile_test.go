package profile

import (
	"testing"

	"repro/internal/sim"
)

// fakeClock is a settable virtual clock.
type fakeClock struct{ t sim.Time }

func (c *fakeClock) Now() sim.Time { return c.t }

// rawPhase and rawScope are records captured by recSink.
type rawPhase struct {
	rank       int
	op         Op
	ph         Phase
	start, end sim.Time
}

type rawScope struct {
	rank       int
	op         Op
	start, end sim.Time
}

// recSink records the raw stream a Profiler forwards.
type recSink struct {
	phases []rawPhase
	scopes []rawScope
}

func (s *recSink) RawPhase(rank int, op Op, ph Phase, start, end sim.Time) {
	s.phases = append(s.phases, rawPhase{rank, op, ph, start, end})
}

func (s *recSink) RawScope(rank int, op Op, start, end sim.Time) {
	s.scopes = append(s.scopes, rawScope{rank, op, start, end})
}

// sumOf returns the recorded SumNs of hs[rank], or -1 when the rank
// has no histogram.
func sumOf(hs []Hist, rank int) int64 {
	if rank >= len(hs) {
		return -1
	}
	return hs[rank].SumNs
}

// newProf returns a profiler with a job open on a fake clock at zero.
func newProf() (*Profiler, *fakeClock) {
	p := New()
	c := &fakeClock{}
	p.BeginJob(c, 2)
	return p, c
}

// TestNestedBeginFolds: a Begin inside an open scope folds into the
// outer operation; only the outer End commits, under the outer op.
func TestNestedBeginFolds(t *testing.T) {
	p, c := newProf()
	c.t = 10
	p.Begin(1, OpPut)
	c.t = 20
	p.Begin(1, OpGet)
	p.PhaseAt(1, PhaseWire, 20, 30)
	c.t = 30
	p.End(1)
	if !p.InScope(1) {
		t.Fatal("inner End closed the outer scope")
	}
	c.t = 40
	p.End(1)
	if p.InScope(1) {
		t.Fatal("outer End left the scope open")
	}
	if got := p.TotalHists(OpPut); sumOf(got, 1) != 30 || got[1].Count != 1 {
		t.Errorf("put totals %+v, want one 30 ns op on rank 1", got)
	}
	if got := sumOf(p.PhaseHists(OpPut, PhaseWire), 1); got != 10 {
		t.Errorf("put wire %d ns, want 10", got)
	}
	if got := sumOf(p.PhaseHists(OpPut, PhaseOther), 1); got != 20 {
		t.Errorf("put other %d ns, want the 20 ns residual", got)
	}
	if got := p.TotalHists(OpGet); got != nil {
		t.Errorf("nested get recorded its own totals %+v", got)
	}
}

// TestOverlappingPhasesClip: each interval is credited only past the
// scope cursor, an interval wholly behind it is dropped without moving
// it back, and the uncovered remainder goes to PhaseOther, so the
// phases sum exactly to the total.
func TestOverlappingPhasesClip(t *testing.T) {
	p, c := newProf()
	p.Begin(0, OpPutS)
	p.PhaseAt(0, PhasePack, 0, 10)
	p.PhaseAt(0, PhaseWire, 5, 15)        // 10..15 credited
	p.PhaseAt(0, PhaseWireQueue, 2, 8)    // behind the cursor: nothing
	p.PhaseAt(0, PhaseShmCopy, 20, 25)    // gap 15..20 left uncovered
	p.PhaseAt(0, PhaseTargetProc, 22, 24) // behind the cursor again
	c.t = 30
	p.End(0)
	want := map[Phase]int64{
		PhasePack: 10, PhaseWire: 5, PhaseWireQueue: -1, PhaseShmCopy: 5,
		PhaseTargetProc: -1, PhaseOther: 10,
	}
	for ph, ns := range want {
		if got := sumOf(p.PhaseHists(OpPutS, ph), 0); got != ns {
			t.Errorf("%s: %d ns, want %d", ph, got, ns)
		}
	}
	if got := sumOf(p.TotalHists(OpPutS), 0); got != 30 {
		t.Errorf("total %d ns, want 30", got)
	}
}

// TestNegativeResidualClamps: a nonblocking operation whose attributed
// wire time runs past End records the phase sum as its total and no
// PhaseOther.
func TestNegativeResidualClamps(t *testing.T) {
	p, c := newProf()
	p.Begin(0, OpNbPut)
	p.PhaseAt(0, PhaseWireQueue, 0, 10)
	p.PhaseAt(0, PhaseWire, 10, 50)
	c.t = 20
	p.End(0)
	if got := sumOf(p.TotalHists(OpNbPut), 0); got != 50 {
		t.Errorf("total %d ns, want the 50 ns phase sum", got)
	}
	if got := p.PhaseHists(OpNbPut, PhaseOther); got != nil {
		t.Errorf("negative residual recorded as other: %+v", got)
	}
}

// TestSinkSeesUngatedStream: the sink receives every PhaseAt before
// the profiler's gates — with NumOps when no scope is open, and with
// the scope's op (and the raw, unclipped interval) when one is — plus
// each scope as it closes. The profiler itself drops the scopeless
// interval.
func TestSinkSeesUngatedStream(t *testing.T) {
	p, c := newProf()
	s := &recSink{}
	p.SetSink(s)
	p.PhaseAt(1, PhaseEpochWait, 0, 5)
	c.t = 5
	p.Begin(1, OpAcc)
	p.PhaseAt(1, PhaseTargetQueue, 5, 9)
	p.PhaseAt(1, PhaseTargetProc, 7, 12)
	c.t = 12
	p.End(1)
	p.PhaseAt(1, PhaseWire, 12, 14) // the scope is sealed
	p.PhaseAt(-1, PhaseWire, 0, 1)  // no rank: dropped everywhere

	wantPhases := []rawPhase{
		{1, NumOps, PhaseEpochWait, 0, 5},
		{1, OpAcc, PhaseTargetQueue, 5, 9},
		{1, OpAcc, PhaseTargetProc, 7, 12},
		{1, NumOps, PhaseWire, 12, 14},
	}
	if len(s.phases) != len(wantPhases) {
		t.Fatalf("sink saw %d phases %+v, want %+v", len(s.phases), s.phases, wantPhases)
	}
	for i, w := range wantPhases {
		if s.phases[i] != w {
			t.Errorf("sink phase %d: %+v, want %+v", i, s.phases[i], w)
		}
	}
	if want := (rawScope{1, OpAcc, 5, 12}); len(s.scopes) != 1 || s.scopes[0] != want {
		t.Errorf("sink scopes %+v, want %+v", s.scopes, want)
	}
	for _, ph := range []Phase{PhaseEpochWait, PhaseWire} {
		for op := Op(0); op < NumOps; op++ {
			if got := p.PhaseHists(op, ph); got != nil {
				t.Errorf("scopeless %s interval recorded under %s: %+v", ph, op, got)
			}
		}
	}
	if got := sumOf(p.PhaseHists(OpAcc, PhaseTargetProc), 1); got != 3 {
		t.Errorf("acc target.proc %d ns, want the 3 ns past the cursor", got)
	}
	if got := sumOf(p.TotalHists(OpAcc), 1); got != 7 {
		t.Errorf("acc total %d ns, want 7", got)
	}
}
