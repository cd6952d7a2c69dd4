package critpath

import (
	"testing"

	"repro/internal/obs/profile"
	"repro/internal/sim"
)

// TestHandBuiltJob records a three-rank job through the public hooks
// and checks the walk segment by segment. The critical path runs:
//
//   - rank 1 computes, waits for a direct (uncontended) mutex grant,
//     and releases a lock at 8;
//   - rank 0, waiting on that lock, is granted it at 8 and sends a
//     message to rank 1 at 10 (queued until 12, delivered at 20);
//   - rank 1's delivery handler forwards a message to rank 2 (sent at
//     20, queued until 24, delivered at 30), chained to the first one
//     through the ambient provenance;
//   - rank 2, waiting on that message since 1, resumes at 31 and
//     computes until it finishes at 40.
//
// The handler chain makes the walk jump from rank 2 through both wire
// hops straight to rank 0 at 10.
func TestHandBuiltJob(t *testing.T) {
	r := New(nil)
	// Attributions before the first job opens are dropped.
	r.RawPhase(0, profile.OpPut, profile.PhasePack, 0, 5)
	r.BeginJob("hand-built")

	r.RawPhase(1, profile.OpPut, profile.PhasePack, 0, 4)
	r.Parked(1, "mutex", 4)
	r.WakeGrant(1, -1, 6)
	r.Resumed(1, 7)
	r.RawPhase(1, profile.OpPut, profile.PhasePack, 7, 8)
	r.RawScope(1, profile.OpPut, 0, 8)

	r.Parked(2, "recv", 1)
	r.Parked(0, "lock", 2)
	r.WakeGrant(0, 1, 8)
	r.Resumed(0, 9)
	r.RawPhase(0, profile.OpPut, profile.PhaseShmCopy, 9, 10)
	ref1 := r.MsgHop(0, 10, 12, 20, 0, 1, r.Ambient())
	r.Finished(0, 11)

	prev := r.SetAmbient(ref1)
	ref2 := r.MsgHop(1, 20, 24, 30, 1, 2, r.Ambient())
	if got := r.SetAmbient(prev); got != ref1 || prev != 0 {
		t.Fatalf("SetAmbient restored %d over %d, want %d over 0", prev, got, ref1)
	}
	r.Finished(1, 25)

	r.WakeCause(2, ref2)
	r.WakeCause(2, ref1) // the first cause wins
	r.Resumed(2, 31)
	r.RawPhase(2, profile.OpGet, profile.PhasePack, 31, 40)
	r.RawPhase(2, profile.OpGet, profile.PhaseWire, 35, 38) // behind the cursor: dropped
	r.Finished(2, 40)

	// Hops 1 and 2 are the two grants.
	if ref1 != 3 || ref2 != 4 {
		t.Fatalf("refs %d, %d: want the 1-based hop indexes 3 and 4", ref1, ref2)
	}
	if h, ok := r.resolve(ref1); !ok || h.from != 0 || h.arr != 20 {
		t.Errorf("ref %d resolved to %+v, %v", ref1, h, ok)
	}
	if h, ok := r.resolve(ref2); !ok || h.prev != ref1 {
		t.Errorf("ref %d resolved to %+v, %v: want a hop chained to %d", ref2, h, ok, ref1)
	}
	for _, ref := range []Ref{0, Ref(len(r.hops) + 1), 1 << 40} {
		if h, ok := r.resolve(ref); ok {
			t.Errorf("ref %d resolved to %+v, want no edge", ref, h)
		}
	}

	jobs := r.Jobs()
	if len(jobs) != 1 {
		t.Fatalf("%d jobs analyzed, want 1", len(jobs))
	}
	want := Job{Label: "hand-built", Makespan: 40, PathNs: 40, Segments: 12, Start: 2}
	if jobs[0] != want {
		t.Errorf("job %+v, want %+v", jobs[0], want)
	}

	type cell struct {
		rank   int32
		op, ph uint8
		nic    int32
	}
	put, get := uint8(profile.OpPut), uint8(profile.OpGet)
	wire, queue := uint8(profile.PhaseWire), uint8(profile.PhaseWireQueue)
	pack, shm := uint8(profile.PhasePack), uint8(profile.PhaseShmCopy)
	for c, ns := range map[cell]sim.Time{
		{2, get, pack, -1}:         9, // [31, 40)
		{2, opNone, phBlocked, -1}: 1, // [30, 31): delivery to resume
		{1, opNone, wire, 1}:       6, // [24, 30): second hop on the wire
		{1, opNone, queue, 1}:      4, // [20, 24): second hop queued
		{0, opNone, wire, 0}:       8, // [12, 20): first hop on the wire
		{0, opNone, queue, 0}:      2, // [10, 12): first hop queued
		{0, put, shm, -1}:          1, // [9, 10)
		{0, opNone, phBlocked, -1}: 1, // [8, 9): grant by rank 1 to resume
		{1, put, pack, -1}:         5, // [0, 4) and [7, 8)
		{1, put, phBlocked, -1}:    1, // [6, 7): direct grant to resume
		{1, put, phLocal, -1}:      2, // [4, 6): inside the op scope
	} {
		key := cellKey{rank: c.rank, op: c.op, ph: c.ph, nic: c.nic}
		if got := r.agg.cells[key]; got != ns {
			t.Errorf("rank %d %s/%s nic %d: %d ns on the path, want %d",
				c.rank, OpName(c.op), PhaseName(c.ph), c.nic, got, ns)
		}
	}
	if len(r.agg.cells) != 11 {
		t.Errorf("%d attribution cells, want 11: %v", len(r.agg.cells), r.agg.cells)
	}
	for k, v := range map[chainKey]chainVal{
		{"recv", 1}:   {1, 1},
		{"lock", 1}:   {1, 1},
		{"mutex", -1}: {1, 1},
	} {
		if got := r.agg.chains[k]; got != v {
			t.Errorf("wait chain %+v: %+v, want %+v", k, got, v)
		}
	}
}

// TestUnresolvedCauseIsLocal: a wait whose cause names no recorded
// edge (here an out-of-range reference) is walked as a rank-local
// wait, and the next job's logs start empty.
func TestUnresolvedCauseIsLocal(t *testing.T) {
	r := New(nil)
	r.BeginJob("first")
	r.MsgHop(0, 0, 0, 1, -1, -1, 0)
	r.Finished(0, 1)
	r.BeginJob("second")
	r.Parked(0, "recv", 0)
	r.WakeCause(0, 1) // hop 1 belonged to the first job
	r.Resumed(0, 5)
	r.Finished(0, 6)

	jobs := r.Jobs()
	if len(jobs) != 2 {
		t.Fatalf("%d jobs analyzed, want 2", len(jobs))
	}
	if jb := jobs[1]; jb.Label != "second" || jb.Makespan != 6 || jb.PathNs != 6 {
		t.Errorf("second job %+v, want a 6 ns path over a 6 ns makespan", jb)
	}
	if got := r.agg.chains[chainKey{"recv", -1}]; got != (chainVal{1, 5}) {
		t.Errorf("recv wait %+v, want one rank-local 5 ns wait", got)
	}
	if got := r.agg.cells[cellKey{rank: 0, op: opNone, ph: phLocal, nic: -1}]; got != 2 {
		t.Errorf("local time %d ns, want 1 ns per job", got)
	}
}
