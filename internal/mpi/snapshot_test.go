package mpi

import (
	"bytes"
	"testing"

	"repro/internal/fabric"
	"repro/internal/sim"
)

// Snapshot semantics of the RMA paths: a put or accumulate carries the
// origin bytes as they were at issue, and a get carries the target bytes
// as they were when its request reached the target, whatever happens to
// either buffer while the data is in flight. Each test scribbles on the
// buffer from an engine event 5 µs after issue — after the snapshot
// (taken at issue plus the 200 ns op overhead, or at the get request's
// arrival about 1.3 µs later), before the 64 KiB payload lands (about
// 16 µs on the shm path, 65 µs on the wire) — and records that the other
// side was still untouched at that moment, so a pass is never vacuous.

const snapBytes = 64 << 10

// snapAfter is when the scribbling event fires, relative to issue. The
// rank bodies report errors with t.Error: t.Fatal may only be called
// from the test's own goroutine.
var snapAfter = sim.FromSeconds(5e-6)

// withSnapWin runs body on two same-node ranks over a window of
// snapBytes per rank; shared selects Win_allocate_shared semantics, so
// rank 0's ops on rank 1 take the shm paths instead of the RMA paths.
func withSnapWin(t *testing.T, shared bool, body func(r *Rank, win *Win, reg *fabric.Region)) {
	t.Helper()
	runMPI(t, 2, func(r *Rank) {
		reg := r.AllocMem(snapBytes)
		win, err := winCreate(r.CommWorld(), reg, shared)
		if err != nil {
			t.Errorf("winCreate: %v", err)
			return
		}
		if win.shmFast(1-r.ID()) != shared {
			t.Errorf("shm path = %v, want %v", win.shmFast(1-r.ID()), shared)
		}
		body(r, win, reg)
		if err := win.Free(); err != nil {
			t.Errorf("Win.Free: %v", err)
		}
	})
}

// snapPattern is a deterministic non-zero byte pattern.
func snapPattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7) + seed | 1
	}
	return b
}

func fillBytes(b []byte, v byte) {
	for i := range b {
		b[i] = v
	}
}

// snapF64s returns n/8 float64s a*i + c, encoded.
func snapF64s(n int, a, c float64) []byte {
	xs := make([]float64, n/8)
	for i := range xs {
		xs[i] = a*float64(i) + c
	}
	return f64sToBytes(xs)
}

// snapModes pairs the RMA path with the shm path.
var snapModes = []struct {
	name   string
	shared bool
}{{"rma", false}, {"shm", true}}

// TestPutSnapshotsAtIssue overwrites the origin buffer while a put is
// in flight: the target must receive the issue-time bytes.
func TestPutSnapshotsAtIssue(t *testing.T) {
	for _, mode := range snapModes {
		t.Run(mode.name, func(t *testing.T) {
			want := snapPattern(snapBytes, 3)
			withSnapWin(t, mode.shared, func(r *Rank, win *Win, reg *fabric.Region) {
				if r.ID() == 0 {
					src := r.AllocMem(snapBytes)
					copy(src.Backing(), want)
					treg := win.state.regions[1]
					untouched := false
					put := func() error {
						if err := win.Lock(LockExclusive, 1); err != nil {
							return err
						}
						r.W.M.Eng.At(r.P.Now()+snapAfter, func() {
							untouched = bytes.Equal(treg.Backing(), make([]byte, snapBytes))
							fillBytes(src.Backing(), 0xFF)
						})
						buf := LocalBuf{Region: src, Type: TypeContiguous(snapBytes)}
						if err := win.Put(buf, 1, 0, TypeContiguous(snapBytes)); err != nil {
							return err
						}
						fillBytes(src.Backing(), 0xEE) // overwrite right after issue
						return win.Unlock(1)
					}
					if err := put(); err != nil {
						t.Error(err)
					}
					if !untouched {
						t.Error("the put had landed before the origin was overwritten")
					}
				}
				win.Comm().Barrier()
				if r.ID() == 1 && !bytes.Equal(reg.Backing(), want) {
					t.Error("target holds bytes written to the origin after the put was issued")
				}
			})
		})
	}
}

// TestAccumulateSnapshotsAtIssue overwrites the origin buffer while an
// accumulate is in flight: the target must fold in the issue-time
// values.
func TestAccumulateSnapshotsAtIssue(t *testing.T) {
	for _, mode := range snapModes {
		t.Run(mode.name, func(t *testing.T) {
			initial := snapF64s(snapBytes, 1, 0.5)
			inc := snapF64s(snapBytes, 2, 1)
			want := snapF64s(snapBytes, 3, 1.5)
			withSnapWin(t, mode.shared, func(r *Rank, win *Win, reg *fabric.Region) {
				if r.ID() == 1 {
					copy(reg.Backing(), initial)
				}
				win.Comm().Barrier()
				if r.ID() == 0 {
					src := r.AllocMem(snapBytes)
					copy(src.Backing(), inc)
					treg := win.state.regions[1]
					untouched := false
					acc := func() error {
						if err := win.Lock(LockExclusive, 1); err != nil {
							return err
						}
						r.W.M.Eng.At(r.P.Now()+snapAfter, func() {
							untouched = bytes.Equal(treg.Backing(), initial)
							copy(src.Backing(), snapF64s(snapBytes, 0, 1e6))
						})
						buf := LocalBuf{Region: src, Type: TypeContiguous(snapBytes)}
						if err := win.Accumulate(buf, OpSum, 1, 0, TypeContiguous(snapBytes)); err != nil {
							return err
						}
						copy(src.Backing(), snapF64s(snapBytes, 0, -1e6))
						return win.Unlock(1)
					}
					if err := acc(); err != nil {
						t.Error(err)
					}
					if !untouched {
						t.Error("the accumulate had landed before the origin was overwritten")
					}
				}
				win.Comm().Barrier()
				if r.ID() == 1 && !bytes.Equal(reg.Backing(), want) {
					t.Error("target folded in values written to the origin after the accumulate was issued")
				}
			})
		})
	}
}

// TestGetSnapshotsAtRequest modifies the target after the get request
// has arrived but before the data returns: the origin must receive the
// bytes as they were at request time.
func TestGetSnapshotsAtRequest(t *testing.T) {
	for _, mode := range snapModes {
		t.Run(mode.name, func(t *testing.T) {
			want := snapPattern(snapBytes, 5)
			withSnapWin(t, mode.shared, func(r *Rank, win *Win, reg *fabric.Region) {
				if r.ID() == 1 {
					copy(reg.Backing(), want)
				}
				win.Comm().Barrier()
				if r.ID() == 0 {
					dst := r.AllocMem(snapBytes)
					treg := win.state.regions[1]
					untouched := false
					get := func() error {
						if err := win.Lock(LockShared, 1); err != nil {
							return err
						}
						r.W.M.Eng.At(r.P.Now()+snapAfter, func() {
							untouched = bytes.Equal(dst.Backing(), make([]byte, snapBytes))
							fillBytes(treg.Backing(), 0xFF)
						})
						buf := LocalBuf{Region: dst, Type: TypeContiguous(snapBytes)}
						if err := win.Get(buf, 1, 0, TypeContiguous(snapBytes)); err != nil {
							return err
						}
						return win.Unlock(1)
					}
					if err := get(); err != nil {
						t.Error(err)
					}
					if !untouched {
						t.Error("the get had returned before the target was modified")
					}
					if !bytes.Equal(dst.Backing(), want) {
						t.Error("origin holds bytes written to the target after the get request arrived")
					}
				}
				win.Comm().Barrier()
			})
		})
	}
}
