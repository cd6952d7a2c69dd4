package harness

import (
	"runtime"
	"testing"

	"repro/internal/armci"
	"repro/internal/armcimpi"
	"repro/internal/sim"
)

// TestPayloadAllocsDoNotScale is the allocation gate of the RMA payload
// pool: in a warm 2-rank job, 64 KiB contiguous put/get/acc calls must
// allocate less than 4 KiB per call on every runtime route, so the
// bytes allocated no longer grow with the payload. The in-flight
// snapshots come from the machine's pool and the accumulates reduce in
// place; what remains is per-call bookkeeping. The accumulates run at
// scale 1: a scaled armci-mpi accumulate still allocates a prescale
// temporary region of the payload's size. The rank bodies report errors
// with t.Error, as t.Fatal may only be called from the test's goroutine.
func TestPayloadAllocsDoNotScale(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations")
	}
	const n, measured, limit = 64 << 10, 32, 4 << 10
	noShm, mpi3NoShm := armcimpi.DefaultOptions(), mpi3Options()
	noShm.NoShm, mpi3NoShm.NoShm = true, true
	cfgs := []struct {
		name string
		impl Impl
		opt  armcimpi.Options
	}{
		{"native", ImplNative, armcimpi.DefaultOptions()},
		{"armci-mpi/mpi2/shm", ImplARMCIMPI, armcimpi.DefaultOptions()},
		{"armci-mpi/mpi2/rma", ImplARMCIMPI, noShm},
		{"armci-mpi/mpi3/shm", ImplARMCIMPI, mpi3Options()},
		{"armci-mpi/mpi3/rma", ImplARMCIMPI, mpi3NoShm},
	}
	for _, c := range cfgs {
		t.Run(c.name, func(t *testing.T) {
			j, err := NewJob(TestPlatform(), 2, c.impl, c.opt)
			if err != nil {
				t.Fatal(err)
			}
			var perOp float64
			body := func(p *sim.Proc) {
				rt := j.Runtime(p)
				addrs, err := rt.Malloc(3 * n)
				if err != nil {
					t.Error(err)
					return
				}
				if rt.Rank() == 0 {
					local := rt.MallocLocal(n)
					rounds := func(k int) error {
						for i := 0; i < k; i++ {
							if err := rt.Put(local, addrs[1], n); err != nil {
								return err
							}
							if err := rt.Get(addrs[1].Add(n), local, n); err != nil {
								return err
							}
							if err := rt.Acc(armci.AccDbl, 1, local, addrs[1].Add(2*n), n); err != nil {
								return err
							}
							rt.Fence(1)
						}
						return nil
					}
					// Warm up: fill the pool and the per-shape caches.
					if err := rounds(4); err != nil {
						t.Error(err)
						return
					}
					var before, after runtime.MemStats
					runtime.ReadMemStats(&before)
					err := rounds(measured)
					runtime.ReadMemStats(&after)
					if err != nil {
						t.Error(err)
						return
					}
					perOp = float64(after.TotalAlloc-before.TotalAlloc) / (3 * measured)
				}
				rt.Barrier()
				if err := rt.Free(addrs[rt.Rank()]); err != nil {
					t.Error(err)
				}
			}
			if err := j.Eng.Run(2, body); err != nil {
				t.Fatal(err)
			}
			t.Logf("%.0f B allocated per 64 KiB call", perOp)
			if perOp >= limit {
				t.Errorf("%.0f B allocated per 64 KiB call, want < %d", perOp, limit)
			}
		})
	}
}
