package dartmpi_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/armci"
	"repro/internal/armcimpi"
	"repro/internal/dartmpi"
	"repro/internal/harness"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// The tests live in package dartmpi_test (the harness imports dartmpi,
// so an internal test package would create an import cycle). On the test
// platform's 2-core nodes, ranks 0 and 1 share node 0 (rank 0 leads it)
// and ranks 2 and 3 share node 1.

// tier is one locality tier: origin moves n bytes to and from target.
type tier struct {
	name           string
	origin, target int
	n              int
	counter        func(w *dartmpi.World) int64 // ops the tier's route counts
	staged         bool
}

var tiers = []tier{
	{"self", 0, 0, 4096, func(w *dartmpi.World) int64 { return w.SelfOps }, false},
	{"node", 0, 1, 4096, func(w *dartmpi.World) int64 { return w.NodeOps }, false},
	{"remote", 0, 2, 4096, func(w *dartmpi.World) int64 { return w.RemoteOps }, false},
	// A non-leader origin moving at least the stage threshold across
	// nodes stages through its node leader.
	{"staged", 1, 3, 4 * dartmpi.DefaultStageThreshold, func(w *dartmpi.World) int64 { return w.RemoteOps }, true},
}

// tierOps is the number of routed ops each tier issues: one put, two
// accumulates (scale 1 and 2) and two gets.
const tierOps = 5

func f64s(n int, a, c float64) []byte {
	xs := make([]float64, n/8)
	for i := range xs {
		xs[i] = a*float64(i) + c
	}
	return mpi.F64sToBytes(xs)
}

// modelAcc applies cur += scale*inc to a dense model slice.
func modelAcc(cur, inc []byte, scale float64) {
	c, s := mpi.BytesToF64s(cur), mpi.BytesToF64s(inc)
	for i := range c {
		c[i] += scale * s[i]
	}
	copy(cur, mpi.F64sToBytes(c))
}

// TestTiersMatchDenseModel drives put, accumulate at scale 1 and 2, and
// get through every tier and checks each against a dense local model of
// all ranks' allocations: the gets must return the model's bytes, every
// allocation must end equal to the model, and each tier's ops must be
// counted on its own route.
func TestTiersMatchDenseModel(t *testing.T) {
	const nranks, size = 4, 256 << 10
	j, err := harness.NewJob(harness.TestPlatform(), nranks, harness.ImplDartMPI, armcimpi.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	model := make([][]byte, nranks)
	for i := range model {
		model[i] = make([]byte, size)
	}
	mem := func(a armci.Addr, n int) []byte {
		return j.M.Space(a.Rank).Find(a.VA, n).Bytes(a.VA, n)
	}
	body := func(p *sim.Proc) {
		rt := j.Runtime(p)
		addrs, err := rt.Malloc(size)
		if err != nil {
			t.Error(err)
			return
		}
		for i, tr := range tiers {
			if rt.Rank() == tr.origin {
				if err := runTier(rt, j.DartWorld, tr, byte(i), addrs[tr.target], model[tr.target], mem); err != nil {
					t.Errorf("%s tier: %v", tr.name, err)
				}
			}
			rt.Barrier()
		}
		if !bytes.Equal(mem(addrs[rt.Rank()], size), model[rt.Rank()]) {
			t.Errorf("rank %d allocation differs from the dense model", rt.Rank())
		}
		rt.Barrier()
		if err := rt.Free(addrs[rt.Rank()]); err != nil {
			t.Error(err)
		}
	}
	if err := j.Eng.Run(nranks, body); err != nil {
		t.Fatal(err)
	}
}

// runTier issues one tier's ops from its origin: a put to [0, n) of the
// target's allocation, accumulates at scale 1 and 2 to [n, 2n), and gets
// of both ranges, mirroring every write in the target's model. It
// returns the first mismatch.
func runTier(rt armci.Runtime, w *dartmpi.World, tr tier, seed byte,
	remote armci.Addr, model []byte, mem func(armci.Addr, int) []byte) error {
	n := tr.n
	local := rt.MallocLocal(2 * n)
	routed, staged := tr.counter(w), w.Staged

	data := mem(local, n)
	for i := range data {
		data[i] = byte(i*13) + seed | 1
	}
	if err := rt.Put(local, remote, n); err != nil {
		return err
	}
	copy(model[:n], data)

	inc := f64s(n, 0.5, float64(seed)+1)
	copy(mem(local, n), inc)
	for _, scale := range []float64{1, 2} {
		if err := rt.Acc(armci.AccDbl, scale, local, remote.Add(n), n); err != nil {
			return err
		}
		modelAcc(model[n:2*n], inc, scale)
	}
	rt.Fence(tr.target)

	if err := rt.Get(remote, local, n); err != nil {
		return err
	}
	if err := rt.Get(remote.Add(n), local.Add(n), n); err != nil {
		return err
	}
	switch {
	case !bytes.Equal(mem(local, n), model[:n]):
		return fmt.Errorf("get of the put range differs from the model")
	case !bytes.Equal(mem(local.Add(n), n), model[n:2*n]):
		return fmt.Errorf("get of the accumulate range differs from the model")
	}
	if got := tr.counter(w) - routed; got != tierOps {
		return fmt.Errorf("%d ops counted on the tier's route, want %d", got, tierOps)
	}
	if got := w.Staged > staged; got != tr.staged {
		return fmt.Errorf("staged through the leader = %v, want %v", got, tr.staged)
	}
	return nil
}
