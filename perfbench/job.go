package main

import (
	"errors"
	"runtime"
	"time"

	"repro/internal/armci"
	"repro/internal/armcimpi"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/sim"
)

// runCfg selects what one repetition of a workload records beyond the
// end-to-end numbers.
type runCfg struct {
	// rec attaches an obs recorder (metrics and profiler) to every job
	// that does not already carry one.
	rec bool
	// spans times every ARMCI call the benchmark issues in host time.
	spans bool
	// noObs runs ccsd-observed without its recorder (the baseline of
	// obs.overhead_ratio); other workloads ignore it.
	noObs bool
}

// opSamples holds per-call latencies of one ARMCI operation class, in
// microseconds.
type opSamples struct{ virt, host []float64 }

// rep is the outcome of one repetition of a workload: every job run
// once, one after another.
type rep struct {
	setup, wall       time.Duration // prologue (incl. job construction) and timed phase, summed over jobs
	newjob            time.Duration // harness job construction alone
	untimed           time.Duration // benchmark bookkeeping inside a timed phase, subtracted from wall
	nwSetup, ccsdHost time.Duration // rank 0's host time in nwchem.Setup and CCSD
	alloc             uint64        // bytes allocated during timed phases
	live              uint64        // heap+stacks after the prologue of the largest job
	virt              sim.Time      // simulated seconds summed over jobs
	events, parks     int64

	units   int64 // work items attempted: ARMCI calls or CCSD tasks
	payload int64 // payload bytes the benchmark asked to move
	fences  int64 // fences the RMA workloads issued to order conflicting calls
	virtOps []float64
	ops     map[string]*opSamples

	armciErrors, nwchemErrors, deadlocks, mismatches int64

	recs     []*obs.Recorder // one per job when recording
	balance  []float64       // CCSD tasks max/mean per job
	critSegs int64           // critical-path segments (ccsd-observed)
	traceEvs int64           // trace events written (ccsd-observed)
}

func newRep() *rep { return &rep{ops: map[string]*opSamples{}} }

func (r *rep) failed() int64 {
	return r.armciErrors + r.nwchemErrors + r.deadlocks + r.mismatches
}

// stamp marks the start of one ARMCI call in both clocks.
type stamp struct {
	virt sim.Time
	host time.Time // zero unless host spans are on
}

func begin(p *sim.Proc, spans bool) stamp {
	s := stamp{virt: p.Now()}
	if spans {
		s.host = time.Now()
	}
	return s
}

// end records the simulated and (with spans on) host latency of the
// call that began at s, under the operation class op.
func (r *rep) end(op string, p *sim.Proc, s stamp) {
	o := r.ops[op]
	if o == nil {
		o = &opSamples{}
		r.ops[op] = o
	}
	us := (p.Now() - s.virt).Micros()
	o.virt = append(o.virt, us)
	r.virtOps = append(r.virtOps, us)
	if !s.host.IsZero() {
		o.host = append(o.host, float64(time.Since(s.host).Nanoseconds())/1e3)
	}
}

// jobSpec is one simulated job of a workload.
type jobSpec struct {
	plat   *platform.Platform
	nranks int
	impl   harness.Impl
	opt    armcimpi.Options
	rec    *obs.Recorder // recorder the workload itself attaches, or nil
}

// runJob builds and runs one job. body runs on every rank; rank 0 must
// call ready once, right after the prologue's closing barrier. Set-up
// time runs from job construction to ready; the timed phase runs from
// ready until body has returned on every rank and after (if non-nil)
// has returned. A forced GC between the two phases measures the live
// heap and starts every timed phase from the same heap state.
func (r *rep) runJob(cfg runCfg, spec jobSpec, body func(j *harness.Job, p *sim.Proc, ready func()), after func()) {
	rec := spec.rec
	if rec == nil && cfg.rec {
		rec = obs.New(obs.Options{Profile: true})
	}
	t0 := time.Now()
	j, err := harness.NewJobObs(spec.plat, spec.nranks, spec.impl, spec.opt, rec)
	r.newjob += time.Since(t0)
	if err != nil {
		r.armciErrors++
		return
	}
	var tStart time.Time
	var alloc0 uint64
	ready := func() {
		r.setup += time.Since(t0)
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		if live := ms.HeapAlloc + ms.StackInuse; live > r.live {
			r.live = live
		}
		alloc0 = ms.TotalAlloc
		tStart = time.Now()
	}
	err = j.Eng.Run(spec.nranks, func(p *sim.Proc) { body(j, p, ready) })
	var dl *sim.Deadlock
	switch {
	case errors.As(err, &dl):
		r.deadlocks++
	case err != nil:
		r.armciErrors++
	case after != nil:
		after()
	}
	if tStart.IsZero() {
		r.armciErrors++ // the prologue never completed
		return
	}
	r.wall += time.Since(tStart) - r.untimed
	r.untimed = 0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.alloc += ms.TotalAlloc - alloc0
	st := j.Eng.Stats()
	r.events += st.Events
	r.parks += st.Parks
	if rec != nil {
		r.recs = append(r.recs, rec)
	}
}

// callErr counts a failed ARMCI call.
func (r *rep) callErr(err error) {
	if err != nil {
		r.armciErrors++
	}
}

// timedRT wraps the runtime handed to GA so the benchmark can time the
// ARMCI calls GA issues: the NXTVAL read-modify-write from issue to
// return, and the nonblocking fan-out operations from issue to the
// first Wait that returns. GA issues no other data-movement call unless
// its blocking fan-out is forced, which the benchmark never does.
type timedRT struct {
	armci.Runtime
	r     *rep
	spans bool
}

type timedHandle struct {
	armci.Handle
	t    *timedRT
	op   string
	st   stamp
	done bool
}

func (h *timedHandle) Wait() {
	h.Handle.Wait()
	if !h.done {
		h.done = true
		h.t.r.end(h.op, h.t.Proc(), h.st)
	}
}

func (t *timedRT) nb(op string, issue func() (armci.Handle, error)) (armci.Handle, error) {
	st := begin(t.Proc(), t.spans)
	hd, err := issue()
	t.r.callErr(err)
	if err != nil || hd == nil {
		return hd, err
	}
	return &timedHandle{Handle: hd, t: t, op: op, st: st}, nil
}

func (t *timedRT) Rmw(op armci.RmwOp, addr armci.Addr, operand int64) (int64, error) {
	st := begin(t.Proc(), t.spans)
	old, err := t.Runtime.Rmw(op, addr, operand)
	t.r.callErr(err)
	t.r.end("rmw", t.Proc(), st)
	return old, err
}

func (t *timedRT) NbPut(src, dst armci.Addr, n int) (armci.Handle, error) {
	return t.nb(contigOpName("put", n), func() (armci.Handle, error) { return t.Runtime.NbPut(src, dst, n) })
}

func (t *timedRT) NbGet(src, dst armci.Addr, n int) (armci.Handle, error) {
	return t.nb(contigOpName("get", n), func() (armci.Handle, error) { return t.Runtime.NbGet(src, dst, n) })
}

func (t *timedRT) NbAcc(op armci.AccOp, scale float64, src, dst armci.Addr, n int) (armci.Handle, error) {
	return t.nb(contigOpName("acc", n), func() (armci.Handle, error) { return t.Runtime.NbAcc(op, scale, src, dst, n) })
}

func (t *timedRT) NbPutS(s *armci.Strided) (armci.Handle, error) {
	return t.nb("puts", func() (armci.Handle, error) { return t.Runtime.NbPutS(s) })
}

func (t *timedRT) NbGetS(s *armci.Strided) (armci.Handle, error) {
	return t.nb("gets", func() (armci.Handle, error) { return t.Runtime.NbGetS(s) })
}

func (t *timedRT) NbAccS(op armci.AccOp, scale float64, s *armci.Strided) (armci.Handle, error) {
	return t.nb("accs", func() (armci.Handle, error) { return t.Runtime.NbAccS(op, scale, s) })
}

// contigOpName classes a contiguous call by operation and by size
// against the 4 KiB split.
func contigOpName(op string, n int) string {
	if n <= 4096 {
		return op + ".le4k"
	}
	return op + ".gt4k"
}
