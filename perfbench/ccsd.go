package main

import (
	"bytes"
	"math"
	"math/rand"
	"time"

	"repro/internal/armcimpi"
	"repro/internal/ga"
	"repro/internal/harness"
	"repro/internal/nwchem"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/sim"
)

// Fig 6 shape: the NWChem CCSD proxy on InfiniBand, every rank drawing
// tasks from the NXTVAL counter.
const (
	ccsdRanks     = 64 // 8 IB nodes: shm and RMA routes both carry traffic
	observedRanks = 16
	ccsdPlat      = "ib"
	// ccsdFlops is the total virtual flops of one CCSD iteration, the
	// same for every member of the family.
	ccsdFlops = 2.2e9
)

// ccsdFamily lists the problems a seed picks from. Both members have
// nblocks = ceil(NV^2/Blk) = 16, so 256 tasks per iteration, and
// FlopMult is set so the flop total is ccsdFlops. They were chosen among
// the NO=4, 16-block candidates as the ones whose simulated CCSD time
// and call-latency percentiles agree within a few percent at 64 and 16
// ranks, so the seed does not change run length (README.md).
var ccsdFamily = []nwchem.Params{
	{NO: 4, NV: 31, Blk: 61, Chunk: 4},
	{NO: 4, NV: 31, Blk: 63, Chunk: 4},
}

// numericParams is the small problem whose energies are compared
// across runtimes; it runs outside the timed and set-up phases.
var numericParams = nwchem.Params{NO: 2, NV: 8, Blk: 16, Iter: 1, Chunk: 2, Numeric: true}

func nblocks(p nwchem.Params) int {
	return (p.NV*p.NV + p.Blk - 1) / p.Blk
}

// ccsdParams returns the family member for seed, with Iter and FlopMult
// filled in.
func ccsdParams(seed int64) nwchem.Params {
	rng := rand.New(rand.NewSource(seed))
	p := ccsdFamily[rng.Intn(len(ccsdFamily))]
	p.Iter = 1
	oo := float64(p.NO * p.NO)
	var perMult float64
	for cd := 0; cd < nblocks(p); cd++ {
		ncd := blockLen(p, cd)
		for ab := 0; ab < nblocks(p); ab++ {
			perMult += 2 * oo * float64(ncd) * float64(blockLen(p, ab))
		}
	}
	p.FlopMult = ccsdFlops / perMult
	return p
}

func blockLen(p nwchem.Params, b int) int {
	return min(p.Blk, p.NV*p.NV-b*p.Blk)
}

// ccsdVariants are the Figure 6 runtimes: native, ARMCI-MPI over MPI-2
// (mutex NXTVAL), and ARMCI-MPI over MPI-3 (fetch-and-op NXTVAL).
func ccsdVariants() []jobSpec {
	plat := platform.Get(ccsdPlat)
	mpi3 := armcimpi.DefaultOptions()
	mpi3.UseMPI3 = true
	return []jobSpec{
		{plat: plat, nranks: ccsdRanks, impl: harness.ImplNative, opt: armcimpi.DefaultOptions()},
		{plat: plat, nranks: ccsdRanks, impl: harness.ImplARMCIMPI, opt: armcimpi.DefaultOptions()},
		{plat: plat, nranks: ccsdRanks, impl: harness.ImplARMCIMPI, opt: mpi3},
	}
}

type ccsdWL struct {
	p        nwchem.Params
	observed bool    // ccsd-observed: one MPI-2 job at 16 ranks with every obs sink
	intra    float64 // share of task bytes owned on the executing rank's node
	numErr   bool    // the numeric cross-runtime check failed
}

func newCCSD(seed int64, observed bool) *ccsdWL {
	return &ccsdWL{p: ccsdParams(seed), observed: observed}
}

func (w *ccsdWL) run(cfg runCfg) *rep {
	r := newRep()
	if !w.observed {
		for _, spec := range ccsdVariants() {
			w.runJob(r, cfg, spec, w.p)
		}
		return r
	}
	spec := ccsdVariants()[1]
	spec.nranks = observedRanks
	if !cfg.noObs {
		spec.rec = obs.New(obs.Options{Trace: true, Profile: true, CritPath: true})
	}
	w.runJob(r, cfg, spec, w.p)
	return r
}

// runJob runs one CCSD job and returns rank 0's energy.
func (w *ccsdWL) runJob(r *rep, cfg runCfg, spec jobSpec, p nwchem.Params) float64 {
	results := make([]nwchem.Result, spec.nranks)
	body := func(j *harness.Job, pr *sim.Proc, ready func()) {
		rt := &timedRT{Runtime: j.Runtime(pr), r: r, spans: cfg.spans}
		env := ga.NewEnv(rt, j.MpiWorld.Rank(pr))
		t0 := time.Now()
		sys, err := nwchem.Setup(env, j.M, p)
		if err != nil {
			r.nwchemErrors++
			return
		}
		if rt.Rank() == 0 {
			r.nwSetup += time.Since(t0)
			ready()
		}
		t1 := time.Now()
		res, err := sys.CCSD()
		if err != nil {
			r.nwchemErrors++
			return
		}
		if rt.Rank() == 0 {
			r.ccsdHost += time.Since(t1)
		}
		results[rt.Rank()] = res
		if rt.Rank() == 0 && w.intra == 0 && !p.Numeric {
			// An input property, computed once and kept out of the
			// timed phase.
			t := time.Now()
			w.intra = intraNodeShare(sys, spec)
			r.untimed += time.Since(t)
		}
		if err := sys.Teardown(); err != nil {
			r.nwchemErrors++
		}
	}
	var after func()
	if spec.rec != nil {
		after = func() { w.writeReports(r, spec.rec) }
	}
	r.runJob(cfg, spec, body, after)
	var phase sim.Time
	tasks, maxTasks := 0, 0
	for _, res := range results {
		phase = max(phase, res.Elapsed)
		tasks += res.Tasks
		maxTasks = max(maxTasks, res.Tasks)
	}
	want := nblocks(p) * nblocks(p) * p.Iter
	if tasks != want {
		r.mismatches++
	}
	r.virt += phase
	r.units += int64(want)
	r.balance = append(r.balance, float64(maxTasks)*float64(spec.nranks)/float64(max(tasks, 1)))
	return results[0].Energy
}

// writeReports renders every obs report into memory, as a user of the
// observed job would, and checks the critical-path and profiler
// invariants.
func (w *ccsdWL) writeReports(r *rep, rec *obs.Recorder) {
	var stats, trace, prof, profJSON, crit, critJSON bytes.Buffer
	errs := []error{
		rec.WriteStatsJSON(&stats),
		rec.WriteTrace(&trace),
		rec.Prof().WriteReport(&prof),
		rec.Prof().WriteJSON(&profJSON),
		rec.Crit().WriteReport(&crit),
		rec.Crit().WriteJSON(&critJSON),
	}
	for _, err := range errs {
		if err != nil {
			r.mismatches++
		}
	}
	r.traceEvs += int64(bytes.Count(trace.Bytes(), []byte(`"ph":`)))
	for _, job := range rec.Crit().Jobs() {
		r.critSegs += int64(job.Segments)
		if job.PathNs != job.Makespan {
			r.mismatches++
		}
	}
	if !phasesSumToTotals(rec) {
		r.mismatches++
	}
}

// numericCheck runs the small Numeric problem on every runtime and
// reports whether the ARMCI-MPI energies match native within 1e-9
// relative. It uses its own rep, so nothing it does is timed.
func (w *ccsdWL) numericCheck() bool {
	var energies []float64
	for _, spec := range ccsdVariants() {
		spec.nranks = 8
		r := newRep()
		e := w.runJob(r, runCfg{}, spec, numericParams)
		if r.failed() > 0 {
			return false
		}
		energies = append(energies, e)
	}
	for _, e := range energies[1:] {
		if math.Abs(e-energies[0]) > 1e-9*math.Abs(energies[0]) || e == 0 {
			return false
		}
	}
	return true
}

// intraNodeShare is the share of one CCSD task's get and accumulate
// bytes whose owner sits on the executing rank's node, averaged over
// every (task, executing rank) pair: the locality the input offers
// under uniform task placement.
func intraNodeShare(sys *nwchem.System, spec jobSpec) float64 {
	p := sys.P
	cpn := spec.plat.CoresPerNode
	oo := p.NO * p.NO
	nb := nblocks(p)
	// bytes[node] of one patch request, summed over the task's three
	// patches, per task.
	var local, total float64
	for cd := 0; cd < nb; cd++ {
		for ab := 0; ab < nb; ab++ {
			patches := []struct {
				a      *ga.Array
				lo, hi []int
			}{
				{sys.T2, []int{0, cd * p.Blk}, []int{oo - 1, cd*p.Blk + blockLen(p, cd) - 1}},
				{sys.V, []int{cd * p.Blk, ab * p.Blk}, []int{cd*p.Blk + blockLen(p, cd) - 1, ab*p.Blk + blockLen(p, ab) - 1}},
				{sys.R, []int{0, ab * p.Blk}, []int{oo - 1, ab*p.Blk + blockLen(p, ab) - 1}},
			}
			perNode := make([]float64, (spec.nranks+cpn-1)/cpn)
			var all float64
			for _, pt := range patches {
				parts, err := pt.a.LocateRegion(pt.lo, pt.hi)
				if err != nil {
					return 0
				}
				for _, part := range parts {
					n := 1.0
					for d := range part.Lo {
						n *= float64(part.Hi[d] - part.Lo[d] + 1)
					}
					perNode[part.Owner/cpn] += n
					all += n
				}
			}
			for node := range perNode {
				local += perNode[node] * float64(cpn) // executors on that node
			}
			total += all * float64(spec.nranks)
		}
	}
	return ratio(local, total)
}
