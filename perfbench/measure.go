package main

import (
	"fmt"
	"runtime"
	"time"
)

// minReps is the fewest measured repetitions whose median is reported.
const minReps = 3

// measurement runs one workload for one benchmark invocation.
type measurement struct {
	w       workload
	seconds time.Duration

	all []*rep // every repetition run, for the failure totals
	ref *rep   // the first repetition: reference for the virtual results
}

// repeat runs the workload under cfg until d has passed and at least n
// repetitions are done, and returns them.
func (m *measurement) repeat(cfg runCfg, d time.Duration, n int) []*rep {
	deadline := time.Now().Add(d)
	var reps []*rep
	for len(reps) < n || time.Now().Before(deadline) {
		r := m.w.run(cfg)
		m.check(r)
		// Keep the live heap flat across repetitions: only the first
		// recorded repetition's counts and the spanned repetitions' host
		// latencies are reported, and virtual samples were compared above.
		if !cfg.rec || len(reps) > 0 {
			r.recs = nil
		}
		if r != m.ref {
			r.virtOps = nil
			if !cfg.spans {
				r.ops = nil
			}
		}
		reps = append(reps, r)
	}
	return reps
}

// check counts a repetition whose simulated results differ from the
// first one's as a mismatch: every repetition, traced or not, must
// reproduce the same virtual time, call latencies and event counts.
func (m *measurement) check(r *rep) {
	m.all = append(m.all, r)
	if m.ref == nil {
		m.ref = r
		return
	}
	if r.virt != m.ref.virt || !equalF64(r.virtOps, m.ref.virtOps) {
		r.mismatches++
	}
	if r.events != m.ref.events || r.parks != m.ref.parks {
		r.mismatches++
	}
}

func equalF64(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// prologue runs the checks that sit outside every timed phase, then one
// warm-up repetition (checked, not reported).
func (m *measurement) prologue() {
	if c, ok := m.w.(*ccsdWL); ok && !c.numericCheck() {
		c.numErr = true
	}
	m.repeat(runCfg{}, 0, 1)
}

func (m *measurement) result(ms metricSet) result {
	res := result{Metrics: ms}
	for _, r := range m.all {
		res.Attempted += r.units
		res.Failed += r.failed()
	}
	if c, ok := m.w.(*ccsdWL); ok && c.numErr {
		res.Failed++
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	var a, n, d, mm int64
	for _, r := range m.all {
		a, n, d, mm = a+r.armciErrors, n+r.nwchemErrors, d+r.deadlocks, mm+r.mismatches
	}
	res.notes = append(res.notes, fmt.Sprintf("failures: armci=%d nwchem=%d deadlocks=%d mismatches=%d", a, n, d, mm))
	return res
}

func seconds(reps []*rep, f func(*rep) time.Duration) float64 {
	xs := make([]float64, len(reps))
	for i, r := range reps {
		xs[i] = f(r).Seconds()
	}
	return median(xs)
}

func megabytes(reps []*rep, f func(*rep) uint64) float64 {
	xs := make([]float64, len(reps))
	for i, r := range reps {
		xs[i] = float64(f(r)) / 1e6
	}
	return median(xs)
}

// untraced measures the end-to-end metrics with tracing off.
func (m *measurement) untraced() result {
	m.prologue()
	reps := m.repeat(runCfg{}, m.seconds, minReps)
	ms := metricSet{}
	ms.set("wall_s", seconds(reps, func(r *rep) time.Duration { return r.wall }), "s")
	ms.set("setup_s", seconds(reps, func(r *rep) time.Duration { return r.setup }), "s")
	ms.set("alloc_mb", megabytes(reps, func(r *rep) uint64 { return r.alloc }), "MB")
	ms.set("mem_live_mb", megabytes(reps, func(r *rep) uint64 { return r.live }), "MB")
	ms.set("virt_s", m.ref.virt.Seconds(), "s")
	ms.set("virt_op_p50_us", quantile(m.ref.virtOps, 0.5), "us")
	ms.set("virt_op_p99_us", quantile(m.ref.virtOps, 0.99), "us")
	res := m.result(ms)
	res.notes = append(res.notes, fmt.Sprintf("virt_op samples=%d reps=%d fences=%d", len(m.ref.virtOps), len(reps), m.ref.fences),
		"wall_s per rep: "+spreadNote(reps, func(r *rep) time.Duration { return r.wall }),
		"setup_s per rep: "+spreadNote(reps, func(r *rep) time.Duration { return r.setup }))
	return res
}

// traced runs, in order: untraced repetitions (the baseline), the
// recorder on without profiling (obs overhead), CPU profiling with host
// spans (CPU attribution and host latencies), and one repetition with
// every allocation sampled (allocation attribution).
func (m *measurement) traced() result {
	m.prologue()
	base := m.repeat(runCfg{}, m.seconds*35/100, 2)
	c, ok := m.w.(*ccsdWL)
	observed := ok && c.observed
	withRec := m.repeat(runCfg{rec: !observed, noObs: observed}, m.seconds*20/100, 1)

	var prof cpuProfile
	profErr := prof.start()
	spanned := m.repeat(runCfg{rec: true, spans: true}, m.seconds*30/100, 1)
	cpu, err := prof.stop()
	if profErr != nil || err != nil {
		spanned[0].mismatches++ // the attribution itself failed
	}

	before := takeAllocs()
	old := setMemProfileRate(1)
	sampled := m.repeat(runCfg{rec: true}, 0, 1)[0]
	setMemProfileRate(old)
	after := takeAllocs()
	objs, bytes := allocDelta(before, after)

	ms := metricSet{}
	baseWall := seconds(base, func(r *rep) time.Duration { return r.wall })
	recWall := seconds(withRec, func(r *rep) time.Duration { return r.wall })
	overhead := ratio(recWall, baseWall)
	if observed {
		overhead = ratio(baseWall, recWall)
	}
	ms.set("obs.overhead_ratio", overhead, "ratio")
	ms.set("trace.overhead_ratio", ratio(seconds(spanned, func(r *rep) time.Duration { return r.wall }), baseWall), "ratio")

	var cpuTotal float64
	for _, v := range cpu {
		cpuTotal += v
	}
	for _, b := range append(append([]string(nil), modules...), bucketGC, bucketRuntime) {
		ms.set("cpu."+b+"_s", cpu[b]/float64(len(spanned)), "s")
		ms.set("cpu."+b+"_share", ratio(cpu[b], cpuTotal), "ratio")
	}
	units := float64(sampled.units)
	for _, b := range append(append([]string(nil), modules...), bucketRuntime) {
		ms.set("allocs."+b, ratio(objs[b], units), "count/unit")
		ms.set("alloc_bytes."+b, ratio(bytes[b], units), "B/unit")
	}
	ms.set("mpi.alloc_bytes_per_payload_byte", ratio(bytes["mpi"], float64(sampled.payload)), "ratio")

	ref := m.ref
	ms.set("harness.newjob_s", seconds(base, func(r *rep) time.Duration { return r.newjob }), "s")
	ms.set("nwchem.setup_s", seconds(base, func(r *rep) time.Duration { return r.nwSetup }), "s")
	ms.set("nwchem.ccsd_host_s", seconds(base, func(r *rep) time.Duration { return r.ccsdHost }), "s")
	for _, op := range opClasses {
		var host []float64
		for _, r := range spanned {
			if s := r.ops[op]; s != nil {
				host = append(host, s.host...)
			}
		}
		var virt []float64
		if s := ref.ops[op]; s != nil {
			virt = s.virt
		}
		ms.set("armci."+op+".host_us_p50", quantile(host, 0.5), "us")
		ms.set("armci."+op+".host_us_p99", quantile(host, 0.99), "us")
		ms.set("armci."+op+".virt_us_p50", quantile(virt, 0.5), "us")
		ms.set("armci."+op+".virt_us_p99", quantile(virt, 0.99), "us")
	}
	ms.set("sim.events_per_unit", ratio(float64(ref.events), float64(ref.units)), "count/unit")
	ms.set("sim.parks_per_unit", ratio(float64(ref.parks), float64(ref.units)), "count/unit")
	ms.set("sim.host_ns_per_event", ratio(baseWall*1e9, float64(ref.events)), "ns")
	layerCounts(ms, spanned[0])
	ms.set("nwchem.tasks_max_over_mean", mean(ref.balance), "ratio")
	ms.set("obs.trace_events", float64(ref.traceEvs), "count")
	ms.set("obs.crit_segments", float64(ref.critSegs), "count")
	inputMetrics(ms, m.w)

	var armciErrs, nwErrs, deadlocks, mism float64
	for _, r := range m.all {
		armciErrs += float64(r.armciErrors)
		nwErrs += float64(r.nwchemErrors)
		deadlocks += float64(r.deadlocks)
		mism += float64(r.mismatches)
	}
	ms.set("armci.errors", armciErrs, "count")
	ms.set("nwchem.errors", nwErrs, "count")
	ms.set("sim.deadlocks", deadlocks, "count")
	ms.set("check.mismatches", mism, "count")
	return m.result(ms)
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

// inputMetrics reports the properties of the generated inputs that the
// system's behaviour depends on.
func inputMetrics(ms metricSet, w workload) {
	var repeat, small, intra float64
	switch w := w.(type) {
	case *contigWL:
		small = w.in.small
	case *noncontigWL:
		repeat = w.in.repeat
	case *ccsdWL:
		intra = w.intra
	}
	ms.set("input.shape_repeat_share", repeat, "ratio")
	ms.set("input.small_share", small, "ratio")
	ms.set("input.intra_node_share", intra, "ratio")
}

// setMemProfileRate sets the allocation sampling rate (1 samples every
// allocation) and returns the previous one.
func setMemProfileRate(rate int) int {
	old := runtime.MemProfileRate
	runtime.MemProfileRate = rate
	return old
}

// spreadNote prints the minimum, quartiles and maximum of a per-repetition
// host time.
func spreadNote(reps []*rep, f func(*rep) time.Duration) string {
	xs := make([]float64, len(reps))
	for i, r := range reps {
		xs[i] = f(r).Seconds()
	}
	return fmt.Sprintf("min=%.4g q1=%.4g med=%.4g q3=%.4g max=%.4g",
		quantile(xs, 0), quantile(xs, 0.25), quantile(xs, 0.5), quantile(xs, 0.75), quantile(xs, 1))
}
