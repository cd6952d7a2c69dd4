package main

import (
	"repro/internal/obs"
	"repro/internal/obs/profile"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

// The ARMCI operation classes reported per layer. Contiguous calls are
// split at 4 KiB.
var opClasses = []string{
	"put.le4k", "put.gt4k", "get.le4k", "get.gt4k", "acc.le4k", "acc.gt4k",
	"puts", "gets", "accs", "putv", "getv", "accv",
}

// counter sums a metrics counter over ranks and recorders.
func counter(recs []*obs.Recorder, name string) float64 {
	var t int64
	for _, r := range recs {
		t += obs.Total(r.Metrics().Counter(name))
	}
	return float64(t)
}

// phaseShare is the share of attributed operation time spent in phase
// ph, over the operations ops (all when nil).
func phaseShare(recs []*obs.Recorder, ph profile.Phase, ops []profile.Op) float64 {
	if ops == nil {
		for op := profile.Op(0); op < profile.NumOps; op++ {
			ops = append(ops, op)
		}
	}
	var part, whole int64
	for _, r := range recs {
		p := r.Prof()
		for _, op := range ops {
			for _, h := range p.PhaseHists(op, ph) {
				part += h.SumNs
			}
			for _, h := range p.TotalHists(op) {
				whole += h.SumNs
			}
		}
	}
	return ratio(float64(part), float64(whole))
}

// phasesSumToTotals checks the profiler invariant: for every operation
// the phase times sum exactly to the operation totals.
func phasesSumToTotals(rec *obs.Recorder) bool {
	p := rec.Prof()
	for op := profile.Op(0); op < profile.NumOps; op++ {
		var phases, total int64
		for ph := profile.Phase(0); ph < profile.NumPhases; ph++ {
			for _, h := range p.PhaseHists(op, ph) {
				phases += h.SumNs
			}
		}
		for _, h := range p.TotalHists(op) {
			total += h.SumNs
		}
		if phases != total {
			return false
		}
	}
	return true
}

// layerCounts fills the per-layer metrics that come from the obs
// recorders of one recorded repetition.
func layerCounts(m metricSet, r *rep) {
	units := float64(r.units)
	payload := float64(r.payload)
	recs := r.recs
	m.set("mpi.epochs_per_call", ratio(counter(recs, obs.CEpochs), units), "count/unit")
	m.set("mpi.pack_bytes_ratio", ratio(counter(recs, obs.CPackBytes), payload), "ratio")
	m.set("mpi.lock_wait_share", phaseShare(recs, profile.PhaseLockWait, nil), "ratio")
	m.set("mpi.epoch_wait_share", phaseShare(recs, profile.PhaseEpochWait, nil), "ratio")
	m.set("fabric.msgs_per_call", ratio(counter(recs, obs.CFabMsgs), units), "count/unit")
	m.set("fabric.wire_bytes_ratio", ratio(payload, counter(recs, obs.CFabBytes)), "ratio")
	m.set("fabric.wire_queue_share", phaseShare(recs, profile.PhaseWireQueue, nil), "ratio")
	m.set("armcimpi.segs_per_plan", ratio(counter(recs, obs.CPlanSegs), counter(recs, obs.CPlanExec)), "count")
	routed := counter(recs, obs.CRouteSelfBytes) + counter(recs, obs.CRouteNodeBytes) +
		counter(recs, obs.CRouteRMABytes) + counter(recs, obs.CRouteStagedBytes)
	m.set("armcimpi.route_node_share", ratio(counter(recs, obs.CRouteNodeBytes), routed), "ratio")
	m.set("armcimpi.nb_per_task", ratio(counter(recs, obs.CNbIssued), units), "count/unit")
	m.set("armcimpi.target_proc_share", phaseShare(recs, profile.PhaseTargetProc, []profile.Op{profile.OpAcc}), "ratio")
}
