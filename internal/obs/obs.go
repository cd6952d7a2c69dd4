// Package obs is the runtime observability subsystem: a per-rank
// metrics registry (counters, virtual-time accumulators, max gauges,
// and log2 latency histograms) plus an event tracer that records span
// events stamped with the simulator's virtual clock and exports Chrome
// trace_event JSON (viewable in chrome://tracing or Perfetto).
//
// Because the clock is the discrete-event engine's deterministic
// virtual time, every export is byte-identical across runs of the same
// configuration: traces and stats double as diffable regression
// artifacts.
//
// All Recorder methods are nil-safe no-ops, so instrumented hot paths
// in fabric/mpi/armcimpi/dataserver cost a single nil check when
// observability is off. A Recorder may span several simulated jobs
// (e.g. one benchmark sweep): each BeginJob opens a new trace process
// (pid) whose virtual clock restarts at zero.
package obs

import (
	"repro/internal/obs/critpath"
	"repro/internal/obs/profile"
	"repro/internal/sim"
)

// Clock supplies the current virtual time; *sim.Engine satisfies it.
type Clock interface {
	Now() sim.Time
}

// Recorder collects metrics and trace events for one or more simulated
// jobs. The cooperative scheduler guarantees single-threaded access.
type Recorder struct {
	clock  Clock
	m      *Metrics
	tr     *Tracer
	prof   *profile.Profiler
	crit   *critpath.Rec
	pid    int    // current job id (trace "process")
	job    string // current job label
	nranks int

	// Park accounting (sim.Observer): start time and reason per rank.
	parkAt  []sim.Time
	parkWhy []string

	// parkNames interns the metric and span names derived from park
	// reasons ("sched.park:<why>" / "park:<why>"), so the hot
	// RankResumed path does not re-concatenate strings on every park.
	// Park reasons form a small fixed vocabulary, so the map stays tiny.
	parkNames map[string]parkName
}

type parkName struct{ metric, span string }

func (r *Recorder) parkName(why string) parkName {
	if n, ok := r.parkNames[why]; ok {
		return n
	}
	if r.parkNames == nil {
		r.parkNames = make(map[string]parkName)
	}
	n := parkName{metric: "sched.park:" + why, span: "park:" + why}
	r.parkNames[why] = n
	return n
}

// Options configures a Recorder.
type Options struct {
	// Trace enables span collection. Metrics are always collected.
	Trace bool
	// Profile enables the phase-attribution profiler.
	Profile bool
	// CritPath enables the critical-path recorder. It needs the
	// profiler's raw phase stream, so the profiler is created too
	// (its report stays opt-in via Profile).
	CritPath bool
}

// New creates an empty Recorder. The clock is bound per job by
// BeginJob; until then, time-stamped calls are dropped.
func New(opt Options) *Recorder {
	r := &Recorder{m: NewMetrics()}
	if opt.Trace {
		r.tr = NewTracer()
	}
	if opt.Profile || opt.CritPath {
		r.prof = profile.New()
	}
	if opt.CritPath {
		r.crit = critpath.New(r.prof)
		r.prof.SetSink(r.crit)
	}
	return r
}

// Enabled reports whether the recorder is live (non-nil).
func (r *Recorder) Enabled() bool { return r != nil }

// Tracing reports whether span collection is on.
func (r *Recorder) Tracing() bool { return r != nil && r.tr != nil }

// Metrics returns the registry; nil on a nil recorder.
func (r *Recorder) Metrics() *Metrics {
	if r == nil {
		return nil
	}
	return r.m
}

// Prof returns the phase-attribution profiler, or nil when profiling
// is off (or the recorder itself is nil). Hook sites capture it once
// per operation: pr := o.Prof(); if pr != nil { ... }.
func (r *Recorder) Prof() *profile.Profiler {
	if r == nil {
		return nil
	}
	return r.prof
}

// Crit returns the critical-path recorder, or nil when critical-path
// analysis is off (or the recorder itself is nil). Hook sites capture
// it per call: c := o.Crit(); if c != nil { ... }.
func (r *Recorder) Crit() *critpath.Rec {
	if r == nil {
		return nil
	}
	return r.crit
}

// BeginJob opens a new trace process for one simulated job: label
// names it (shown in the trace viewer), clock is the job engine's
// virtual clock, and nranks sizes the per-rank lanes. Metrics from
// successive jobs accumulate into the same registry.
func (r *Recorder) BeginJob(label string, clock Clock, nranks int) {
	if r == nil {
		return
	}
	r.pid++
	r.job = label
	r.clock = clock
	r.nranks = nranks
	// Park state is materialized lazily as ranks first park (appended
	// records are zeroed even when the backing arrays are reused), so
	// idle ranks of a large job cost nothing.
	r.parkAt = r.parkAt[:0]
	r.parkWhy = r.parkWhy[:0]
	if r.tr != nil {
		r.tr.meta(r.pid, label, nranks)
	}
	r.prof.BeginJob(clock, nranks)
	r.crit.BeginJob(label)
}

// now returns the current virtual time, or zero with no bound clock.
func (r *Recorder) now() sim.Time {
	if r.clock == nil {
		return 0
	}
	return r.clock.Now()
}

// Job returns the current job label.
func (r *Recorder) Job() string {
	if r == nil {
		return ""
	}
	return r.job
}

// --- metrics facade (nil-safe) -------------------------------------

// Inc adds 1 to a per-rank counter.
func (r *Recorder) Inc(rank int, name string) { r.Add(rank, name, 1) }

// Add adds v to a per-rank counter.
func (r *Recorder) Add(rank int, name string, v int64) {
	if r == nil {
		return
	}
	r.m.Add(rank, name, v)
}

// AddTime accumulates a virtual duration into a per-rank time counter.
func (r *Recorder) AddTime(rank int, name string, d sim.Time) {
	if r == nil {
		return
	}
	r.m.AddTime(rank, name, d)
}

// Observe records a virtual duration into a per-rank log2 histogram.
func (r *Recorder) Observe(rank int, name string, d sim.Time) {
	if r == nil {
		return
	}
	r.m.Observe(rank, name, d)
}

// MaxGauge raises a per-rank high-water-mark gauge to v.
func (r *Recorder) MaxGauge(rank int, name string, v int64) {
	if r == nil {
		return
	}
	r.m.MaxGauge(rank, name, v)
}

// LinkBusy accumulates NIC link occupancy for one node.
func (r *Recorder) LinkBusy(node int, d sim.Time) {
	if r == nil {
		return
	}
	r.m.LinkBusy(node, d)
}

// --- tracing facade (nil-safe) --------------------------------------

// Span records a complete [start, end) span on a rank's lane. Args are
// optional key/value pairs rendered in insertion order.
func (r *Recorder) Span(rank int, cat, name string, start, end sim.Time, args ...Arg) {
	if r == nil || r.tr == nil {
		return
	}
	r.tr.span(r.pid, rank, cat, name, start, end, args)
}

// SpanLane records a span on an auxiliary lane (e.g. a data server or
// NIC agent) that is not a rank. Lane ids from Lane* helpers.
func (r *Recorder) SpanLane(lane int, cat, name string, start, end sim.Time, args ...Arg) {
	if r == nil || r.tr == nil {
		return
	}
	r.tr.span(r.pid, lane, cat, name, start, end, args)
}

// Instant records a zero-duration marker on a rank's lane.
func (r *Recorder) Instant(rank int, cat, name string, at sim.Time, args ...Arg) {
	if r == nil || r.tr == nil {
		return
	}
	r.tr.instant(r.pid, rank, cat, name, at, args)
}

// LaneServer returns the trace lane for node n's data server / target
// agent, kept clear of rank lanes.
func LaneServer(node int) int { return serverLaneBase + node }

// LaneNIC returns the trace lane for node n's fabric link, kept clear
// of both rank and server lanes.
func LaneNIC(node int) int { return nicLaneBase + node }

const (
	serverLaneBase = 1 << 16
	nicLaneBase    = 2 << 16
)

// --- sim.Observer ----------------------------------------------------

// RankParked implements sim.Observer: a rank blocked on a condition.
// Pure time passage ("elapse") is not a wait and is not recorded.
func (r *Recorder) RankParked(rank int, why string, at sim.Time) {
	if r == nil || why == "elapse" || rank < 0 {
		return
	}
	for len(r.parkAt) <= rank {
		r.parkAt = append(r.parkAt, 0)
		r.parkWhy = append(r.parkWhy, "")
	}
	r.parkAt[rank] = at
	r.parkWhy[rank] = why
	r.crit.Parked(rank, why, at)
}

// RankResumed implements sim.Observer: the parked rank was released.
func (r *Recorder) RankResumed(rank int, at sim.Time) {
	if r == nil || rank >= len(r.parkAt) {
		return
	}
	why := r.parkWhy[rank]
	if why == "" {
		return
	}
	r.parkWhy[rank] = ""
	n := r.parkName(why)
	r.m.AddTime(rank, n.metric, at-r.parkAt[rank])
	if r.tr != nil {
		r.tr.span(r.pid, rank, "sched", n.span, r.parkAt[rank], at, nil)
	}
	r.crit.Resumed(rank, at)
}

// RankFinished implements sim.FinishObserver: rank's body returned.
// The critical-path analyzer starts its walk from the last finisher.
func (r *Recorder) RankFinished(rank int, at sim.Time) {
	if r == nil {
		return
	}
	r.crit.Finished(rank, at)
}
