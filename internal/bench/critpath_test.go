package bench

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/armci"
	"repro/internal/armcimpi"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/obs/critpath"
	"repro/internal/platform"
	"repro/internal/sim"
)

// critWorkload extends the mixed profiler workload with a contended
// mutex section, so the analyzed dependence graph includes lock-queue
// grant chains (the hopGrant edge kind) on every runtime.
func critWorkload(t *testing.T, rt armci.Runtime) {
	profWorkload(t, rt)
	mtx, err := rt.CreateMutexes(1)
	if err != nil {
		t.Errorf("CreateMutexes: %v", err)
		return
	}
	// All ranks contend for mutex (0, 0), so every unlock forwards the
	// grant to a queued waiter.
	mtx.Lock(0, 0)
	rt.Proc().Elapse(500)
	mtx.Unlock(0, 0)
	rt.Barrier()
	if err := mtx.Destroy(); err != nil {
		t.Errorf("Destroy: %v", err)
	}
}

// critRun executes critWorkload under impl/opt with a critical-path
// recorder attached, returning the recorder and the engine's final
// virtual time.
func critRun(t *testing.T, impl harness.Impl, opt armcimpi.Options) (*obs.Recorder, sim.Time) {
	t.Helper()
	rec := obs.New(obs.Options{CritPath: true})
	j, err := harness.NewJobObs(harness.TestPlatform(), 4, impl, opt, rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Eng.Run(4, func(p *sim.Proc) { critWorkload(t, j.Runtime(p)) }); err != nil {
		t.Fatal(err)
	}
	return rec, j.Eng.Stats().FinalTime
}

// critGolden is each configuration's analyzed critical path under the
// goroutine-per-rank scheduler the engine replaced (makespan == path
// sum == engine final time, and the segment count).
var critGolden = map[string]struct {
	makespan sim.Time
	segments int
}{
	"mpi2-shm":           {222385, 361},
	"mpi2-noshm":         {237042, 369},
	"mpi3-shm":           {142157, 245},
	"mpi3-noshm":         {152891, 251},
	"dataserver":         {54064, 85},
	"dart-shm-stage":     {255810, 405},
	"dart-shm-nostage":   {255682, 405},
	"dart-noshm-stage":   {237042, 369},
	"dart-noshm-nostage": {237042, 369},
}

// checkCritInvariants asserts the analyzer's central invariant on a
// one-job recorder and returns the analyzed job.
func checkCritInvariants(t *testing.T, rec *obs.Recorder, final sim.Time) critpath.Job {
	t.Helper()
	jobs := rec.Crit().Jobs()
	if len(jobs) != 1 {
		t.Fatalf("expected 1 analyzed job, got %d", len(jobs))
	}
	jb := jobs[0]
	if jb.Makespan != final {
		t.Errorf("makespan %d ns != engine final time %d ns", jb.Makespan, final)
	}
	if jb.PathNs != jb.Makespan {
		t.Errorf("critical path sum %d ns != makespan %d ns (off by %d)",
			jb.PathNs, jb.Makespan, jb.PathNs-jb.Makespan)
	}
	if jb.Segments == 0 {
		t.Error("no critical-path segments recorded")
	}
	return jb
}

// critJSON is the recorder's critical-path JSON export.
func critJSON(t *testing.T, rec *obs.Recorder) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := rec.Crit().WriteJSON(&b); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	return b.Bytes()
}

// TestCritPathInvariantMatrix pins the analyzer's central invariant on
// every runtime configuration: the critical-path segment durations sum
// exactly to the job makespan, and the makespan is exactly the
// engine's end-to-end virtual time. The three cases per configuration
// carry the names of the scheduler modes the engine once had, and each
// checks what took that mode's place:
//
//   - goroutine: the analyzed path also equals the one the
//     goroutine-per-rank scheduler produced (critGolden).
//   - continuation: the engine's default single shard, which is how
//     every full-stack job runs.
//   - parallel: the configurations rerun concurrently, each job on its
//     own engine and recorder, and each critical-path JSON must be
//     byte-identical to the one its continuation case produced.
func TestCritPathInvariantMatrix(t *testing.T) {
	seq := map[string][]byte{}
	for _, cfg := range profConfigs() {
		t.Run(cfg.name+"/goroutine", func(t *testing.T) {
			gold, ok := critGolden[cfg.name]
			if !ok {
				t.Fatalf("no golden critical path for %s", cfg.name)
			}
			rec, final := critRun(t, cfg.impl, cfg.opt)
			jb := checkCritInvariants(t, rec, final)
			if jb.Makespan != gold.makespan || jb.Segments != gold.segments {
				t.Errorf("makespan %d ns over %d segments, goroutine scheduler gave %d ns over %d",
					jb.Makespan, jb.Segments, gold.makespan, gold.segments)
			}
		})
		t.Run(cfg.name+"/continuation", func(t *testing.T) {
			rec, final := critRun(t, cfg.impl, cfg.opt)
			checkCritInvariants(t, rec, final)
			seq[cfg.name] = critJSON(t, rec)
		})
		t.Run(cfg.name+"/parallel", func(t *testing.T) {
			// Paused until every sequential case above has finished.
			t.Parallel()
			rec, final := critRun(t, cfg.impl, cfg.opt)
			checkCritInvariants(t, rec, final)
			if !bytes.Equal(critJSON(t, rec), seq[cfg.name]) {
				t.Error("critical-path JSON differs when the configurations run concurrently")
			}
		})
	}
}

// TestCritPathSchedulerModesAgree requires the analyzed critical path
// of the guarded quick Figure 3 sweep — not just its sum — to equal
// results/CRIT_fig3-ib.json byte for byte. The artifact was generated
// under the goroutine-per-rank scheduler, and the dependence graph and
// its longest path must not depend on how the host drives the
// schedule: shards-0 runs one sweep on the default engine, shards-4
// runs four sweeps concurrently, each with its own recorder.
func TestCritPathSchedulerModesAgree(t *testing.T) {
	want := artifact(t, "CRIT_fig3-ib.json")
	sweep := func(t *testing.T) {
		rec := obs.New(obs.Options{CritPath: true})
		cfg := QuickFig3()
		cfg.Obs = rec
		if _, err := Fig3(platform.Get(platform.InfiniBand), cfg); err != nil {
			t.Fatal(err)
		}
		if got := critJSON(t, rec); !bytes.Equal(got, want) {
			t.Errorf("critical-path JSON differs from results/CRIT_fig3-ib.json:\n--- got ---\n%s\n--- want ---\n%s", got, want)
		}
	}
	t.Run("shards-0", sweep)
	t.Run("shards-4", func(t *testing.T) {
		for i := 0; i < 4; i++ {
			t.Run(fmt.Sprintf("sweep-%d", i), func(t *testing.T) {
				t.Parallel()
				sweep(t)
			})
		}
	})
}

// TestCritPathReportDeterministic requires the text report and JSON
// export to be byte-identical across two independent runs — the
// property the CRIT_* CI artifact guard rests on — and the JSON to be
// newline-terminated.
func TestCritPathReportDeterministic(t *testing.T) {
	build := func() (report, js []byte) {
		rec, _ := critRun(t, harness.ImplARMCIMPI, armcimpi.DefaultOptions())
		var rb, jb bytes.Buffer
		if err := rec.Crit().WriteReport(&rb); err != nil {
			t.Fatalf("WriteReport: %v", err)
		}
		if err := rec.Crit().WriteJSON(&jb); err != nil {
			t.Fatalf("WriteJSON: %v", err)
		}
		return rb.Bytes(), jb.Bytes()
	}
	r1, j1 := build()
	r2, j2 := build()
	if !bytes.Equal(r1, r2) {
		t.Errorf("text report differs between identical runs:\n%s\n---\n%s", r1, r2)
	}
	if !bytes.Equal(j1, j2) {
		t.Errorf("critical-path JSON differs between identical runs:\n%s\n---\n%s", j1, j2)
	}
	if len(j1) == 0 || j1[len(j1)-1] != '\n' {
		t.Error("critical-path JSON missing trailing newline")
	}
}

// TestCritPathDoesNotPerturbFigures runs a figure sweep with and
// without the critical-path recorder attached and requires
// byte-identical figure JSON: recording dependence edges is pure
// observation and must not move any virtual timestamp.
func TestCritPathDoesNotPerturbFigures(t *testing.T) {
	build := func(rec *obs.Recorder) []byte {
		cfg := Fig3Config{MinExp: 3, MaxExp: 10, Iters: 2, Obs: rec}
		fig := &Figure{Name: "crit-perturb", Title: "check", XLabel: "x", YLabel: "GB/s"}
		for _, op := range []ContigOp{OpGet, OpPut, OpAcc} {
			s, err := ContigBandwidth(harness.TestPlatform(), harness.ImplARMCIMPI, op, cfg)
			if err != nil {
				t.Fatalf("ContigBandwidth(%s): %v", op, err)
			}
			fig.Series = append(fig.Series, s)
		}
		var b bytes.Buffer
		if err := fig.WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	plain := build(nil)
	observed := build(obs.New(obs.Options{CritPath: true}))
	if !bytes.Equal(plain, observed) {
		t.Errorf("figure JSON changed when the critical-path recorder was attached:\n%s\n---\n%s", plain, observed)
	}
}
