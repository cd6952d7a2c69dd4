package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/armci"
)

// small returns reduced versions of every workload, so the determinism
// tests run in seconds: the RMA streams are cut short, the CCSD
// workloads run as generated.
func small(t *testing.T, seed int64) map[string]workload {
	t.Helper()
	c := newContig(seed)
	c.in.calls = c.in.calls[:30]
	n := newNoncontig(seed)
	n.in.calls = n.in.calls[:24]
	return map[string]workload{
		"contig-rma":    c,
		"noncontig-rma": n,
		"ccsd-ga":       newCCSD(seed, false),
		"ccsd-observed": newCCSD(seed, true),
	}
}

func TestGeneratorDependsOnlyOnSeed(t *testing.T) {
	a1, n1, p1 := genContig(3), genNoncontig(3), ccsdParams(3)
	genContig(4)
	genNoncontig(4)
	ccsdParams(4)
	if !reflect.DeepEqual(a1, genContig(3)) || !reflect.DeepEqual(n1, genNoncontig(3)) || p1 != ccsdParams(3) {
		t.Fatal("the same seed generated different inputs")
	}
	if reflect.DeepEqual(a1, genContig(4)) || reflect.DeepEqual(n1, genNoncontig(4)) {
		t.Fatal("different seeds generated identical RMA inputs")
	}
}

func TestWorkBandAcrossSeeds(t *testing.T) {
	// Total work per job stays within a stated band across seeds, so a
	// seed change does not change run length: payload within 5%,
	// noncontiguous segments within 5%, CCSD tasks and flops exact.
	c0, n0, p0 := genContig(devSeed), genNoncontig(devSeed), ccsdParams(devSeed)
	for seed := int64(2); seed < 30; seed++ {
		c, n, p := genContig(seed), genNoncontig(seed), ccsdParams(seed)
		if d := relDiff(c.payload, c0.payload); d > 0.05 {
			t.Errorf("seed %d: contig payload off by %.1f%%", seed, 100*d)
		}
		if d := relDiff(n.payload, n0.payload); d > 0.05 {
			t.Errorf("seed %d: noncontig payload off by %.1f%%", seed, 100*d)
		}
		if d := relDiff(n.segments, n0.segments); d > 0.05 {
			t.Errorf("seed %d: noncontig segments off by %.1f%%", seed, 100*d)
		}
		if nblocks(p) != nblocks(p0) || p.Iter != p0.Iter {
			t.Errorf("seed %d: CCSD task count changed: %+v vs %+v", seed, p, p0)
		}
	}
}

func relDiff(a, b int64) float64 {
	d := float64(a-b) / float64(b)
	if d < 0 {
		return -d
	}
	return d
}

func TestSameSeedSameVirtualResults(t *testing.T) {
	first, second := small(t, 5), small(t, 5)
	for name, w := range first {
		a, b := w.run(runCfg{}), second[name].run(runCfg{})
		if a.virt != b.virt || !equalF64(a.virtOps, b.virtOps) {
			t.Errorf("%s: virtual results differ between runs of one seed", name)
		}
		if a.events != b.events || a.parks != b.parks {
			t.Errorf("%s: sim events/parks differ: %d/%d vs %d/%d", name, a.events, a.parks, b.events, b.parks)
		}
	}
}

func TestTracedMatchesUntraced(t *testing.T) {
	var prof cpuProfile
	for name, w := range small(t, 6) {
		plain := w.run(runCfg{})
		if err := prof.start(); err != nil {
			t.Fatal(err)
		}
		traced := w.run(runCfg{rec: true, spans: true})
		if _, err := prof.stop(); err != nil {
			t.Fatal(err)
		}
		prof.buf.Reset()
		if plain.virt != traced.virt || !equalF64(plain.virtOps, traced.virtOps) {
			t.Errorf("%s: tracing changed the virtual results", name)
		}
		if plain.events != traced.events || plain.parks != traced.parks {
			t.Errorf("%s: tracing changed sim events/parks", name)
		}
	}
}

func TestOutputChecksPass(t *testing.T) {
	for _, seed := range []int64{devSeed, heldOutSeed} {
		for name, w := range small(t, seed) {
			r := w.run(runCfg{})
			if r.failed() != 0 {
				t.Errorf("seed %d, %s: armci=%d nwchem=%d deadlocks=%d mismatches=%d",
					seed, name, r.armciErrors, r.nwchemErrors, r.deadlocks, r.mismatches)
			}
		}
	}
}

// fenceCounter is a runtime that only counts fences.
type fenceCounter struct {
	armci.Runtime
	fences []int
}

func (f *fenceCounter) Fence(proc int) { f.fences = append(f.fences, proc) }

func TestConflictingCallsFence(t *testing.T) {
	rt := &fenceCounter{}
	r := newRep()
	b := &rmaBufs{target: 3}
	b.wrote(0, 64, false)
	b.order(r, rt, 64, 128, false) // adjacent, no overlap
	b.wrote(64, 128, true)
	b.order(r, rt, 100, 120, true) // acc after acc
	if len(rt.fences) != 0 {
		t.Fatalf("fenced without a conflict: %v", rt.fences)
	}
	b.order(r, rt, 120, 130, false) // get or put over an acc
	if !reflect.DeepEqual(rt.fences, []int{3}) || r.fences != 1 || len(b.unfenced) != 0 {
		t.Fatalf("conflict not fenced once at the target: fences=%v count=%d unfenced=%v", rt.fences, r.fences, b.unfenced)
	}
	b.wrote(0, 8, false)
	b.order(r, rt, 4, 12, true) // acc over a put
	if len(rt.fences) != 2 {
		t.Fatalf("acc over a put not fenced: %v", rt.fences)
	}
	b.order(r, rt, 0, 8, false) // nothing written since the fence
	if len(rt.fences) != 2 {
		t.Fatalf("fenced with nothing outstanding: %v", rt.fences)
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.memmove", "repro/internal/mpi.(*Win).pack", "repro/internal/armcimpi.(*Runtime).PutV"}, "mpi"},
		{[]string{"repro/internal/obs/critpath.(*Rec).Parked", "repro/internal/sim.(*Proc).Park"}, "obs"},
		{[]string{"repro/internal/platform.(*Platform).EffBandwidth", "repro/internal/fabric.(*Machine).Compute"}, "fabric"},
		{[]string{"runtime.mallocgc", "runtime.gcAssistAlloc", "repro/internal/ga.(*Array).Get"}, "gc"},
		{[]string{"bytes.Equal", "main.(*noncontigWL).apply", "repro/internal/sim.(*Engine).runBody"}, "runtime"},
		{[]string{"runtime.schedule", "runtime.mcall"}, "runtime"},
	}
	for _, c := range cases {
		if got := classify(c.stack); got != c.want {
			t.Errorf("classify(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

func TestCPUProfileAttribution(t *testing.T) {
	var prof cpuProfile
	if err := prof.start(); err != nil {
		t.Fatal(err)
	}
	newCCSD(devSeed, true).run(runCfg{})
	cpu, err := prof.stop()
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, v := range cpu {
		total += v
	}
	if total <= 0 {
		t.Fatalf("no CPU samples attributed: %v", cpu)
	}
}

func TestAllocAttribution(t *testing.T) {
	before := takeAllocs()
	old := setMemProfileRate(1)
	r := newCCSD(devSeed, true).run(runCfg{})
	setMemProfileRate(old)
	objs, _ := allocDelta(before, takeAllocs())
	for _, m := range []string{"sim", "mpi", "ga", "obs"} {
		if objs[m] == 0 {
			t.Errorf("no allocations attributed to %s over %d tasks: %v", m, r.units, objs)
		}
	}
}

// TestStableSurfacesOnly fails if the benchmark's sources reach for the
// run configuration the ROADMAP replaces, or for the figure functions of
// internal/bench: a change that claims a gain must leave this
// benchmark's behaviour alone, so it may only use stable public
// surfaces.
func TestStableSurfacesOnly(t *testing.T) {
	forbidden := []string{
		"harness." + "Sched", "harness." + "Shards", "bench." + "Tweak", "bench." + "ExtraImpls",
		`"repro/internal/` + `bench"`,
	}
	files, err := filepath.Glob("*.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("no sources found: %v", err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, bad := range forbidden {
			if strings.Contains(string(src), bad) {
				t.Errorf("%s references %s", f, bad)
			}
		}
	}
}
