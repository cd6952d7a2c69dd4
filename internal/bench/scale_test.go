package bench

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/nwchem"
	"repro/internal/platform"
)

// smokeScale is a miniature scale configuration for tests and the CI
// race smoke: the same two shapes and both runtimes, at a rank count
// small enough for the race detector.
func smokeScale() ScaleConfig {
	return ScaleConfig{
		Ranks:          []int{128},
		Params:         nwchem.Params{NO: 2, NV: 16, Blk: 16, Iter: 1, Chunk: 1, FlopMult: 40},
		FanoutOwners:   8,
		FanoutBlkElems: 64,
		FanoutIters:    2,
	}
}

// artifact reads a committed results/ file.
func artifact(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "results", name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// checkGuardedArtifacts regenerates the guarded quick figures and
// compares each JSON export byte for byte with the committed
// results/BENCH_*.json artifact. With parallel set, the figures
// regenerate concurrently.
func checkGuardedArtifacts(t *testing.T, parallel bool) {
	ib := platform.Get(platform.InfiniBand)
	for _, tc := range []struct {
		name string
		gen  func() (*Figure, error)
	}{
		{"fig3-ib", func() (*Figure, error) { return Fig3(ib, QuickFig3()) }},
		{"ablation-shm", func() (*Figure, error) { return AblationShm(ib, QuickShmAblation()) }},
		{"ablation-nbfanout", func() (*Figure, error) { return AblationNbFanout(ib, QuickNbFanout()) }},
		{"ablation-locality", func() (*Figure, error) { return AblationLocality(ib, QuickLocalityAblation()) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if parallel {
				t.Parallel()
			}
			want := artifact(t, "BENCH_"+tc.name+".json")
			f, err := tc.gen()
			if err != nil {
				t.Fatal(err)
			}
			if f.Name != tc.name {
				t.Fatalf("figure name %q, want %q", f.Name, tc.name)
			}
			var got bytes.Buffer
			if err := f.WriteJSON(&got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("regenerated BENCH_%s.json differs from the committed artifact:\n--- got ---\n%s\n--- want ---\n%s",
					tc.name, got.Bytes(), want)
			}
		})
	}
}

// TestModeEquivalenceGuardedFigures regenerates the guarded quick
// figures on the engine's default single shard and compares each JSON
// export byte for byte with the committed results/BENCH_*.json
// artifact. The artifacts were produced under the goroutine-per-rank
// reference scheduler, so this keeps that oracle for the full
// communication stacks inside go test.
func TestModeEquivalenceGuardedFigures(t *testing.T) {
	checkGuardedArtifacts(t, false)
}

// TestParallelEquivalence regenerates the guarded figures concurrently
// in one process: every job owns its engine, machine, and recorder, so
// running sweeps side by side on host threads must leave each figure
// byte-identical to its committed artifact (and race-free under -race).
func TestParallelEquivalence(t *testing.T) {
	checkGuardedArtifacts(t, true)
}

// TestScaleSmokeSeries sanity-checks the scale figure's shape on the
// smoke config: both runtimes, both shapes, every requested rank count.
func TestScaleSmokeSeries(t *testing.T) {
	f, err := Scale(smokeScale())
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"ARMCI-MPI CCSD", "ARMCI-MPI fanout put", "ARMCI-MPI fanout get",
		"dartmpi CCSD", "dartmpi fanout put", "dartmpi fanout get",
	}
	for _, label := range want {
		s := f.Get(label)
		if s == nil {
			t.Errorf("series %q missing", label)
			continue
		}
		if len(s.X) != 1 || s.X[0] != 128 {
			t.Errorf("series %q sampled at %v, want [128]", label, s.X)
		}
		if s.Y[0] <= 0 {
			t.Errorf("series %q value %v, want > 0", label, s.Y[0])
		}
	}
}

// BenchmarkScale is the CI race-smoke entry point: one smoke-sized
// scale sweep per iteration, driving the engine's continuation
// dispatch, the CCSD proxy, and the fan-out shape under the race
// detector.
func BenchmarkScale(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Scale(smokeScale()); err != nil {
			b.Fatal(err)
		}
	}
}
