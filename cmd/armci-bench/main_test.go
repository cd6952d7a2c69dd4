package main

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/armcimpi"
	"repro/internal/bench"
	"repro/internal/harness"
	"repro/internal/sim"
)

// TestInstallSched covers the shard flag surface, checked before any
// job is built: a negative -shards is rejected, a valid count caps the
// parallel-speedup sweep, and every observability flag is rejected
// alongside -shards > 1 with an error naming it.
func TestInstallSched(t *testing.T) {
	if err := installSched(-1); err == nil || !strings.Contains(err.Error(), "must not be negative") {
		t.Errorf("-shards -1: error %v, want one saying it must not be negative", err)
	}
	for _, k := range []int{0, 1, 8} {
		if err := installSched(k); err != nil {
			t.Errorf("-shards %d rejected: %v", k, err)
		}
	}
	for _, tc := range []struct {
		quick  bool
		shards int
		want   []int
	}{
		{false, 0, bench.DefaultParallel().Shards},
		{true, 0, bench.QuickParallel().Shards},
		{true, 1, []int{1}},
		{false, 6, []int{1, 2, 4, 6}},
		{true, 8, []int{1, 2, 4, 8}},
	} {
		if got := speedupConfig(tc.quick, tc.shards).Shards; !slices.Equal(got, tc.want) {
			t.Errorf("-quick=%v -shards %d: sweep %v, want %v", tc.quick, tc.shards, got, tc.want)
		}
	}

	for _, tc := range []struct {
		flag                     string
		stats, profile, critpath bool
		trace                    string
	}{
		{flag: "-stats", stats: true},
		{flag: "-profile", profile: true},
		{flag: "-critpath", critpath: true},
		{flag: "-trace", trace: "t.json"},
	} {
		for _, k := range []int{0, 1} {
			if err := checkObsSharding(k, tc.stats, tc.profile, tc.critpath, tc.trace); err != nil {
				t.Errorf("%s with -shards %d rejected: %v", tc.flag, k, err)
			}
		}
		err := checkObsSharding(2, tc.stats, tc.profile, tc.critpath, tc.trace)
		if err == nil || !strings.Contains(err.Error(), tc.flag) {
			t.Errorf("%s with -shards 2: error %v, want one naming %s", tc.flag, err, tc.flag)
		}
	}
	if err := checkObsSharding(8, false, false, false, ""); err != nil {
		t.Errorf("-shards 8 without observability rejected: %v", err)
	}
}

// TestInstallTweak covers the runtime-tuning flag surface: no flags
// installs no hook, bad method names are rejected before any sweep
// runs, and valid flags become an Options hook every benchmark job
// applies.
func TestInstallTweak(t *testing.T) {
	defer func() { bench.Tweak = nil }()

	bench.Tweak = nil
	if err := installTweak(-1, "", ""); err != nil {
		t.Fatalf("no flags: %v", err)
	}
	if bench.Tweak != nil {
		t.Fatal("no flags installed a Tweak hook")
	}

	for _, bad := range []struct{ strided, iov string }{
		{"bogus", ""},
		{"", "bogus"},
		{"", "strided"}, // not a method name at all
	} {
		bench.Tweak = nil
		if err := installTweak(-1, bad.strided, bad.iov); err == nil {
			t.Errorf("installTweak(-1, %q, %q) accepted an unknown method",
				bad.strided, bad.iov)
		}
		if bench.Tweak != nil {
			t.Errorf("failed installTweak(%q, %q) still installed a hook",
				bad.strided, bad.iov)
		}
	}

	bench.Tweak = nil
	if err := installTweak(16, "batched", "conservative"); err != nil {
		t.Fatal(err)
	}
	if bench.Tweak == nil {
		t.Fatal("valid flags installed no Tweak hook")
	}
	opt := armcimpi.DefaultOptions()
	bench.Tweak(&opt)
	if opt.BatchSize != 16 {
		t.Errorf("BatchSize = %d, want 16", opt.BatchSize)
	}
	if opt.StridedMethod != armcimpi.MethodBatched {
		t.Errorf("StridedMethod = %s, want batched", opt.StridedMethod)
	}
	if opt.IOVMethod != armcimpi.MethodConservative {
		t.Errorf("IOVMethod = %s, want conservative", opt.IOVMethod)
	}

	// A partial tweak leaves the other knobs at their defaults.
	def := armcimpi.DefaultOptions()
	if err := installTweak(-1, "iov-direct", ""); err != nil {
		t.Fatal(err)
	}
	opt = armcimpi.DefaultOptions()
	bench.Tweak(&opt)
	if opt.StridedMethod != armcimpi.MethodIOVDirect {
		t.Errorf("StridedMethod = %s, want iov-direct", opt.StridedMethod)
	}
	if opt.IOVMethod != def.IOVMethod || opt.BatchSize != def.BatchSize {
		t.Errorf("partial tweak disturbed other options: iov=%s batch=%d",
			opt.IOVMethod, opt.BatchSize)
	}
}

// TestTweakReachesDartRemoteTier asserts the -strided-method and
// -iov-method flags flow through the shared Options into dartmpi's
// routing decisions: the wire tier of the locality runtime must compile
// with the method the flag selected, since both runtimes now resolve
// methods through the one engine decision layer.
func TestTweakReachesDartRemoteTier(t *testing.T) {
	defer func() { bench.Tweak = nil }()
	if err := installTweak(-1, "conservative", "batched"); err != nil {
		t.Fatal(err)
	}
	opt := armcimpi.DefaultOptions()
	bench.Tweak(&opt)

	j, err := harness.NewJob(harness.TestPlatform(), 4, harness.ImplDartMPI, opt)
	if err != nil {
		t.Fatal(err)
	}
	err = j.Eng.Run(4, func(p *sim.Proc) {
		rt := j.Runtime(p)
		addrs, err := rt.Malloc(4096)
		if err != nil {
			t.Error(err)
			return
		}
		local := rt.MallocLocal(4096)
		if rt.Rank() == 1 {
			pr := rt.(interface {
				RouteOf(armcimpi.RouteRequest) armcimpi.RouteDecision
			})
			d := pr.RouteOf(armcimpi.RouteRequest{
				Class: armcimpi.ClassPut, Shape: armcimpi.ShapeStrided,
				Local: local, Remote: addrs[2], Target: 2, Bytes: 1024,
			})
			if d.Route != armcimpi.RouteRMA || d.Method != armcimpi.MethodConservative {
				t.Errorf("remote strided: route=%s method=%s, want rma/conservative",
					d.Route, d.Method)
			}
			d = pr.RouteOf(armcimpi.RouteRequest{
				Class: armcimpi.ClassGet, Shape: armcimpi.ShapeIOV,
				Target: 2, Bytes: 1024,
			})
			if d.Route != armcimpi.RouteRMA || d.Method != armcimpi.MethodBatched {
				t.Errorf("remote IOV: route=%s method=%s, want rma/batched",
					d.Route, d.Method)
			}
		}
		rt.Barrier()
		if err := rt.FreeLocal(local); err != nil {
			t.Error(err)
		}
		if err := rt.Free(addrs[rt.Rank()]); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
