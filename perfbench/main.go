// Command perfbench is the repository's benchmark: seeded workloads
// shaped after the paper's Figure 3, 4 and 6 experiments and the
// observability path, run as simulated jobs through the public layer
// APIs, reporting host cost and simulated time end to end and, in a
// separate traced run, per layer. See README.md in this directory.
//
//	go run . --workload contig-rma --seed 1 --seconds 10 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// The development seed is the one to tune against; claims are made on
// the held-out seed as well.
const (
	devSeed     = 1
	heldOutSeed = 7919
)

var workloadNames = []string{"contig-rma", "noncontig-rma", "ccsd-ga", "ccsd-observed"}

// workload is one seeded benchmark workload; run executes each of its
// jobs once.
type workload interface {
	run(cfg runCfg) *rep
}

func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case "contig-rma":
		return newContig(seed), nil
	case "noncontig-rma":
		return newNoncontig(seed), nil
	case "ccsd-ga":
		return newCCSD(seed, false), nil
	case "ccsd-observed":
		return newCCSD(seed, true), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	Metrics   metricSet `json:"metrics"`

	notes []string // printed with the table, not part of the result line
}

func main() {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", ")+", or all")
	seed := flag.Int64("seed", devSeed, fmt.Sprintf("input seed (development %d, held out %d)", devSeed, heldOutSeed))
	seconds := flag.Float64("seconds", 10, "measurement time per run")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	// The default engine mode runs one simulated rank at a time, so a
	// second P adds no parallel work, only a cross-thread wake-up at
	// every rank switch. Those wake-ups made host times swing by a
	// quarter between runs on a 2-vCPU VM; with one P the garbage
	// collector also shares the mutator's P, so its cost shows in wall_s.
	runtime.GOMAXPROCS(1)
	if *name == "" || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	names := []string{*name}
	if *name == "all" {
		names = workloadNames
	}
	out := bufio.NewWriter(os.Stdout)
	fmt.Fprintf(out, "# %s\n", envLine())
	total := result{Correct: true, Metrics: metricSet{}}
	for _, n := range names {
		w, err := newWorkload(n, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
		m := &measurement{w: w, seconds: time.Duration(*seconds * float64(time.Second))}
		var res result
		if *trace == 1 {
			res = m.traced()
		} else {
			res = m.untraced()
		}
		printTable(out, n, *seed, res)
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		total.Correct = total.Correct && res.Correct
		for k, v := range res.Metrics {
			if len(names) > 1 {
				k = n + "." + k
			}
			total.Metrics[k] = v
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Fprintf(out, "%s\n", line)
	if err := out.Flush(); err != nil {
		os.Exit(1)
	}
}

// envLine records the host the numbers were measured on.
func envLine() string {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d go=%s cpu=%q", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpu)
}

func printTable(out *bufio.Writer, name string, seed int64, res result) {
	fmt.Fprintf(out, "# workload=%s seed=%d correct=%v attempted=%d failed=%d error_rate=%g\n",
		name, seed, res.Correct, res.Attempted, res.Failed, ratio(float64(res.Failed), float64(res.Attempted)))
	for _, n := range res.notes {
		fmt.Fprintf(out, "#   %s\n", n)
	}
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(out, "#   %-36s %16.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
}
