// Command perfbench is the repository benchmark: four workloads over the
// generated Rocket SoC r1, each timed end to end from FIRRTL text in hand,
// every output checked against an independent reference, and a separate
// traced run that splits the time by layer. See README.md in this
// directory for the workloads, the metrics and how to read a trace.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload soc-session --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --selftest
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
// are the end-to-end metrics, with --trace 1 the per-layer metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
)

// metric is one reported figure with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is what one invocation asks of a workload.
type runConfig struct {
	seed    uint64
	seconds float64
	tr      *tracer
	// short shrinks set-up repetitions and the checked prefix for the
	// self-test; measured runs never set it.
	short bool
	// corrupt makes the correctness check see one wrong output (the
	// self-test's negative control).
	corrupt bool
}

// report is what a workload run produced.
type report struct {
	e2e   map[string]metric // end-to-end metrics, untraced run
	layer map[string]metric // per-layer metrics, traced run
	meta  map[string]any
	// attempted counts operations and checked values; failed counts
	// failed or refused operations; mismatched counts checked values that
	// disagreed with the reference.
	attempted, failed, mismatched int64
	firstMismatch                 string
}

func newReport() *report {
	return &report{e2e: map[string]metric{}, layer: map[string]metric{}, meta: map[string]any{}}
}

// errorRatio is failed or refused operations plus output mismatches over
// operations attempted.
func (r *report) errorRatio() float64 {
	return float64(r.failed+r.mismatched) / float64(max(r.attempted, 1))
}

type workload struct {
	name string
	run  func(runConfig) (*report, error)
}

// workloads lists the benchmark's workloads; README.md says why each
// exists and which layers it bypasses.
var workloads = []workload{
	{"soc-session", runSocSession},
	{"soc-batch", runSocBatch},
	{"soc-partitioned", runSocPartitioned},
	{"serve-mix", runServeMix},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// endToEnd names every end-to-end metric with its unit. Every time among
// them is normalised against the probe (probe.go).
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"lane_cycles_per_s", "1/s"},
	{"request_ms_p50", "ms"},
	{"request_ms_p90", "ms"},
	{"mem_mb", "MB"},
}

func main() {
	var (
		name     = flag.String("workload", "", "workload to run: soc-session, soc-batch, soc-partitioned or serve-mix")
		seed     = flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 10, "length of the measured window in seconds")
		trace    = flag.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
		traceDir = flag.String("trace-dir", ".bench_build/traces", "directory the traced run writes its spans to")
		selftest = flag.Bool("selftest", false, "run every workload briefly and check the benchmark itself")
	)
	flag.Parse()
	if *selftest {
		if err := selfTest(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench selftest:", err)
			os.Exit(1)
		}
		fmt.Println("perfbench selftest: ok")
		return
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, tr: newTracer(*trace == 1)}
	rep, err := w.run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench %s: %v\n", w.name, err)
		os.Exit(1)
	}
	if cfg.tr.enabled {
		cfg.tr.computeSelf()
		cfg.tr.summary(os.Stdout)
		path, err := cfg.tr.write(*traceDir, fmt.Sprintf("%s-seed%d.json", w.name, *seed))
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench %s: writing trace: %v\n", w.name, err)
			os.Exit(1)
		}
		fmt.Printf("trace written to %s (%d spans)\n", path, len(cfg.tr.spans))
	}
	rep.meta["workload"] = w.name
	rep.meta["seed"] = *seed
	rep.meta["seconds"] = *seconds
	rep.meta["trace"] = *trace
	res := finish(os.Stdout, rep, cfg.tr.enabled)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encoding result:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() string {
	var n []string
	for _, w := range workloads {
		n = append(n, w.name)
	}
	return strings.Join(n, ", ")
}

// finish prints the human-readable report and builds the result line.
func finish(w io.Writer, rep *report, traced bool) result {
	rep.meta["num_cpu"] = runtime.NumCPU()
	if _, ok := rep.meta["gomaxprocs"]; !ok { // serve-mix sets its own
		rep.meta["gomaxprocs"] = runtime.GOMAXPROCS(0)
	}
	rep.meta["go_version"] = runtime.Version()
	rep.meta["goos_goarch"] = runtime.GOOS + "/" + runtime.GOARCH
	meta, err := json.Marshal(rep.meta)
	if err == nil {
		fmt.Fprintf(w, "meta %s\n", meta)
	}
	ms := rep.e2e
	if traced {
		ms = rep.layer
	}
	printMetrics(w, ms)
	fmt.Fprintf(w, "metric %-32s %.6g %s\n", "error_ratio", rep.errorRatio(), "ratio")
	if rep.firstMismatch != "" {
		fmt.Fprintf(w, "first mismatch: %s\n", rep.firstMismatch)
	}
	return result{
		Correct:   rep.failed == 0 && rep.mismatched == 0,
		Attempted: max(rep.attempted, 1),
		Failed:    rep.failed + rep.mismatched,
		Metrics:   ms,
	}
}

func printMetrics(w io.Writer, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "metric %-32s %.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}
