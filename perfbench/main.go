// Command perfbench is the repository's benchmark: one process that
// imports the simulator's packages, builds a workload from a seed, times
// calls into the program's public functions, checks every output, and
// prints its metrics as one JSON object on the last line.
//
//	perfbench --workload mesh-loaded --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics, the same three on every
// workload; --trace 1 runs the workload untraced and then traced (spans
// around every call into a layer plus a CPU profile of the timed phase)
// and prints every per-layer metric, the tracing overhead, and both
// runs' digests.
// --steady N runs every workload N times with seeds seed..seed+N-1,
// alternating the order, and prints each end-to-end metric's median and
// quartiles next to its bound in BENCHMARK.json (with --workload, only
// that workload). See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

var workloads = []string{"mesh-loaded", "mesh-idle", "mesh-explain", "admission-churn", "layout-synth"}

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what one pass of a workload (its set-ups, timed phase and
// checks) measured. An operation is the unit the workload times: a
// simulated cycle on the mesh workloads, an Admit or Teardown call on
// admission-churn, a request offered to layout.Synthesize on
// layout-synth.
type outcome struct {
	setupS    []float64 // CPU seconds of each set-up
	heapMB    float64   // live heap after the last set-up
	opsPerS   float64   // operations per CPU second in the timed phase
	attempted int64
	failed    int64
	digest    string
	failure   string             // the first failed check, empty when all passed
	layer     map[string]float64 // per-layer metrics, traced passes only
	summary   []string           // lines printed before the result
}

func newOutcome() *outcome { return &outcome{layer: map[string]float64{}} }

// fail records the first failed check.
func (o *outcome) fail(err error) {
	if err != nil && o.failure == "" {
		o.failure = err.Error()
	}
}

// passFunc runs one pass of a workload: setups set-ups (keeping the
// last), a timed phase of at least seconds, and the checks.
type passFunc func(seed int64, seconds float64, setups int, traced bool, outDir string) (*outcome, error)

// passFor returns a workload's pass and the set-ups an untraced run
// makes; setup_s is their median.
func passFor(workload string) (passFunc, int, error) {
	if cfg, ok := meshConfigs[workload]; ok {
		return func(seed int64, seconds float64, setups int, traced bool, outDir string) (*outcome, error) {
			return runMeshPass(workload, cfg, seed, seconds, setups, traced, outDir)
		}, meshSetups, nil
	}
	switch workload {
	case "admission-churn":
		return runChurnPass, churnSetups, nil
	case "layout-synth":
		return runSynthPass, synthSetups, nil
	}
	return nil, 0, fmt.Errorf("unknown workload %q (want one of %s)", workload, strings.Join(workloads, ", "))
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: "+strings.Join(workloads, ", "))
		seed     = flag.Int64("seed", 1, "seed the workload's inputs are drawn from")
		seconds  = flag.Float64("seconds", 10, "length of the timed phase in seconds")
		trace    = flag.Int("trace", 0, "1 runs traced as well and prints per-layer metrics")
		steady   = flag.Int("steady", 0, "run every workload this many times and print each metric's spread")
	)
	flag.Parse()
	if *steady > 0 {
		if err := runSteady(*steady, *seed, *seconds, *workload); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	res, err := run(*workload, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run runs one workload and returns its result line: the end-to-end
// metrics untraced, or, traced, an untraced and a traced pass whose
// digests must agree and the traced pass's per-layer metrics.
func run(workload string, seed int64, seconds float64, traced bool) (*result, error) {
	if seconds <= 0 {
		return nil, fmt.Errorf("--seconds %v must be positive", seconds)
	}
	pass, setups, err := passFor(workload)
	if err != nil {
		return nil, err
	}
	if traced {
		setups = 1
	}
	outDir := filepath.Join(".bench_build", "perfbench-trace", fmt.Sprintf("%s-seed%d", workload, seed))
	plain, err := pass(seed, seconds, setups, false, outDir)
	if err != nil {
		return nil, err
	}
	for _, l := range plain.summary {
		fmt.Println(l)
	}
	fmt.Printf("  digest %s\n", plain.digest)
	res := &result{
		Correct:   plain.failure == "",
		Attempted: plain.attempted,
		Failed:    plain.failed,
		Metrics:   map[string]metric{},
	}
	if plain.failure != "" {
		fmt.Println("  check failed:", plain.failure)
	}
	if !traced {
		res.Metrics["ops_per_s"] = metric{plain.opsPerS, "1/s"}
		res.Metrics["setup_s"] = metric{median(plain.setupS), "s"}
		res.Metrics["heap_mb"] = metric{plain.heapMB, "MB"}
		return res, nil
	}
	tp, err := pass(seed, seconds, 1, true, outDir)
	if err != nil {
		return nil, err
	}
	fmt.Printf("  traced digest %s\n", tp.digest)
	fmt.Printf("  tracing overhead: ops_per_s %.1f untraced, %.1f traced (%+.1f%%); setup_s %.3f untraced, %.3f traced (%+.1f%%)\n",
		plain.opsPerS, tp.opsPerS, pct(tp.opsPerS, plain.opsPerS),
		plain.setupS[0], tp.setupS[0], pct(tp.setupS[0], plain.setupS[0]))
	fmt.Printf("  spans and profiles in %s\n", outDir)
	if tp.digest != plain.digest {
		res.Correct = false
		fmt.Println("  check failed: traced and untraced digests differ")
	}
	if tp.failure != "" {
		res.Correct = false
		fmt.Println("  traced check failed:", tp.failure)
	}
	known := map[string]bool{}
	for _, name := range layerMetrics {
		known[name] = true
		res.Metrics[name] = metric{tp.layer[name], layerUnit(name)}
	}
	for name := range tp.layer {
		if !known[name] {
			return nil, fmt.Errorf("per-layer metric %s is not in the printed list", name)
		}
	}
	return res, nil
}

func pct(v, base float64) float64 {
	if base == 0 {
		return 0
	}
	return (v - base) / base * 100
}

// profiledPackages are the layers whose CPU-profile self time every
// traced run charges per operation (<package>.self_ns_per_op).
var profiledPackages = []string{"sched", "router", "sim", "rtc", "traffic", "obs", "metrics", "admission", "layout", "runtime"}

// layerMetrics lists the per-layer metrics every traced run prints. A
// workload that does not run a layer prints 0 for that layer's
// metrics: the dataplane ones on admission-churn and layout-synth, the
// admission spans on the mesh workloads, and so on (README.md maps each
// metric to the workloads that move it).
var layerMetrics = func() []string {
	names := []string{
		"sched.select_ns_per_cycle", "sched.selects_per_kcycle", "sched.occupancy_peak",
		"router.bind_ns_per_cycle", "router.blame_ns_per_cycle",
		"router.tc_hops_per_kcycle", "router.be_flits_per_kcycle", "router.bus_grants_per_kcycle",
		"sim.allocs_per_kcycle", "core.open_channel_us", "core.channels_opened",
		"obs.events_recorded", "obs.report_ms", "metrics.export_ms",
		"admission.accept_us.p50", "admission.accept_us.p99",
		"admission.reject_us.p50", "admission.reject_us.p99",
		"admission.teardown_us.p50", "admission.teardown_us.p99",
		"admission.accepts", "admission.rejects", "admission.teardowns", "obs.audit_records",
		"admission.verify_ledger_ms", "admission.seal_ms",
		"layout.probes_per_request", "layout.repairs_per_request", "layout.probe_us",
		"layout.admitted", "layout.rerouted", "layout.nonuniform",
	}
	for _, pkg := range profiledPackages {
		names = append(names, pkg+".self_ns_per_op")
	}
	return names
}()

// profileLayers charges a timed phase's CPU profile to the profiled
// packages per operation.
func profileLayers(L map[string]float64, byFn map[string]int64, ops float64) {
	layers := layerSelf(byFn)
	for _, pkg := range profiledPackages {
		L[pkg+".self_ns_per_op"] = float64(layers[pkg]) / ops
	}
}

// layerUnit derives a per-layer metric's unit from its name.
func layerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_ns_per_cycle"):
		return "ns/cycle"
	case strings.HasSuffix(name, "_per_kcycle"):
		return "1/kcycle"
	case strings.HasSuffix(name, "_ns_per_op"):
		return "ns/op"
	case strings.HasSuffix(name, "_ns_per_request"):
		return "ns/request"
	case strings.HasSuffix(name, "_per_request"):
		return "1/request"
	case strings.Contains(name, "_us"):
		return "us"
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	}
	return "count"
}

// sortDurations sorts ds ascending.
func sortDurations(ds []time.Duration) {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
}

// durationQuantileUs returns the q-quantile of sorted durations in µs.
func durationQuantileUs(sorted []time.Duration, q float64) float64 {
	ns := make([]int64, len(sorted))
	for i, d := range sorted {
		ns[i] = d.Nanoseconds()
	}
	return quantileUs(ns, q)
}

// durationsMS converts nanosecond durations to milliseconds.
func durationsMS(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, d := range ns {
		out[i] = float64(d) / 1e6
	}
	return out
}
