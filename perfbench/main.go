// Command perfbench is the InteGrade repository benchmark. It drives the
// middleware through its public APIs on one of three workloads and prints a
// human-readable report followed, on the last line, by one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end figures of an untraced run;
// with -trace 1 they are the per-layer figures of a traced run (ORB
// interceptor spans, trader/policy probes, Stats counters, Go runtime
// costs). The program exits 1 when a correctness check fails and 2 on a
// usage or set-up error.
//
// Usage:
//
//	perfbench -workload place-10k|wire-churn|grid-day -seed N -seconds S -trace 0|1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// runOpts carries the command-line knobs into a workload.
type runOpts struct {
	seed     int64
	seconds  float64
	trace    bool
	short    bool   // tiny sizes, for the smoke test
	traceDir string // where traced runs write their span files ("" = nowhere)
}

// metric is one named figure with its unit.
type metric struct {
	name  string
	value float64
	unit  string
}

// outcome is what a workload run reports back to main.
type outcome struct {
	attempted int
	failed    int
	e2e       []metric // end-to-end metrics (untraced runs)
	layer     []metric // per-layer metrics (traced runs)
	report    []metric // printed only: workload-specific figures
	notes     []string // printed only: free-form context
	problems  []string // failed correctness checks
}

func (o *outcome) addE2E(name string, v float64, unit string) {
	o.e2e = append(o.e2e, metric{name, v, unit})
}

func (o *outcome) addLayer(name string, v float64, unit string) {
	o.layer = append(o.layer, metric{name, v, unit})
}

func (o *outcome) addReport(name string, v float64, unit string) {
	o.report = append(o.report, metric{name, v, unit})
}

func (o *outcome) notef(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

func (o *outcome) problemf(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(runOpts) (*outcome, error){
	"place-10k":  runPlace,
	"wire-churn": runWire,
	"grid-day":   runGridDay,
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: place-10k, wire-churn or grid-day")
	seed := fs.Int64("seed", 1, "seed for every generated input")
	seconds := fs.Float64("seconds", 10, "measurement length in wall seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics from an untraced run; 1: per-layer metrics from a traced run")
	short := fs.Bool("short", false, "tiny fleet and workload sizes (smoke testing)")
	traceDir := fs.String("trace-dir", ".bench_build/traces", "directory traced runs write their span files to (empty: keep spans in memory only)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	run, ok := workloads[*workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", *workload, strings.Join(names, ", "))
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "perfbench: -trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: -seconds must be positive\n")
		return 2
	}
	opts := runOpts{seed: *seed, seconds: *seconds, trace: *trace == 1, short: *short, traceDir: *traceDir}
	out, err := run(opts)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 2
	}
	checkOutcome(out, opts.trace)
	writeReport(stdout, *workload, opts, out)
	if len(out.problems) > 0 {
		return 1
	}
	return 0
}

// checkOutcome adds a problem for every metric that is missing, non-finite
// or duplicated, so a workload cannot silently drop a figure.
func checkOutcome(out *outcome, traced bool) {
	want, got := endToEndNames, out.e2e
	if traced {
		want, got = perLayerNames, out.layer
	}
	seen := make(map[string]bool, len(got))
	for _, m := range got {
		if seen[m.name] {
			out.problemf("metric %s emitted twice", m.name)
		}
		seen[m.name] = true
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			out.problemf("metric %s is %v", m.name, m.value)
		}
	}
	for _, n := range want {
		if !seen[n] {
			out.problemf("metric %s not emitted", n)
		}
	}
	if out.attempted < 1 {
		out.problemf("no operation attempted")
	}
}

// endToEndNames and perLayerNames are the metric sets BENCHMARK.json
// declares; every run of every workload emits all of one set.
var endToEndNames = []string{
	"setup_s", "submit_p50_ms", "submit_p90_ms", "placements_per_s", "heap_mb",
}

var perLayerNames = []string{
	"grm.submit.self_p50_us",
	"grm.policy.order_p50_us",
	"trading.select_p50_us",
	"trading.matched_per_select",
	"orb.reserve.calls", "orb.reserve.busy_ms", "orb.reserve.p50_us", "orb.reserve.bytes_per_call",
	"orb.execute.calls", "orb.execute.busy_ms", "orb.execute.p50_us", "orb.execute.bytes_per_call",
	"orb.update.calls", "orb.submit.calls", "orb.notify.calls", "orb.release.calls",
	"orb.append_entries.calls",
	"grm.quorum_batches",
	"grm.reserve_per_placement", "grm.refusal_ratio", "grm.placement_failures",
	"grm.tasks_evicted", "grm.restarts",
	"lrm.reserve_refusals", "lrm.tasks_evicted", "lrm.updates_sent",
	"proc.alloc_mb", "proc.allocs_per_placement", "proc.gc_cpu_frac",
	"bench.trace_overhead_frac",
}

// jsonMetric is the wire form of one metric in the result line.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func writeReport(w io.Writer, workload string, opts runOpts, out *outcome) {
	mode := "untraced"
	if opts.trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "# perfbench workload=%s seed=%d seconds=%g mode=%s\n", workload, opts.seed, opts.seconds, mode)
	for _, n := range out.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	printSet := func(title string, ms []metric) {
		if len(ms) == 0 {
			return
		}
		fmt.Fprintf(w, "# %s\n", title)
		for _, m := range ms {
			fmt.Fprintf(w, "%-34s %14.6g %s\n", m.name, m.value, m.unit)
		}
	}
	emitted := out.e2e
	if opts.trace {
		emitted = out.layer
		printSet("per-layer metrics", out.layer)
	} else {
		printSet("end-to-end metrics", out.e2e)
	}
	printSet("workload figures", out.report)
	fmt.Fprintf(w, "%-34s %14.6g %s\n", "ops_failed_frac", float64(out.failed)/float64(max(out.attempted, 1)), "frac")
	for _, p := range out.problems {
		fmt.Fprintf(w, "# CHECK FAILED: %s\n", p)
	}
	res := resultLine{
		Correct:   len(out.problems) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]jsonMetric, len(emitted)),
	}
	for _, m := range emitted {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // already reported as a failed check; JSON has no NaN
		}
		res.Metrics[m.name] = jsonMetric{Value: v, Unit: m.unit}
	}
	line, _ := json.Marshal(res)
	fmt.Fprintf(w, "%s\n", line)
}
