// Command bench measures what one failure-probability estimate costs, end to
// end and per layer, on four workloads that load different layers of the
// repository. It builds nothing itself: bench/run.sh compiles it from the
// checkout and passes the arguments through.
//
//	bench -workload fig7-rtn -seed 1 -seconds 20 -trace 0 [-o results.json]
//	bench -workload fig7-rtn -seed 1 -seconds 20 -trace 1 [-spans spans.json]
//	bench compare A.json... -- B.json...
//
// A run prints each metric as "name value unit (n=…)" and, as its last line,
// one JSON object {"correct", "attempted", "failed", "metrics"}. With -trace 0
// the metrics are the end-to-end ones, with -trace 1 the per-layer ones. A
// failed correctness check makes the run exit non-zero.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit. The bounds live in
// BENCHMARK.json; TestMetricTablesMatchBenchmarkJSON keeps the two in step.
type metricDef struct{ name, unit string }

// e2eMetrics are reported by every untraced run, on every workload.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"op_s_p50", "s"},
	{"op_s_p90", "s"},
	{"s_to_relerr10", "s"},
	{"sims_per_op", "count"},
	{"sims_to_relerr10", "count"},
	{"max_rss_mb", "MB"},
}

// layerMetrics are reported by every traced run. A metric of a layer the
// workload does not exercise reads 0 with n=0.
var layerMetrics = []metricDef{
	{"device.ids_ns_per_lane", "ns"},
	{"sram.margin_us", "us"},
	{"sram.root_solves_per_sim", "count"},
	{"sram.iters_per_solve", "count"},
	{"sram.lane_occupancy", "ratio"},
	{"svm.score_ns", "ns"},
	{"svm.classified_per_op", "count"},
	{"svm.blockade_frac", "ratio"},
	{"svm.train_s", "s"},
	{"montecarlo.proposal_draw_ns", "ns"},
	{"montecarlo.gmm_logpdf_ns", "ns"},
	{"montecarlo.stage2_s", "s"},
	{"montecarlo.stall_frac", "ratio"},
	{"pfilter.boundary_s", "s"},
	{"pfilter.boundary_sims_per_op", "count"},
	{"pfilter.boundary_found_frac", "ratio"},
	{"pfilter.stage1_sims_per_op", "count"},
	{"pfilter.round_s", "s"},
	{"rtn.sample_ns", "ns"},
	{"core.init_s", "s"},
	{"core.run_s", "s"},
	{"core.unattributed_frac", "ratio"},
	{"core.speedup_vs_1", "ratio"},
	{"core.warm_points_frac", "ratio"},
	{"core.sym_z_max", "sigma"},
	{"service.hit_s_p50", "s"},
	{"service.submit_s_p50", "s"},
	{"service.queue_wait_s_mean", "s"},
	{"service.run_s_p50", "s"},
	{"service.fetch_s_p50", "s"},
	{"service.cache_hit_frac", "ratio"},
	{"service.queue_depth_max", "count"},
	{"store.appends_per_job", "count"},
	{"store.bytes_per_job", "bytes"},
	{"store.append_s_p50", "s"},
	{"cluster.hop_s_p50", "s"},
	{"cluster.shard_imbalance", "ratio"},
	{"cluster.cache_routed_frac", "ratio"},
	{"obsv.trace_overhead_frac", "ratio"},
}

// Metric is one measured value with the number of samples behind it.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// Check is one correctness check and its verdict.
type Check struct {
	Name   string `json:"name"`
	Pass   bool   `json:"pass"`
	Detail string `json:"detail"`
}

// Doc is the full result document of one run, written with -o and read by
// compare.
type Doc struct {
	Host      Host              `json:"host"`
	Date      string            `json:"date"`
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   int               `json:"seconds"`
	Trace     bool              `json:"trace"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
	Checks    []Check           `json:"checks"`
	Notes     []string          `json:"notes,omitempty"`
}

func (d *Doc) correct() bool {
	for _, c := range d.Checks {
		if !c.Pass {
			return false
		}
	}
	return true
}

// set records a metric. A value that could not be measured (NaN, e.g. a
// p90 below minTailSamples) leaves an end-to-end metric unset, which fails
// the run; a per-layer one reads 0 with n=0, the convention for a layer the
// workload does not exercise.
func (d *Doc) set(name string, v float64, n int) {
	finite := !math.IsNaN(v) && !math.IsInf(v, 0)
	for _, m := range e2eMetrics {
		if m.name == name {
			if finite {
				d.Metrics[name] = Metric{Value: v, Unit: m.unit, N: n}
			}
			return
		}
	}
	for _, m := range layerMetrics {
		if m.name == name {
			if !finite {
				v, n = 0, 0
			}
			d.Metrics[name] = Metric{Value: v, Unit: m.unit, N: n}
			return
		}
	}
	panic("bench: unknown metric " + name)
}

func (d *Doc) check(name string, pass bool, format string, args ...any) {
	d.Checks = append(d.Checks, Check{Name: name, Pass: pass, Detail: fmt.Sprintf(format, args...)})
}

func (d *Doc) note(format string, args ...any) {
	d.Notes = append(d.Notes, fmt.Sprintf(format, args...))
}

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	work     string // scratch directory for journals and the default spans file
	spans    string // spans output path (trace runs)
	nproc    int

	setupReps   int     // set-ups per run; setup_s is their median
	closedCount int     // ops the count metrics of a closed loop average over
	sweepCount  int     // sweep points the count metrics of sweep-warm average over
	rate        float64 // service-open arrivals per second
	roundJobs   int     // jobs of an in-process traced pass's service round
}

// runTimeout bounds a whole run beyond its measured window, so a hung
// operation fails the run instead of blocking it.
const runTimeout = 120 * time.Second

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareMain(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "bench compare:", err)
			os.Exit(2)
		}
		return
	}
	os.Exit(runMain(os.Args[1:]))
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload name: "+workloadNames())
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Int("seconds", 20, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced pass and reports the per-layer metrics")
	work := fs.String("work", ".bench_build", "scratch directory for journals and spans")
	spans := fs.String("spans", "", "spans output file for -trace 1 (default <work>/spans-<workload>-<seed>.json)")
	out := fs.String("o", "", "append the result document to this JSON array file")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: need -workload (%s), -seconds >= 1 and -trace 0|1\n", workloadNames())
		return 2
	}
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	cfg := config{
		workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, work: *work, spans: *spans, nproc: nproc,
		setupReps: setupReps, closedCount: closedCountOps, sweepCount: sweepCountOps,
		rate: openRate, roundJobs: roundJobs,
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if cfg.trace && cfg.spans == "" {
		cfg.spans = filepath.Join(cfg.work, fmt.Sprintf("spans-%s-%d.json", cfg.workload, cfg.seed))
	}
	ctx, cancel := context.WithTimeout(context.Background(), cfg.seconds+runTimeout)
	defer cancel()

	doc := &Doc{
		Host: readHost(), Date: time.Now().UTC().Format("2006-01-02"),
		Workload: cfg.workload, Seed: cfg.seed, Seconds: *seconds, Trace: cfg.trace,
		Metrics: map[string]Metric{},
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	err := run(ctx, cfg, doc)
	pprof.StopCPUProfile()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	want := e2eMetrics
	if cfg.trace {
		want = layerMetrics
	}
	for _, m := range want {
		if _, ok := doc.Metrics[m.name]; ok {
			continue
		}
		if cfg.trace {
			doc.set(m.name, math.NaN(), 0) // a layer this workload does not exercise
		} else {
			doc.check("metric."+m.name, false, "not measured in this run")
		}
	}
	if !doc.correct() {
		doc.Failed = doc.Attempted
	}
	printDoc(os.Stdout, doc, want)
	if *out != "" {
		if err := appendDoc(*out, doc); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	if !doc.correct() {
		return 1
	}
	return 0
}

// printDoc writes the human-readable lines and, last, the one-line JSON
// summary.
func printDoc(w io.Writer, d *Doc, want []metricDef) {
	fmt.Fprintf(w, "workload %s seed %d: %d ops attempted, %d failed (%s, %d cpu, GOMAXPROCS %d)\n",
		d.Workload, d.Seed, d.Attempted, d.Failed, d.Host.CPU, d.Host.NProc, d.Host.GOMAXPROCS)
	for _, n := range d.Notes {
		fmt.Fprintln(w, n)
	}
	for _, c := range d.Checks {
		verdict := "ok"
		if !c.Pass {
			verdict = "FAILED"
		}
		fmt.Fprintf(w, "check %s %s: %s\n", c.Name, verdict, c.Detail)
	}
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	summary := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{d.correct(), d.Attempted, d.Failed, map[string]jsonMetric{}}
	for _, m := range want {
		v, ok := d.Metrics[m.name]
		if !ok {
			fmt.Fprintf(w, "%s n/a %s (n=0)\n", m.name, m.unit)
			continue
		}
		fmt.Fprintf(w, "%s %.6g %s (n=%d)\n", m.name, v.Value, v.Unit, v.N)
		summary.Metrics[m.name] = jsonMetric{v.Value, v.Unit}
	}
	b, err := json.Marshal(summary)
	if err != nil {
		panic(err) // only finite numbers reach the map
	}
	fmt.Fprintln(w, string(b))
}

// appendDoc adds d to the JSON array stored at path, creating it if needed.
func appendDoc(path string, d *Doc) error {
	var docs []*Doc
	raw, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(raw, &docs); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	case !errors.Is(err, os.ErrNotExist):
		return err
	}
	docs = append(docs, d)
	b, err := json.MarshalIndent(docs, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}
