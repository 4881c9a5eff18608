// Command perfbench is dftmsn's end-to-end benchmark. One invocation runs
// one named workload for a given seed and time budget, checks every job's
// output against stored hashes, and prints its metrics as the last line of
// standard output:
//
//	perfbench --workload fig2-sweep --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 a
// separately measured run prints the per-layer metrics, and writes its
// spans under the work directory. --workload selftest runs a short mode of
// every workload and checks the metric set against BENCHMARK.json;
// --regen rewrites the expected hashes for this GOARCH. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// The end-to-end metrics, in the units BENCHMARK.json declares.
var e2eUnits = map[string]string{
	"cpu_s":            "s",
	"setup_s":          "s",
	"peak_rss_mb":      "MB",
	"alloc_mb_per_job": "MB",
}

// The per-layer metrics of the traced run. A workload that cannot measure
// one from outside the program reports it as 0 and names it in the
// not_measured line printed before the result. wall_s and the job
// latencies are end-to-end figures too, but host noise spreads them
// beyond the largest regression bound an end-to-end metric may have.
var layerUnits = map[string]string{
	"wall_s":                    "s",
	"job_p50_ms":                "ms",
	"scenario.new_ms":           "ms",
	"scenario.new_kb_per_node":  "KB",
	"scenario.run_ms":           "ms",
	"scenario.digest_ms":        "ms",
	"sim.events_fired":          "count",
	"sim.events_elided":         "count",
	"sim.elided_share":          "ratio",
	"sim.ns_per_event":          "ns",
	"sim.hook_overhead_ms":      "ms",
	"sim.reconcile_share":       "ratio",
	"radio.frames_sent":         "count",
	"radio.collisions":          "count",
	"mac.cts_per_rts":           "ratio",
	"mac.ack_per_data":          "ratio",
	"buffer.drops_full":         "count",
	"buffer.drops_threshold":    "count",
	"core.sleeps":               "count",
	"core.duty_cycle":           "ratio",
	"routing.delivery_ratio":    "ratio",
	"service.submit_ms_p50":     "ms",
	"service.submit_ms_p90":     "ms",
	"service.hit_ms_p50":        "ms",
	"service.queue_wait_ms_p50": "ms",
	"service.queue_wait_ms_p90": "ms",
	"service.run_ms_p50":        "ms",
	"service.cache_hit_share":   "ratio",
	"service.worker_busy_share": "ratio",
	"service.rejected":          "count",
	"service.journal_bytes":     "bytes",
	"service.replay_ms":         "ms",
	"telemetry.sse_events":      "count",
	"telemetry.sse_bytes":       "bytes",
	"telemetry.stream_done_ms":  "ms",
	"go.gc_cycles":              "count",
	"go.gc_cpu_share":           "ratio",
	"go.heap_peak_mb":           "MB",
	"host.steal_share":          "ratio",
	"loadgen.late_p90_ms":       "ms",
	"trace.overhead_share":      "ratio",
	"fail_share":                "ratio",
	"job_p90_ms":                "ms",
}

func init() {
	for _, l := range kernelLabels {
		layerUnits["sim.self_ms."+l] = "ms"
		layerUnits["sim.fired."+l] = "count"
	}
	for _, s := range []string{"OPT", "NOSLEEP", "NOOPT", "ZBR"} {
		layerUnits["routing.run_ms."+s] = "ms"
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report gathers one run's outcome.
type report struct {
	attempted, failed int
	e2eVals           map[string]float64
	layerVals         map[string]float64
	notes             map[string]any
	samples, passes   int
}

func newReport() *report {
	return &report{e2eVals: map[string]float64{}, layerVals: map[string]float64{}, notes: map[string]any{}}
}

func (r *report) attempt(ok bool) {
	r.attempted++
	if !ok {
		r.failed++
	}
}

func (r *report) e2e(name string, v float64)   { r.e2eVals[name] = v }
func (r *report) layer(name string, v float64) { r.layerVals[name] = v }
func (r *report) note(name string, v any)      { r.notes[name] = v }

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metrics selects the end-to-end or per-layer set, filling per-layer
// metrics the workload cannot measure with 0 and naming them.
func (r *report) metrics(trace bool) (map[string]metric, []string) {
	units, vals := e2eUnits, r.e2eVals
	if trace {
		units, vals = layerUnits, r.layerVals
		vals["fail_share"] = ratio(float64(r.failed), float64(r.attempted))
	}
	out := map[string]metric{}
	var missing []string
	for name, unit := range units {
		v, ok := vals[name]
		if !ok {
			missing = append(missing, name)
		}
		out[name] = metric{Value: v, Unit: unit}
	}
	sort.Strings(missing)
	return out, missing
}

// runOptions are the knobs of one measured run.
type runOptions struct {
	seed     uint64
	seconds  float64
	trace    bool
	short    bool // self-test size
	spanPath string
}

// workDir holds journals and span files; run.sh builds into it too, and it
// is ignored by git.
const workDir = ".bench_build"

// setupRepeats is how many times set-up runs per run (setup_s is the
// median of their CPU seconds); the self-test sets up once.
func (o runOptions) setupRepeats() int {
	if o.short {
		return 1
	}
	return 5
}

// minPasses is the least number of passes a sim run makes: a traced run
// needs one untraced and one traced pass.
func (o runOptions) minPasses() int {
	if o.trace {
		return 2
	}
	return 1
}

var workloads = []string{"fig2-sweep", "scale-10k", "serve-mix"}

func runWorkload(name string, o runOptions, exp expectations) (*report, error) {
	rep := newReport()
	o.spanPath = filepath.Join(workDir, fmt.Sprintf("spans-%s-seed%d.jsonl", name, o.seed))
	steal0 := readSteal()
	var err error
	switch name {
	// A warm-up job is the same for every workload seed, so that setup_s
	// measures the same work whatever the seed.
	case "fig2-sweep":
		err = runSims(func() simWorkload {
			cat := fig2Catalog()
			pass := fig2Pass(cat, o.seed)
			if o.short {
				pass = []job{pass[0], pass[15]}
			}
			// NOSLEEP, 3 sinks, run seed 1: long enough to time steadily.
			return simWorkload{pass: pass, warmup: cat[7]}
		}, o, exp, rep)
	case "scale-10k":
		err = runSims(func() simWorkload {
			cat := scaleCatalog()
			pass := scalePass(cat, o.seed)
			if o.short {
				pass = pass[:1]
			}
			return simWorkload{pass: pass, warmup: cat[0]}
		}, o, exp, rep)
	case "serve-mix":
		err = runServe(o, exp, rep)
	default:
		return nil, fmt.Errorf("perfbench: unknown workload %q (want one of %s)", name, strings.Join(workloads, ", "))
	}
	if err != nil {
		return nil, err
	}
	steal := stealShare(steal0, readSteal())
	rep.note("host_steal_share", steal)
	rep.layer("host.steal_share", steal)
	return rep, nil
}

func main() {
	workload := flag.String("workload", "", "workload to run: "+strings.Join(workloads, ", ")+", or selftest")
	seed := flag.Uint64("seed", 1, "workload seed: picks and orders the inputs")
	seconds := flag.Float64("seconds", 30, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	regen := flag.Bool("regen", false, "rewrite the expected hashes for this GOARCH and exit")
	loadGenBase := flag.String("load-gen", "", "internal: run as serve-mix's load generator against this base URL")
	firstPath := flag.String("first", "", "internal: the load generator's file of warm-up answers")
	spans := flag.String("spans", "", "internal: the load generator's span file")
	short := flag.Bool("short", false, "internal: self-test size")
	flag.Parse()

	if *regen {
		if err := regenerate(filepath.Join("perfbench", expectedFile)); err != nil {
			fatal(err)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("perfbench: --trace must be 0 or 1"))
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fatal(err)
	}
	exp, err := loadExpectations()
	if err != nil {
		fatal(err)
	}
	if *loadGenBase != "" {
		o := runOptions{seed: *seed, seconds: *seconds, trace: *trace == 1, short: *short, spanPath: *spans}
		lr, err := loadGen(*loadGenBase, *firstPath, o, exp)
		if err != nil {
			fatal(err)
		}
		emit(lr)
		return
	}
	if *workload == "selftest" {
		if err := selftest(exp); err != nil {
			fatal(err)
		}
		return
	}
	o := runOptions{seed: *seed, seconds: *seconds, trace: *trace == 1}
	prov := newProvenance()
	rep, err := runWorkload(*workload, o, exp)
	if err != nil {
		fatal(err)
	}
	prov.StealShare = rep.notes["host_steal_share"].(float64)
	m, missing := rep.metrics(o.trace)
	emit(map[string]any{"workload": *workload, "seed": *seed, "provenance": prov,
		"samples": rep.samples, "passes": rep.passes, "notes": rep.notes})
	if o.trace {
		emit(map[string]any{"not_measured": missing})
	}
	emit(result{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: m})
}

func emit(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

// selftest runs a short mode of every workload, untraced and traced, and
// checks that each prints every metric BENCHMARK.json names, with its
// unit, and no failed job; then it corrupts one expected hash and checks
// that the job is reported failed.
func selftest(exp expectations) error {
	spec, err := readSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	var problems []string
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			resetPeakRSS()
			o := runOptions{seed: 1, seconds: 1, trace: trace, short: true}
			rep, err := runWorkload(w, o, exp)
			if err != nil {
				return err
			}
			m, _ := rep.metrics(trace)
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			for _, s := range want {
				got, ok := m[s.Name]
				switch {
				case !ok:
					problems = append(problems, fmt.Sprintf("%s trace=%v: metric %s missing", w, trace, s.Name))
				case got.Unit != s.Unit:
					problems = append(problems, fmt.Sprintf("%s trace=%v: metric %s unit %q, BENCHMARK.json says %q", w, trace, s.Name, got.Unit, s.Unit))
				case !trace && got.Value <= 0:
					problems = append(problems, fmt.Sprintf("%s: end-to-end metric %s is %v", w, s.Name, got.Value))
				}
			}
			if len(m) != len(want) {
				problems = append(problems, fmt.Sprintf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w, trace, len(m), len(want)))
			}
			if rep.failed != 0 {
				problems = append(problems, fmt.Sprintf("%s trace=%v: %d of %d jobs failed", w, trace, rep.failed, rep.attempted))
			}
			fmt.Printf("selftest %-10s trace=%v attempted=%d failed=%d\n", w, trace, rep.attempted, rep.failed)
		}
	}
	// A corrupted expected hash must surface as a failed job.
	bad := expectations{}
	for k, v := range exp {
		bad[k] = v
	}
	for _, j := range fig2Pass(fig2Catalog(), 1) {
		bad[j.key] = "0000000000000000"
	}
	rep, err := runWorkload("fig2-sweep", runOptions{seed: 1, seconds: 1, short: true, trace: true}, bad)
	if err != nil {
		return err
	}
	m, _ := rep.metrics(true)
	if rep.failed == 0 || m["fail_share"].Value <= 0 {
		problems = append(problems, "corrupted expected hashes were not reported as failed jobs")
	} else {
		fmt.Printf("selftest corrupted hashes: %d of %d jobs failed, fail_share %.3f\n", rep.failed, rep.attempted, m["fail_share"].Value)
	}
	if len(problems) > 0 {
		return errors.New("perfbench: selftest failed:\n  " + strings.Join(problems, "\n  "))
	}
	fmt.Println("selftest ok")
	return nil
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func readSpec(path string) (spec, error) {
	var s spec
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	return s, json.Unmarshal(b, &s)
}
