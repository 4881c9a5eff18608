package sweep

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"

	"dftmsn/internal/core"
	"dftmsn/internal/faults"
	"dftmsn/internal/scenario"
	"dftmsn/internal/telemetry"
)

// tinyVariant builds a very small, fast scenario.
func tinyVariant(name string, sch core.Scheme) Variant {
	return Variant{
		Name: name,
		Build: func(x float64) (scenario.Config, error) {
			cfg := scenario.DefaultConfig(sch)
			cfg.NumSensors = 10
			cfg.NumSinks = int(x)
			cfg.DurationSeconds = 200
			cfg.ArrivalMeanSeconds = 40
			return cfg, nil
		},
	}
}

func tinyExperiment() Experiment {
	return Experiment{
		Name:     "tiny",
		XLabel:   "sinks",
		Xs:       []float64{1, 2},
		Variants: []Variant{tinyVariant("OPT", core.SchemeOPT), tinyVariant("ZBR", core.SchemeZBR)},
		Runs:     2,
		BaseSeed: 3,
	}
}

func TestExperimentValidate(t *testing.T) {
	good := tinyExperiment()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.Name = ""
	if err := bad.Validate(); err == nil {
		t.Error("empty name accepted")
	}
	bad = good
	bad.Xs = nil
	if err := bad.Validate(); err == nil {
		t.Error("empty xs accepted")
	}
	bad = good
	bad.Runs = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero runs accepted")
	}
	bad = good
	bad.Variants = []Variant{{Name: "x"}}
	if err := bad.Validate(); err == nil {
		t.Error("nil build accepted")
	}
}

func TestRunAggregates(t *testing.T) {
	table, err := tinyExperiment().Run(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Variants) != 2 || len(table.Xs) != 2 {
		t.Fatalf("table shape %dx%d", len(table.Variants), len(table.Xs))
	}
	for vi := range table.Variants {
		for xi := range table.Xs {
			p := table.Cell(vi, xi)
			if p.DeliveryRatio.N() != 2 {
				t.Fatalf("cell (%d,%d) has %d runs, want 2", vi, xi, p.DeliveryRatio.N())
			}
			if p.GeneratedCount.Mean() <= 0 {
				t.Fatalf("cell (%d,%d) saw no traffic", vi, xi)
			}
			r := p.DeliveryRatio.Mean()
			if r < 0 || r > 1 {
				t.Fatalf("ratio %v out of range", r)
			}
		}
	}
}

func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	t1, err := tinyExperiment().Run(1)
	if err != nil {
		t.Fatal(err)
	}
	t8, err := tinyExperiment().Run(8)
	if err != nil {
		t.Fatal(err)
	}
	for vi := range t1.Variants {
		for xi := range t1.Xs {
			a := t1.Cell(vi, xi).DeliveryRatio.Mean()
			b := t8.Cell(vi, xi).DeliveryRatio.Mean()
			if a != b {
				t.Fatalf("cell (%d,%d) differs by worker count: %v vs %v", vi, xi, a, b)
			}
		}
	}
}

func TestRunPropagatesBuildErrors(t *testing.T) {
	e := tinyExperiment()
	e.Variants = append(e.Variants, Variant{
		Name: "broken",
		Build: func(float64) (scenario.Config, error) {
			return scenario.Config{}, nil // invalid zero config
		},
	})
	if _, err := e.Run(2); err == nil {
		t.Fatal("invalid config did not surface")
	}
}

func TestFormatAndCSV(t *testing.T) {
	table, err := tinyExperiment().Run(4)
	if err != nil {
		t.Fatal(err)
	}
	txt := table.Format(MetricRatio)
	if !strings.Contains(txt, "OPT") || !strings.Contains(txt, "ZBR") || !strings.Contains(txt, "sinks") {
		t.Fatalf("Format output missing labels:\n%s", txt)
	}
	if len(strings.Split(strings.TrimSpace(txt), "\n")) != 4 { // header comment + x row + 2 variants
		t.Fatalf("unexpected table shape:\n%s", txt)
	}
	csv := table.CSV(MetricPowerMW)
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 1+2*2 { // header + variants*xs
		t.Fatalf("CSV has %d lines:\n%s", len(lines), csv)
	}
	if !strings.HasPrefix(lines[0], "variant,sinks,power_mw") {
		t.Fatalf("CSV header %q", lines[0])
	}
	// Unknown metric renders placeholders rather than panicking.
	if out := table.Format(Metric("nope")); !strings.Contains(out, "?") {
		t.Fatalf("unknown metric output:\n%s", out)
	}
}

func TestJSONOutput(t *testing.T) {
	table, err := tinyExperiment().Run(4)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := table.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Experiment string `json:"experiment"`
		XLabel     string `json:"x_label"`
		Cells      []struct {
			Variant string  `json:"variant"`
			X       float64 `json:"x"`
			Metrics map[string]struct {
				Mean float64 `json:"mean"`
				Runs int     `json:"runs"`
			} `json:"metrics"`
		} `json:"cells"`
	}
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, raw)
	}
	if decoded.Experiment != "tiny" || decoded.XLabel != "sinks" {
		t.Fatalf("metadata %+v", decoded)
	}
	if len(decoded.Cells) != 4 { // 2 variants x 2 xs
		t.Fatalf("cells = %d", len(decoded.Cells))
	}
	for _, c := range decoded.Cells {
		m, ok := c.Metrics["ratio"]
		if !ok {
			t.Fatalf("cell missing ratio metric: %+v", c)
		}
		if m.Runs != 2 || m.Mean < 0 || m.Mean > 1 {
			t.Fatalf("ratio metric %+v", m)
		}
	}
}

func TestMetricsList(t *testing.T) {
	if len(Metrics()) < 6 {
		t.Fatalf("only %d metrics", len(Metrics()))
	}
	table, err := tinyExperiment().Run(4)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range Metrics() {
		if table.Cell(0, 0).value(m) == nil {
			t.Errorf("metric %q has no extractor", m)
		}
	}
}

func TestSortedVariantIndex(t *testing.T) {
	table, err := tinyExperiment().Run(4)
	if err != nil {
		t.Fatal(err)
	}
	idx := table.SortedVariantIndex(MetricRatio)
	if len(idx) != 2 {
		t.Fatalf("idx = %v", idx)
	}
	last := len(table.Xs) - 1
	a := table.Cell(idx[0], last).DeliveryRatio.Mean()
	b := table.Cell(idx[1], last).DeliveryRatio.Mean()
	if a < b {
		t.Fatalf("not sorted: %v < %v", a, b)
	}
}

func TestPredefinedExperimentsValidate(t *testing.T) {
	o := QuickOptions()
	for _, build := range []func(Options) (Experiment, error){Fig2, Density, Speed, Ablation, Extensions, Lifetime, Faults, Churn, Loss} {
		e, err := build(o)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Validate(); err != nil {
			t.Errorf("%s: %v", e.Name, err)
		}
		// Every variant must build a valid config at every x.
		for _, v := range e.Variants {
			for _, x := range e.Xs {
				cfg, err := v.Build(x)
				if err != nil {
					t.Errorf("%s/%s(%v): %v", e.Name, v.Name, x, err)
					continue
				}
				if err := cfg.Validate(); err != nil {
					t.Errorf("%s/%s(%v): %v", e.Name, v.Name, x, err)
				}
			}
		}
	}
	bad := Options{}
	if _, err := Fig2(bad); err == nil {
		t.Error("invalid options accepted")
	}
}

// TestResilienceColumns runs a tiny churn sweep and checks that the fault
// process surfaces in the new resilience metrics.
func TestResilienceColumns(t *testing.T) {
	e := Experiment{
		Name:   "tiny-churn",
		XLabel: "churn_fraction",
		Xs:     []float64{1},
		Variants: []Variant{{
			Name: "OPT",
			Build: func(x float64) (scenario.Config, error) {
				cfg := scenario.DefaultConfig(core.SchemeOPT)
				cfg.NumSensors = 10
				cfg.DurationSeconds = 600
				cfg.ArrivalMeanSeconds = 40
				cfg.Faults = &faults.Plan{Churn: &faults.Churn{
					MTBFSeconds: 150,
					MTTRSeconds: 75,
					Fraction:    x,
				}}
				return cfg, nil
			},
		}},
		Runs:     1,
		BaseSeed: 5,
	}
	table, err := e.Run(2)
	if err != nil {
		t.Fatal(err)
	}
	p := table.Cell(0, 0)
	if p.Crashes.Mean() <= 0 {
		t.Fatalf("churn sweep recorded no crashes")
	}
	csv := table.CSV(MetricCrashes)
	if !strings.Contains(csv, "crashes") {
		t.Fatalf("CSV header missing crashes column:\n%s", csv)
	}
}

func TestOptionsPresets(t *testing.T) {
	p := PaperOptions()
	if p.DurationSeconds != 25_000 || p.Sensors != 100 {
		t.Fatalf("PaperOptions = %+v", p)
	}
	q := QuickOptions()
	if q.DurationSeconds >= p.DurationSeconds {
		t.Fatal("QuickOptions not quicker than PaperOptions")
	}
	if err := p.validate(); err != nil {
		t.Fatal(err)
	}
	if err := q.validate(); err != nil {
		t.Fatal(err)
	}
}

func TestParallel(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 16} {
		var mu sync.Mutex
		seen := make(map[int]int)
		err := Parallel(25, workers, func(i int) error {
			mu.Lock()
			seen[i]++
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(seen) != 25 {
			t.Fatalf("workers=%d: %d indices run, want 25", workers, len(seen))
		}
		for i, n := range seen {
			if n != 1 {
				t.Fatalf("workers=%d: index %d run %d times", workers, i, n)
			}
		}
	}
	// The smallest failing index wins regardless of completion order.
	for trial := 0; trial < 20; trial++ {
		err := Parallel(10, 4, func(i int) error {
			if i == 3 || i == 7 {
				return fmt.Errorf("job %d failed", i)
			}
			return nil
		})
		if err == nil || err.Error() != "job 3 failed" {
			t.Fatalf("trial %d: err = %v, want job 3 failed", trial, err)
		}
	}
	if err := Parallel(0, 4, func(int) error { return fmt.Errorf("boom") }); err != nil {
		t.Fatalf("n=0 ran jobs: %v", err)
	}
}

// TestRunTelemetryAggregation checks that arming Experiment.Telemetry
// yields a merged per-point report whose counters sum over the point's
// seeds and whose delivery histogram matches the averaged delivered count.
func TestRunTelemetryAggregation(t *testing.T) {
	e := tinyExperiment()
	e.Telemetry = true
	table, err := e.Run(4)
	if err != nil {
		t.Fatal(err)
	}
	for vi := range table.Variants {
		for xi := range table.Xs {
			p := table.Cell(vi, xi)
			if p.Telemetry == nil || p.Telemetry.Run == nil {
				t.Fatalf("cell (%d,%d) has no merged telemetry", vi, xi)
			}
			m := p.Telemetry.Run
			// DeliveredCount holds the per-run mean; the merged histogram
			// holds the sum over the point's runs.
			wantDelivered := p.DeliveredCount.Mean() * float64(p.DeliveredCount.N())
			if got := float64(m.DeliveryDelay.Count()); got != wantDelivered {
				t.Errorf("cell (%d,%d): merged delay histogram n=%v, want %v", vi, xi, got, wantDelivered)
			}
			wantGen := p.GeneratedCount.Mean() * float64(p.GeneratedCount.N())
			gen := m.EventCount(telemetry.EvGen) + m.EventCount(telemetry.EvGenDrop)
			if gen != wantGen {
				t.Errorf("cell (%d,%d): merged gen counters %v, want %v", vi, xi, gen, wantGen)
			}
		}
	}
	// Telemetry off leaves the field nil.
	plain, err := tinyExperiment().Run(4)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Cell(0, 0).Telemetry != nil {
		t.Error("telemetry report attached without Experiment.Telemetry")
	}
}

func TestParallelErrorsRecoversPanics(t *testing.T) {
	errs := ParallelErrors(5, 2, func(i int) error {
		if i == 2 {
			panic("boom")
		}
		return nil
	})
	for i, err := range errs {
		if i == 2 {
			if err == nil || !strings.Contains(err.Error(), "job 2 panicked: boom") {
				t.Fatalf("errs[2] = %v", err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("errs[%d] = %v", i, err)
		}
	}
	if err := Parallel(5, 2, func(i int) error {
		if i == 2 {
			panic("boom")
		}
		return nil
	}); err == nil {
		t.Fatal("Parallel swallowed the panic")
	}
}

func TestExperimentRunNamesPanickedPoint(t *testing.T) {
	e := tinyExperiment()
	e.Variants[1].Build = func(x float64) (scenario.Config, error) {
		if x == 2 {
			panic("poisoned build")
		}
		return tinyVariant("ZBR", core.SchemeZBR).Build(x)
	}
	_, err := e.Run(2)
	if err == nil {
		t.Fatal("panicking point did not fail the sweep")
	}
	for _, want := range []string{"ZBR", "sinks=2", "seed", "panic", "poisoned build"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error missing %q: %v", want, err)
		}
	}
}
