package main

import (
	"encoding/json"
	"strings"
	"testing"
)

const fixture = `goos: linux
goarch: amd64
pkg: dftmsn/internal/telemetry
cpu: Some CPU @ 2.50GHz
BenchmarkNopRecord-8     	1000000000	         0.2513 ns/op	       0 B/op	       0 allocs/op
BenchmarkJSONLRecord-8   	 2876166	       417.2 ns/op	       3 B/op	       0 allocs/op
PASS
ok  	dftmsn/internal/telemetry	2.573s
pkg: dftmsn/internal/scenario
BenchmarkRunNoTelemetry-8	       1	  51039875 ns/op	 8030232 B/op	   94854 allocs/op
BenchmarkRunTelemetry-8  	       1	  55810542 ns/op	 9422672 B/op	  104102 allocs/op
PASS
`

func TestParse(t *testing.T) {
	doc, err := parse(strings.NewReader(fixture))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Goos != "linux" || doc.Goarch != "amd64" {
		t.Errorf("platform = %q/%q", doc.Goos, doc.Goarch)
	}
	if len(doc.Benchmarks) != 4 {
		t.Fatalf("parsed %d benchmarks, want 4", len(doc.Benchmarks))
	}
	b := doc.Benchmarks[0]
	if b.Name != "BenchmarkNopRecord" || b.Package != "dftmsn/internal/telemetry" ||
		b.Procs != 8 || b.Iterations != 1000000000 || b.NsPerOp != 0.2513 ||
		!b.HasMem || b.AllocsPerOp != 0 {
		t.Errorf("first benchmark = %+v", b)
	}
	run := doc.Benchmarks[2]
	if run.Package != "dftmsn/internal/scenario" || run.Name != "BenchmarkRunNoTelemetry" ||
		run.BytesPerOp != 8030232 || run.AllocsPerOp != 94854 {
		t.Errorf("scenario benchmark = %+v", run)
	}
}

func TestParseWithoutMem(t *testing.T) {
	doc, err := parse(strings.NewReader("BenchmarkX \t 100 \t 52.5 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Benchmarks) != 1 {
		t.Fatalf("parsed %d benchmarks", len(doc.Benchmarks))
	}
	b := doc.Benchmarks[0]
	if b.Name != "BenchmarkX" || b.Procs != 0 || b.HasMem || b.NsPerOp != 52.5 {
		t.Errorf("benchmark = %+v", b)
	}
}

func TestParseIgnoresNoise(t *testing.T) {
	doc, err := parse(strings.NewReader("random text\n--- PASS: TestFoo\nBenchmark\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Benchmarks) != 0 {
		t.Fatalf("noise parsed as benchmarks: %+v", doc.Benchmarks)
	}
}

// A zero-alloc benchmark parsed with -benchmem must serialise its zero
// memory columns; one parsed without must omit them. Plain omitempty tags
// conflated the two.
func TestMarshalZeroMemColumns(t *testing.T) {
	doc, err := parse(strings.NewReader(fixture))
	if err != nil {
		t.Fatal(err)
	}
	nop := doc.Benchmarks[0]
	if !nop.HasMem || nop.AllocsPerOp != 0 {
		t.Fatalf("fixture NopRecord parsed wrong: %+v", nop)
	}
	out, err := json.Marshal(nop)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"bytes_per_op":0`, `"allocs_per_op":0`, `"has_mem":true`} {
		if !strings.Contains(string(out), key) {
			t.Errorf("marshalled NopRecord missing %s: %s", key, out)
		}
	}

	nomem := Benchmark{Name: "BenchmarkX", Iterations: 1, NsPerOp: 10}
	out, err = json.Marshal(nomem)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"bytes_per_op", "allocs_per_op"} {
		if strings.Contains(string(out), key) {
			t.Errorf("marshalled no-mem benchmark has %s: %s", key, out)
		}
	}

	// Round-trip keeps the two cases distinguishable.
	var back Benchmark
	if err := json.Unmarshal(out, &back); err != nil {
		t.Fatal(err)
	}
	if back.HasMem {
		t.Errorf("round-tripped no-mem benchmark gained HasMem")
	}
}

func TestDiffFlagsRegressions(t *testing.T) {
	base := &Document{Benchmarks: []Benchmark{
		{Package: "p", Name: "BenchmarkA", NsPerOp: 1000, AllocsPerOp: 100, HasMem: true},
		{Package: "p", Name: "BenchmarkB", NsPerOp: 1000, AllocsPerOp: 100, HasMem: true},
		{Package: "p", Name: "BenchmarkGone", NsPerOp: 1},
	}}
	fresh := &Document{Benchmarks: []Benchmark{
		{Package: "p", Name: "BenchmarkA", NsPerOp: 1200, AllocsPerOp: 110, HasMem: true}, // within 25%
		{Package: "p", Name: "BenchmarkB", NsPerOp: 900, AllocsPerOp: 200, HasMem: true},  // alloc regression
		{Package: "p", Name: "BenchmarkNew", NsPerOp: 5},                                  // not in baseline
	}}
	rows, regressed := diff(base, base, fresh, 0.25, 0.25, 0.10)
	if !regressed {
		t.Fatalf("diff missed the allocs/op regression; rows: %v", rows)
	}
	if len(rows) != 2 {
		t.Fatalf("diff compared %d rows, want 2 (intersection only): %v", len(rows), rows)
	}
	if strings.Contains(rows[0], "REGRESSION") {
		t.Errorf("within-tolerance row flagged: %s", rows[0])
	}
	if !strings.Contains(rows[1], "REGRESSION(allocs/op)") {
		t.Errorf("allocs regression row not flagged: %s", rows[1])
	}

	// A faster run with fewer allocations never regresses.
	improved := &Document{Benchmarks: []Benchmark{
		{Package: "p", Name: "BenchmarkA", NsPerOp: 500, AllocsPerOp: 10, HasMem: true},
	}}
	if _, reg := diff(base, base, improved, 0.25, 0.25, 0.10); reg {
		t.Errorf("improvement reported as regression")
	}
}

// TestDiffFlagsBytesRegressions checks the B/op leg: bytes growing past
// -alloc-tol fail even with allocs/op flat (fewer, larger allocations),
// shrinking bytes never fail, and a baseline row without memory columns
// compares no bytes.
func TestDiffFlagsBytesRegressions(t *testing.T) {
	base := &Document{Benchmarks: []Benchmark{
		{Package: "p", Name: "BenchmarkNew", NsPerOp: 1000, BytesPerOp: 4000, AllocsPerOp: 10, HasMem: true},
		{Package: "p", Name: "BenchmarkNoMem", NsPerOp: 1000},
	}}
	fresh := &Document{Benchmarks: []Benchmark{
		{Package: "p", Name: "BenchmarkNew", NsPerOp: 1000, BytesPerOp: 5200, AllocsPerOp: 10, HasMem: true},
		{Package: "p", Name: "BenchmarkNoMem", NsPerOp: 1000, BytesPerOp: 1e9, AllocsPerOp: 1, HasMem: true},
	}}
	rows, regressed := diff(base, base, fresh, 0.25, 0.25, 0.10)
	if !regressed || !strings.Contains(rows[0], "REGRESSION(B/op)") {
		t.Fatalf("diff missed the B/op regression; rows: %v", rows)
	}
	if strings.Contains(rows[1], "REGRESSION") || strings.Contains(rows[1], "bytes") {
		t.Errorf("mem-less baseline row compared bytes: %s", rows[1])
	}
	within := &Document{Benchmarks: []Benchmark{
		{Package: "p", Name: "BenchmarkNew", NsPerOp: 1000, BytesPerOp: 4900, AllocsPerOp: 10, HasMem: true},
	}}
	if rows, reg := diff(base, base, within, 0.25, 0.25, 0.10); reg {
		t.Errorf("within-tolerance bytes growth flagged: %v", rows)
	}
	shrunk := &Document{Benchmarks: []Benchmark{
		{Package: "p", Name: "BenchmarkNew", NsPerOp: 1000, BytesPerOp: 1000, AllocsPerOp: 12, HasMem: true},
	}}
	if rows, reg := diff(base, base, shrunk, 0.25, 0.25, 0.10); reg {
		t.Errorf("bytes reduction flagged: %v", rows)
	}
}

// TestParseCPUHeaders pins the machine-context fields: the cpu: header is
// recorded verbatim and GOMAXPROCS is derived from the row name suffixes.
func TestParseCPUHeaders(t *testing.T) {
	doc, err := parse(strings.NewReader(fixture))
	if err != nil {
		t.Fatal(err)
	}
	if doc.CPU != "Some CPU @ 2.50GHz" {
		t.Errorf("CPU = %q", doc.CPU)
	}
	if doc.GOMAXPROCS != 8 {
		t.Errorf("GOMAXPROCS = %d, want 8", doc.GOMAXPROCS)
	}
}

// TestDiffMatchesAcrossProcs pins the procs-aware identity: native rows
// (suffix == the document's GOMAXPROCS) match a baseline from a machine
// with a different core count, while explicit -cpu sweep rows only match
// their same-suffix counterpart — so benchmarks diff row-for-row
// across machines without conflating a sweep's arms.
func TestDiffMatchesAcrossProcs(t *testing.T) {
	base := &Document{GOMAXPROCS: 8, Benchmarks: []Benchmark{
		{Package: "p", Name: "BenchmarkRunLarge2000", Procs: 8, NsPerOp: 1000},
		{Package: "p", Name: "BenchmarkSweep", Procs: 1, NsPerOp: 4000},
		{Package: "p", Name: "BenchmarkSweep", Procs: 4, NsPerOp: 1000},
	}}
	fresh := &Document{GOMAXPROCS: 16, Benchmarks: []Benchmark{
		{Package: "p", Name: "BenchmarkRunLarge2000", Procs: 16, NsPerOp: 1100},
		{Package: "p", Name: "BenchmarkSweep", Procs: 1, NsPerOp: 9000}, // regression in the -cpu 1 arm
		{Package: "p", Name: "BenchmarkSweep", Procs: 4, NsPerOp: 1000},
	}}
	rows, regressed := diff(base, base, fresh, 0.25, 0.25, 0.10)
	if len(rows) != 3 {
		t.Fatalf("diff compared %d rows, want 3: %v", len(rows), rows)
	}
	if !regressed {
		t.Fatalf("diff missed the -cpu 1 arm regression: %v", rows)
	}
	if strings.Contains(rows[0], "REGRESSION") {
		t.Errorf("native row should match across core counts: %s", rows[0])
	}
}

// TestCoalesceKeepsCPUSweepArms pins that best-of-N folding never merges
// the distinct arms of an explicit -cpu sweep.
func TestCoalesceKeepsCPUSweepArms(t *testing.T) {
	doc := &Document{GOMAXPROCS: 8, Benchmarks: []Benchmark{
		{Package: "p", Name: "BenchmarkSweep", Procs: 1, NsPerOp: 4000},
		{Package: "p", Name: "BenchmarkSweep", Procs: 8, NsPerOp: 1000},
		{Package: "p", Name: "BenchmarkSweep", Procs: 8, NsPerOp: 900},
	}}
	coalesce(doc)
	if len(doc.Benchmarks) != 2 {
		t.Fatalf("coalesce folded a -cpu sweep: %+v", doc.Benchmarks)
	}
	if doc.Benchmarks[1].NsPerOp != 900 {
		t.Errorf("coalesce kept the slower native run: %+v", doc.Benchmarks)
	}
}

// TestDiffFlagsEventRegressions checks the events/run gate: an event-count
// growth beyond tolerance fails even when ns/op improved (a lost elision
// opportunity can hide behind a faster machine), and the gate stays quiet
// when either side lacks the metric.
func TestDiffFlagsEventRegressions(t *testing.T) {
	base := &Document{Benchmarks: []Benchmark{
		{Package: "p", Name: "BenchmarkRun", NsPerOp: 1000, EventsPerRun: 10000, HasEvents: true},
		{Package: "p", Name: "BenchmarkNoMetric", NsPerOp: 1000},
	}}
	fresh := &Document{Benchmarks: []Benchmark{
		{Package: "p", Name: "BenchmarkRun", NsPerOp: 800, EventsPerRun: 12000, HasEvents: true},
		{Package: "p", Name: "BenchmarkNoMetric", NsPerOp: 1000, EventsPerRun: 99, HasEvents: true},
	}}
	rows, regressed := diff(base, base, fresh, 0.25, 0.25, 0.10)
	if !regressed {
		t.Fatalf("diff missed the events/run regression; rows: %v", rows)
	}
	if !strings.Contains(rows[0], "REGRESSION(events/run)") {
		t.Errorf("events regression row not flagged: %s", rows[0])
	}
	if strings.Contains(rows[1], "REGRESSION") || strings.Contains(rows[1], "events") {
		t.Errorf("metric-less baseline row compared events: %s", rows[1])
	}
	// Within tolerance passes.
	okFresh := &Document{Benchmarks: []Benchmark{
		{Package: "p", Name: "BenchmarkRun", NsPerOp: 1000, EventsPerRun: 10500, HasEvents: true},
	}}
	if rows, reg := diff(base, base, okFresh, 0.25, 0.25, 0.10); reg {
		t.Errorf("within-tolerance events growth flagged: %v", rows)
	}
}

// TestParseEventsMetric checks the custom events/run column parses and
// round-trips through JSON, and that its absence stays distinguishable
// from zero.
func TestParseEventsMetric(t *testing.T) {
	line := "BenchmarkRunLarge2000-8 \t 1 \t 310000000 ns/op \t 161072 events/run \t 9000 B/op \t 120 allocs/op\n"
	doc, err := parse(strings.NewReader(line))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Benchmarks) != 1 {
		t.Fatalf("parsed %d benchmarks", len(doc.Benchmarks))
	}
	b := doc.Benchmarks[0]
	if !b.HasEvents || b.EventsPerRun != 161072 || !b.HasMem ||
		b.BytesPerOp != 9000 || b.AllocsPerOp != 120 || b.NsPerOp != 310000000 {
		t.Fatalf("benchmark = %+v", b)
	}
	out, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), `"events_per_run":161072`) {
		t.Errorf("marshalled benchmark missing events_per_run: %s", out)
	}
	var back Benchmark
	if err := json.Unmarshal(out, &back); err != nil {
		t.Fatal(err)
	}
	if back != b {
		t.Errorf("round trip changed the benchmark: %+v != %+v", back, b)
	}
	// Without the metric the field is omitted entirely.
	plain := Benchmark{Name: "BenchmarkX", Iterations: 1, NsPerOp: 10}
	out, err = json.Marshal(plain)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(out), "events_per_run") || strings.Contains(string(out), "has_events") {
		t.Errorf("metric-less benchmark serialised event fields: %s", out)
	}
}

func TestSpeedupAssertion(t *testing.T) {
	doc := &Document{Benchmarks: []Benchmark{
		{Package: "p", Name: "BenchmarkSlow", NsPerOp: 10000},
		{Package: "p", Name: "BenchmarkFast", NsPerOp: 1000},
	}}
	if rows, ok := speedup(doc, "BenchmarkSlow", "BenchmarkFast", 5, 0, 0); !ok {
		t.Errorf("10x speedup failed a 5x bar: %v", rows)
	}
	if rows, ok := speedup(doc, "BenchmarkSlow", "BenchmarkFast", 20, 0, 0); ok {
		t.Errorf("10x speedup passed a 20x bar: %v", rows)
	}
	if _, ok := speedup(doc, "BenchmarkMissing", "BenchmarkFast", 2, 0, 0); ok {
		t.Errorf("missing benchmark passed the assertion")
	}
}

// TestSpeedupOverheadCeiling covers the -speedup-max gate: the progress
// probe arm may cost at most the given ratio over the control arm.
func TestSpeedupOverheadCeiling(t *testing.T) {
	doc := &Document{Benchmarks: []Benchmark{
		{Package: "p", Name: "BenchmarkRunProgress", NsPerOp: 1005},
		{Package: "p", Name: "BenchmarkRunNoTelemetry", NsPerOp: 1000},
	}}
	if rows, ok := speedup(doc, "BenchmarkRunProgress", "BenchmarkRunNoTelemetry", 0, 1.01, 0); !ok {
		t.Errorf("0.5%% overhead failed a 1%% ceiling: %v", rows)
	}
	if rows, ok := speedup(doc, "BenchmarkRunProgress", "BenchmarkRunNoTelemetry", 0, 1.002, 0); ok {
		t.Errorf("0.5%% overhead passed a 0.2%% ceiling: %v", rows)
	}
	// A faster-than-control probe arm trivially satisfies the ceiling.
	doc.Benchmarks[0].NsPerOp = 990
	if rows, ok := speedup(doc, "BenchmarkRunProgress", "BenchmarkRunNoTelemetry", 0, 1.01, 0); !ok {
		t.Errorf("negative overhead failed the ceiling: %v", rows)
	}
}

// TestSpeedupFoldsByMedian pins the fold the -speedup assertions use:
// repeated runs of each arm reduce to their median, so one lucky run of
// the probe arm cannot pass the ceiling and one slow run cannot fail it.
func TestSpeedupFoldsByMedian(t *testing.T) {
	doc := &Document{Benchmarks: []Benchmark{
		{Package: "p", Name: "BenchmarkRunNoTelemetry", NsPerOp: 1000},
		{Package: "p", Name: "BenchmarkRunProgress", NsPerOp: 900},
		{Package: "p", Name: "BenchmarkRunProgress", NsPerOp: 1050},
		{Package: "p", Name: "BenchmarkRunNoTelemetry", NsPerOp: 1300},
		{Package: "p", Name: "BenchmarkRunNoTelemetry", NsPerOp: 1010},
		{Package: "p", Name: "BenchmarkRunProgress", NsPerOp: 1040},
	}}
	// Medians 1040 / 1010 = 1.0297: over a 1% ceiling, although the
	// fastest runs (900 / 1000) would read 0.90.
	rows, ok := speedup(doc, "BenchmarkRunProgress", "BenchmarkRunNoTelemetry", 0, 1.01, 0)
	if ok {
		t.Fatalf("median overhead of 3%% passed a 1%% ceiling: %v", rows)
	}
	if want := "1.0297x"; len(rows) != 1 || !strings.Contains(rows[0], want) {
		t.Fatalf("rows = %v, want one row with ratio %s", rows, want)
	}
}

func TestSpeedupEventsAssertion(t *testing.T) {
	doc := &Document{Benchmarks: []Benchmark{
		{Package: "p", Name: "BenchmarkEager", NsPerOp: 10000, EventsPerRun: 60000, HasEvents: true},
		{Package: "p", Name: "BenchmarkLazy", NsPerOp: 4000, EventsPerRun: 7000, HasEvents: true},
		{Package: "p", Name: "BenchmarkBare", NsPerOp: 4000},
	}}
	if rows, ok := speedup(doc, "BenchmarkEager", "BenchmarkLazy", 1.5, 0, 5); !ok {
		t.Errorf("8.6x event reduction failed a 5x bar: %v", rows)
	}
	if rows, ok := speedup(doc, "BenchmarkEager", "BenchmarkLazy", 1.5, 0, 10); ok {
		t.Errorf("8.6x event reduction passed a 10x bar: %v", rows)
	}
	// The events bar can run without a ns/op bar, and fails cleanly when a
	// side lacks the metric.
	if rows, ok := speedup(doc, "BenchmarkEager", "BenchmarkLazy", 0, 0, 5); !ok || len(rows) != 1 {
		t.Errorf("events-only assertion: ok=%v rows=%v", ok, rows)
	}
	if _, ok := speedup(doc, "BenchmarkEager", "BenchmarkBare", 0, 0, 2); ok {
		t.Errorf("metric-less benchmark passed the events assertion")
	}
}

func TestCoalesceBestOfN(t *testing.T) {
	doc := &Document{Benchmarks: []Benchmark{
		{Package: "p", Name: "BenchmarkA", NsPerOp: 120, AllocsPerOp: 7},
		{Package: "p", Name: "BenchmarkB", NsPerOp: 500},
		{Package: "p", Name: "BenchmarkA", NsPerOp: 100, AllocsPerOp: 7},
		{Package: "q", Name: "BenchmarkA", NsPerOp: 90},
		{Package: "p", Name: "BenchmarkA", NsPerOp: 110, AllocsPerOp: 7},
	}}
	coalesce(doc)
	if len(doc.Benchmarks) != 3 {
		t.Fatalf("coalesced to %d rows, want 3", len(doc.Benchmarks))
	}
	if b := doc.Benchmarks[0]; b.Name != "BenchmarkA" || b.Package != "p" || b.NsPerOp != 100 {
		t.Fatalf("best-of-N row = %+v, want p/BenchmarkA at 100 ns/op", b)
	}
	if b := doc.Benchmarks[1]; b.Name != "BenchmarkB" || b.NsPerOp != 500 {
		t.Fatalf("singleton row perturbed: %+v", b)
	}
	if b := doc.Benchmarks[2]; b.Package != "q" || b.NsPerOp != 90 {
		t.Fatalf("same name in another package must stay separate: %+v", b)
	}
}

// TestDiffSameHostNsBase checks the -ns-base leg: ns/op is judged against
// the same-host base transcript, never the baseline JSON's machine, while
// allocs/op stays judged against the baseline JSON; a benchmark the
// baseline JSON lacks is still ns/op-gated when the base run has it.
func TestDiffSameHostNsBase(t *testing.T) {
	base := &Document{Benchmarks: []Benchmark{
		{Package: "p", Name: "BenchmarkA", NsPerOp: 1000, AllocsPerOp: 10, HasMem: true},
		{Package: "p", Name: "BenchmarkB", NsPerOp: 1000, AllocsPerOp: 10, HasMem: true},
	}}
	nsBase := &Document{Benchmarks: []Benchmark{
		{Package: "p", Name: "BenchmarkA", NsPerOp: 2000},
		{Package: "p", Name: "BenchmarkNew", NsPerOp: 100},
	}}
	fresh := &Document{Benchmarks: []Benchmark{
		{Package: "p", Name: "BenchmarkA", NsPerOp: 2200, AllocsPerOp: 10, HasMem: true}, // +10% same host, +120% vs JSON
		{Package: "p", Name: "BenchmarkB", NsPerOp: 9000, AllocsPerOp: 10, HasMem: true}, // no same-host row: ns/op not gated
		{Package: "p", Name: "BenchmarkNew", NsPerOp: 110},
	}}
	rows, regressed := diff(base, nsBase, fresh, 0.25, 0.25, 0.10)
	if regressed || len(rows) != 3 {
		t.Fatalf("regressed=%v rows=%v; want 3 clean rows", regressed, rows)
	}
	if !strings.Contains(rows[0], "ns/op 2000 -> 2200") || !strings.Contains(rows[1], "ns/op n/a") {
		t.Errorf("rows do not say what ns/op was compared against: %v", rows)
	}

	fresh.Benchmarks[2].NsPerOp = 130 // +30% against the same-host base
	if rows, regressed = diff(base, nsBase, fresh, 0.25, 0.25, 0.10); !regressed ||
		!strings.Contains(rows[2], "REGRESSION(ns/op)") {
		t.Fatalf("same-host ns/op regression missed: %v", rows)
	}
	fresh.Benchmarks[2].NsPerOp = 110
	fresh.Benchmarks[1].AllocsPerOp = 20 // allocs still gated against the JSON
	if rows, regressed = diff(base, nsBase, fresh, 0.25, 0.25, 0.10); !regressed ||
		!strings.Contains(rows[1], "REGRESSION(allocs/op)") {
		t.Fatalf("allocs/op regression missed: %v", rows)
	}
}

// TestFoldMedian pins the -diff fold: each benchmark's runs collapse to
// their median ns/op (mean of the middle two for an even count) in the
// first occurrence's position, keeping the deterministic columns.
func TestFoldMedian(t *testing.T) {
	doc := &Document{Benchmarks: []Benchmark{
		{Package: "p", Name: "BenchmarkA", NsPerOp: 300, AllocsPerOp: 7, HasMem: true},
		{Package: "p", Name: "BenchmarkB", NsPerOp: 50},
		{Package: "p", Name: "BenchmarkA", NsPerOp: 100, AllocsPerOp: 7, HasMem: true},
		{Package: "p", Name: "BenchmarkB", NsPerOp: 70},
		{Package: "p", Name: "BenchmarkA", NsPerOp: 900, AllocsPerOp: 7, HasMem: true},
	}}
	fold(doc, median)
	if len(doc.Benchmarks) != 2 {
		t.Fatalf("folded to %d rows, want 2: %+v", len(doc.Benchmarks), doc.Benchmarks)
	}
	if a := doc.Benchmarks[0]; a.Name != "BenchmarkA" || a.NsPerOp != 300 || a.AllocsPerOp != 7 || !a.HasMem {
		t.Errorf("odd-count median row = %+v, want BenchmarkA at 300 ns/op with its memory columns", a)
	}
	if b := doc.Benchmarks[1]; b.Name != "BenchmarkB" || b.NsPerOp != 60 {
		t.Errorf("even-count median row = %+v, want BenchmarkB at 60 ns/op", b)
	}
}
