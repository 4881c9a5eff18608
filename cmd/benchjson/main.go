// Command benchjson converts `go test -bench -benchmem` output on stdin
// into a JSON document on stdout, so benchmark baselines can be stored
// and diffed (`make bench-json` writes BENCH_baseline.json with it).
//
// Usage:
//
//	go test -bench=. -benchmem -benchtime=1x ./... | benchjson
//	go test -bench=. -benchmem ./... | benchjson -diff BENCH_baseline.json
//	go test -bench=RunLarge ./... | benchjson \
//	    -speedup-slow BenchmarkRunLarge2000Linear \
//	    -speedup-fast BenchmarkRunLarge2000 -speedup-min 5
//
// With -diff, every benchmark present in both the baseline and the fresh
// run is compared; a ns/op or allocs/op increase beyond the tolerance
// (default 25%), or an events/run increase beyond -events-tol (default
// 10%; the scenario scale benchmarks report this custom metric), is a
// regression and the exit status is nonzero. With the -speedup flags, the
// named slow benchmark must be at least -speedup-min times the ns/op of
// the fast one.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// Benchmark is one parsed result line.
type Benchmark struct {
	Package     string  `json:"package,omitempty"`
	Name        string  `json:"name"`
	Procs       int     `json:"procs,omitempty"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	HasMem      bool    `json:"has_mem"`
	// EventsPerRun is the custom events/run metric the scenario scale
	// benchmarks report (kernel events fired per simulated run) — the
	// number the event-elision engine exists to shrink.
	EventsPerRun float64 `json:"events_per_run,omitempty"`
	HasEvents    bool    `json:"has_events,omitempty"`
}

// MarshalJSON emits bytes_per_op/allocs_per_op whenever the benchmark was
// parsed with -benchmem (has_mem), zero or not — a genuinely zero-alloc
// benchmark must stay distinguishable from one parsed without memory
// columns, which plain omitempty tags cannot express.
func (b Benchmark) MarshalJSON() ([]byte, error) {
	type core struct {
		Package      string   `json:"package,omitempty"`
		Name         string   `json:"name"`
		Procs        int      `json:"procs,omitempty"`
		Iterations   int64    `json:"iterations"`
		NsPerOp      float64  `json:"ns_per_op"`
		BytesPerOp   *float64 `json:"bytes_per_op,omitempty"`
		AllocsPerOp  *int64   `json:"allocs_per_op,omitempty"`
		HasMem       bool     `json:"has_mem"`
		EventsPerRun *float64 `json:"events_per_run,omitempty"`
		HasEvents    bool     `json:"has_events,omitempty"`
	}
	c := core{
		Package:    b.Package,
		Name:       b.Name,
		Procs:      b.Procs,
		Iterations: b.Iterations,
		NsPerOp:    b.NsPerOp,
		HasMem:     b.HasMem,
		HasEvents:  b.HasEvents,
	}
	if b.HasMem {
		c.BytesPerOp = &b.BytesPerOp
		c.AllocsPerOp = &b.AllocsPerOp
	}
	if b.HasEvents {
		c.EventsPerRun = &b.EventsPerRun
	}
	return json.Marshal(c)
}

// Document is the full JSON output. CPU is the `cpu:` transcript header;
// GOMAXPROCS is derived from the `-N` name suffixes go test stamps on every
// row (the highest seen — the machine's effective GOMAXPROCS unless every
// row ran under an explicit smaller -cpu list). Recording both keeps a
// baseline self-describing: a diff can tell "this row is slower because the
// baseline machine had more cores" from a real regression, and native
// rows keep matching across machines because only a row whose suffix
// deviates from the document's GOMAXPROCS (an explicit -cpu sweep entry)
// carries the suffix in its identity.
type Document struct {
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	GOMAXPROCS int         `json:"gomaxprocs,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// key is a benchmark's identity for coalescing and diffing. The `-N` procs
// suffix joins the key only when it deviates from the document's
// GOMAXPROCS: rows from an explicit -cpu sweep (`-cpu 1,2,4`) must stay
// distinct, while ordinary rows — whose suffix is just the machine's core
// count — must keep matching a baseline recorded on a machine with a
// different core count.
func key(doc *Document, b Benchmark) string {
	k := b.Package + "\x00" + b.Name
	if b.Procs != 0 && b.Procs != doc.GOMAXPROCS {
		k += fmt.Sprintf("\x00-%d", b.Procs)
	}
	return k
}

// benchLine matches e.g.
//
//	BenchmarkNopRecord-8  1000000  1.05 ns/op  0 B/op  0 allocs/op
//	BenchmarkRunLarge2000-8  1  3.1e+08 ns/op  161072 events/run  9 B/op  1 allocs/op
//
// (custom metrics print between ns/op and the -benchmem columns).
var benchLine = regexp.MustCompile(
	`^(Benchmark\S+?)(?:-(\d+))?\s+(\d+)\s+([0-9.e+]+) ns/op(?:\s+([0-9.e+]+) events/run)?(?:\s+([0-9.e+]+) B/op)?(?:\s+(\d+) allocs/op)?`)

func main() {
	diffPath := flag.String("diff", "", "baseline JSON to diff the fresh run on stdin against (regression ⇒ exit 1)")
	nsTol := flag.Float64("ns-tol", 0.25, "tolerated fractional ns/op increase before a diff counts as a regression")
	allocTol := flag.Float64("alloc-tol", 0.25, "tolerated fractional allocs/op increase before a diff counts as a regression")
	eventsTol := flag.Float64("events-tol", 0.10, "tolerated fractional events/run increase before a diff counts as a regression")
	speedupSlow := flag.String("speedup-slow", "", "benchmark name expected to be slower (speedup assertion)")
	speedupFast := flag.String("speedup-fast", "", "benchmark name expected to be faster (speedup assertion)")
	speedupMin := flag.Float64("speedup-min", 0, "required ns/op ratio slow/fast (0 disables the assertion)")
	speedupMax := flag.Float64("speedup-max", 0, "maximum allowed ns/op ratio slow/fast — an overhead ceiling, e.g. 1.01 for a <1% probe cost gate (0 disables)")
	speedupEventsMin := flag.Float64("speedup-events-min", 0, "additionally required events/run ratio slow/fast (0 disables; both benchmarks must report the metric)")
	flag.Parse()

	doc, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	coalesce(doc)

	failed := false
	checked := false
	if *diffPath != "" {
		checked = true
		base, err := loadBaseline(*diffPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		rows, regressed := diff(base, doc, *nsTol, *allocTol, *eventsTol)
		for _, row := range rows {
			fmt.Println(row)
		}
		if regressed {
			fmt.Println("FAIL: benchmark regression beyond tolerance")
			failed = true
		}
	}
	if *speedupMin > 0 || *speedupMax > 0 || *speedupEventsMin > 0 {
		checked = true
		rows, ok := speedup(doc, *speedupSlow, *speedupFast, *speedupMin, *speedupMax, *speedupEventsMin)
		for _, row := range rows {
			fmt.Println(row)
		}
		if !ok {
			failed = true
		}
	}
	if checked {
		if failed {
			os.Exit(1)
		}
		return
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// parse folds a `go test -bench` transcript into a Document, tracking the
// per-package header lines so each benchmark is attributed. Concatenated
// multi-package transcripts are handled: later goos/goarch headers repeat
// the same values.
func parse(r io.Reader) (*Document, error) {
	doc := &Document{Benchmarks: []Benchmark{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	pkg := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg: "))
			continue
		case strings.HasPrefix(line, "goos: "):
			doc.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos: "))
			continue
		case strings.HasPrefix(line, "goarch: "):
			doc.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch: "))
			continue
		case strings.HasPrefix(line, "cpu: "):
			doc.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu: "))
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		b := Benchmark{Package: pkg, Name: m[1]}
		if m[2] != "" {
			b.Procs, _ = strconv.Atoi(m[2])
		}
		var err error
		if b.Iterations, err = strconv.ParseInt(m[3], 10, 64); err != nil {
			return nil, fmt.Errorf("bad iteration count in %q: %w", line, err)
		}
		if b.NsPerOp, err = strconv.ParseFloat(m[4], 64); err != nil {
			return nil, fmt.Errorf("bad ns/op in %q: %w", line, err)
		}
		if m[5] != "" {
			if b.EventsPerRun, err = strconv.ParseFloat(m[5], 64); err != nil {
				return nil, fmt.Errorf("bad events/run in %q: %w", line, err)
			}
			b.HasEvents = true
		}
		if m[6] != "" {
			if b.BytesPerOp, err = strconv.ParseFloat(m[6], 64); err != nil {
				return nil, fmt.Errorf("bad B/op in %q: %w", line, err)
			}
			b.HasMem = true
		}
		if m[7] != "" {
			if b.AllocsPerOp, err = strconv.ParseInt(m[7], 10, 64); err != nil {
				return nil, fmt.Errorf("bad allocs/op in %q: %w", line, err)
			}
		}
		doc.Benchmarks = append(doc.Benchmarks, b)
	}
	for _, b := range doc.Benchmarks {
		if b.Procs > doc.GOMAXPROCS {
			doc.GOMAXPROCS = b.Procs
		}
	}
	return doc, sc.Err()
}

// coalesce folds duplicate benchmark rows — `go test -count=N` emits one
// line per run — into a single best-of-N row per (package, name), keeping
// the run with the lowest ns/op. Noise on a shared runner only ever adds
// time, so the fastest run is the least-contaminated measurement; this is
// what makes tight overhead ceilings (-speedup-max 1.01) assertable with
// -count > 1. The deterministic columns (allocs/op, events/run) are
// identical across runs, so keeping the fastest row loses nothing. Rows
// from an explicit -cpu sweep are distinct identities (see key) and are
// never folded into each other.
func coalesce(doc *Document) {
	best := make(map[string]int, len(doc.Benchmarks))
	out := doc.Benchmarks[:0]
	for _, b := range doc.Benchmarks {
		k := key(doc, b)
		if i, ok := best[k]; ok {
			if b.NsPerOp < out[i].NsPerOp {
				out[i] = b
			}
			continue
		}
		best[k] = len(out)
		out = append(out, b)
	}
	doc.Benchmarks = out
}

// loadBaseline reads a Document previously written by this tool.
func loadBaseline(path string) (*Document, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc Document
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("baseline %s: %w", path, err)
	}
	// Baselines written before the gomaxprocs field existed: re-derive it
	// from the row suffixes so the procs-aware diff key still matches.
	if doc.GOMAXPROCS == 0 {
		for _, b := range doc.Benchmarks {
			if b.Procs > doc.GOMAXPROCS {
				doc.GOMAXPROCS = b.Procs
			}
		}
	}
	return &doc, nil
}

// diff compares every benchmark present in both documents (keyed by
// package + name) and reports per-metric changes. A ns/op, allocs/op, or
// events/run increase beyond the given fractional tolerance is a
// regression — the events/run gate is what catches an elision opportunity
// silently lost (events regrowing without ns/op moving much on a fast
// machine). Benchmarks present on only one side are skipped: baselines
// are allowed to trail newly added benchmarks until regenerated. Rows are
// matched by the procs-aware key, so a baseline recorded on an 8-core
// machine still matches a fresh 16-core run row-for-row, while explicit
// -cpu sweep rows only ever match their same-suffix counterpart.
func diff(base, fresh *Document, nsTol, allocTol, eventsTol float64) (rows []string, regressed bool) {
	baseBy := make(map[string]Benchmark, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		baseBy[key(base, b)] = b
	}
	for _, f := range fresh.Benchmarks {
		b, ok := baseBy[key(fresh, f)]
		if !ok {
			continue
		}
		verdict := "ok"
		nsDelta := frac(f.NsPerOp, b.NsPerOp)
		if b.NsPerOp > 0 && nsDelta > nsTol {
			verdict = "REGRESSION(ns/op)"
			regressed = true
		}
		allocNote := ""
		if b.HasMem && f.HasMem {
			allocDelta := frac(float64(f.AllocsPerOp), float64(b.AllocsPerOp))
			allocNote = fmt.Sprintf("  allocs %d -> %d (%+.1f%%)",
				b.AllocsPerOp, f.AllocsPerOp, 100*allocDelta)
			if b.AllocsPerOp > 0 && allocDelta > allocTol {
				verdict = "REGRESSION(allocs/op)"
				regressed = true
			}
		}
		eventsNote := ""
		if b.HasEvents && f.HasEvents {
			eventsDelta := frac(f.EventsPerRun, b.EventsPerRun)
			eventsNote = fmt.Sprintf("  events %.0f -> %.0f (%+.1f%%)",
				b.EventsPerRun, f.EventsPerRun, 100*eventsDelta)
			if b.EventsPerRun > 0 && eventsDelta > eventsTol {
				verdict = "REGRESSION(events/run)"
				regressed = true
			}
		}
		rows = append(rows, fmt.Sprintf("%-14s %s.%s: ns/op %.0f -> %.0f (%+.1f%%)%s%s",
			verdict, f.Package, f.Name, b.NsPerOp, f.NsPerOp, 100*nsDelta, allocNote, eventsNote))
	}
	return rows, regressed
}

// frac returns the fractional change from old to new (0 when old is 0).
func frac(new_, old float64) float64 {
	if old == 0 {
		return 0
	}
	return (new_ - old) / old
}

// speedup asserts that the benchmark named slow took at least min times
// the ns/op of the one named fast (names match ignoring package), at most
// max times when max > 0 (an overhead ceiling: "the probe arm may cost no
// more than 1% over the control arm" is max = 1.01), and — when eventsMin
// > 0 — fired at least eventsMin times the events/run.
func speedup(doc *Document, slow, fast string, min, max, eventsMin float64) (rows []string, ok bool) {
	find := func(name string) (Benchmark, bool) {
		for _, b := range doc.Benchmarks {
			if b.Name == name {
				return b, true
			}
		}
		return Benchmark{}, false
	}
	s, okS := find(slow)
	f, okF := find(fast)
	if !okS || !okF {
		return []string{fmt.Sprintf("FAIL: speedup: missing benchmark %q or %q in input", slow, fast)}, false
	}
	ok = true
	if min > 0 {
		switch ratio := s.NsPerOp / f.NsPerOp; {
		case f.NsPerOp <= 0:
			rows = append(rows, fmt.Sprintf("FAIL: speedup: %s has non-positive ns/op", fast))
			ok = false
		case ratio < min:
			rows = append(rows, fmt.Sprintf("FAIL: speedup %s/%s = %.2fx < required %.2fx", slow, fast, ratio, min))
			ok = false
		default:
			rows = append(rows, fmt.Sprintf("ok: speedup %s/%s = %.2fx >= %.2fx", slow, fast, ratio, min))
		}
	}
	if max > 0 {
		switch ratio := s.NsPerOp / f.NsPerOp; {
		case f.NsPerOp <= 0:
			rows = append(rows, fmt.Sprintf("FAIL: overhead: %s has non-positive ns/op", fast))
			ok = false
		case ratio > max:
			rows = append(rows, fmt.Sprintf("FAIL: overhead %s/%s = %.4fx > allowed %.4fx", slow, fast, ratio, max))
			ok = false
		default:
			rows = append(rows, fmt.Sprintf("ok: overhead %s/%s = %.4fx <= %.4fx", slow, fast, ratio, max))
		}
	}
	if eventsMin > 0 {
		switch {
		case !s.HasEvents || !f.HasEvents || f.EventsPerRun <= 0:
			rows = append(rows, fmt.Sprintf("FAIL: speedup: %s or %s lacks an events/run metric", slow, fast))
			ok = false
		default:
			ratio := s.EventsPerRun / f.EventsPerRun
			if ratio < eventsMin {
				rows = append(rows, fmt.Sprintf("FAIL: event reduction %s/%s = %.2fx < required %.2fx", slow, fast, ratio, eventsMin))
				ok = false
			} else {
				rows = append(rows, fmt.Sprintf("ok: event reduction %s/%s = %.2fx >= %.2fx", slow, fast, ratio, eventsMin))
			}
		}
	}
	return rows, ok
}
