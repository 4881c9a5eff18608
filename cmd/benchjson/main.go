// Command benchjson converts `go test -bench -benchmem` output on stdin
// into a JSON document on stdout, so benchmark baselines can be stored
// and diffed (`make bench-json` writes BENCH_baseline.json with it).
//
// Usage:
//
//	go test -bench=. -benchmem -benchtime=1x ./... | benchjson
//	benchjson -diff BENCH_baseline.json -ns-base base.out < head.out
//	go test -bench=RunLarge ./... | benchjson \
//	    -speedup-slow BenchmarkRunLarge2000Linear \
//	    -speedup-fast BenchmarkRunLarge2000 -speedup-min 5
//
// -diff compares the fresh run on stdin (the head revision) with two
// references. ns/op is compared against -ns-base, a transcript of the base
// revision's runs on the same host (make bench-diff alternates base and
// head runs of the same benchmarks); ns/op recorded on another machine says
// more about the machine than about the change. allocs/op, B/op and
// events/run — deterministic, so host-independent — are compared against
// the baseline JSON. A ns/op increase beyond -ns-tol, an allocs/op or B/op
// increase beyond -alloc-tol (default 25% each), or an events/run increase
// beyond -events-tol (default 10%; the scenario scale benchmarks report
// this custom metric), is a regression and the exit status is nonzero.
// Under -diff and the -speedup assertions, repeated runs of a benchmark
// fold to their median ns/op; the plain JSON conversion keeps each
// benchmark's fastest run (see coalesce).
// With the -speedup flags, the named slow benchmark must be at least
// -speedup-min times the ns/op of the fast one.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
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
	allocTol := flag.Float64("alloc-tol", 0.25, "tolerated fractional allocs/op or B/op increase before a diff counts as a regression")
	eventsTol := flag.Float64("events-tol", 0.10, "tolerated fractional events/run increase before a diff counts as a regression")
	nsBasePath := flag.String("ns-base", "", "with -diff (required): go test -bench transcript of the base revision on this host to diff ns/op against")
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

	failed := false
	checked := false
	if *diffPath != "" {
		checked = true
		if *nsBasePath == "" {
			fmt.Fprintln(os.Stderr, "benchjson: -diff needs -ns-base, the base revision's same-host transcript")
			os.Exit(2)
		}
		fold(doc, median)
		base, err := loadBaseline(*diffPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		nsBase, err := loadTranscript(*nsBasePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		rows, regressed := diff(base, nsBase, doc, *nsTol, *allocTol, *eventsTol)
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

	coalesce(doc)
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
// time, so the fastest run is the least-contaminated single measurement
// for a stored baseline. The deterministic columns (allocs/op, events/run)
// are identical across runs, so keeping the fastest row loses nothing.
// Rows from an explicit -cpu sweep are distinct identities (see key) and
// are never folded into each other.
func coalesce(doc *Document) { fold(doc, fastest) }

// fold replaces each group of duplicate rows (same key, first occurrence's
// position) with pick's choice from the group. A folded document has one
// row per key, so folding it again changes nothing.
func fold(doc *Document, pick func([]Benchmark) Benchmark) {
	groups := make(map[string][]Benchmark, len(doc.Benchmarks))
	var order []string
	for _, b := range doc.Benchmarks {
		k := key(doc, b)
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], b)
	}
	out := doc.Benchmarks[:0]
	for _, k := range order {
		out = append(out, pick(groups[k]))
	}
	doc.Benchmarks = out
}

// fastest picks the run with the lowest ns/op.
func fastest(runs []Benchmark) Benchmark {
	best := runs[0]
	for _, b := range runs[1:] {
		if b.NsPerOp < best.NsPerOp {
			best = b
		}
	}
	return best
}

// median picks a run carrying the median ns/op (the mean of the two middle
// runs for an even count). The regression gate compares medians: over many
// runs spread across alternating processes, the median moves with a change
// to the code but not with the odd process that lands on a busy core or a
// lucky one, either of which sways a best-of-N comparison.
func median(runs []Benchmark) Benchmark {
	ns := make([]float64, len(runs))
	for i, b := range runs {
		ns[i] = b.NsPerOp
	}
	sort.Float64s(ns)
	m := runs[0]
	m.NsPerOp = ns[len(ns)/2]
	if len(ns)%2 == 0 {
		m.NsPerOp = (ns[len(ns)/2-1] + ns[len(ns)/2]) / 2
	}
	return m
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

// loadTranscript parses a go test -bench transcript file and folds each
// benchmark's runs to their median.
func loadTranscript(path string) (*Document, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	doc, err := parse(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	fold(doc, median)
	return doc, nil
}

// diff compares every fresh benchmark with its counterparts (keyed by
// package + name) and reports per-metric changes. ns/op is compared
// against nsBase, the base revision's same-host runs; allocs/op, B/op and
// events/run against base, the baseline JSON. An increase beyond its fractional
// tolerance (allocTol covers both memory columns) is a regression — the
// events/run gate is what catches an elision opportunity silently lost
// (events regrowing without ns/op moving much on a fast machine). A
// benchmark with no counterpart is skipped: baselines are allowed to trail
// newly added benchmarks until regenerated. Rows are matched by the
// procs-aware key, so a baseline recorded on an 8-core machine still
// matches a fresh 16-core run row-for-row, while explicit -cpu sweep rows
// only ever match their same-suffix counterpart.
func diff(base, nsBase, fresh *Document, nsTol, allocTol, eventsTol float64) (rows []string, regressed bool) {
	index := func(doc *Document) map[string]Benchmark {
		by := make(map[string]Benchmark, len(doc.Benchmarks))
		for _, b := range doc.Benchmarks {
			by[key(doc, b)] = b
		}
		return by
	}
	baseBy := index(base)
	nsBy := index(nsBase)
	for _, f := range fresh.Benchmarks {
		b, inBase := baseBy[key(fresh, f)]
		nb, inNs := nsBy[key(fresh, f)]
		if !inBase && !inNs {
			continue
		}
		verdict := "ok"
		nsNote := "ns/op n/a"
		if inNs {
			nsDelta := frac(f.NsPerOp, nb.NsPerOp)
			nsNote = fmt.Sprintf("ns/op %s -> %s (%+.1f%%)", fmtNs(nb.NsPerOp), fmtNs(f.NsPerOp), 100*nsDelta)
			if nb.NsPerOp > 0 && nsDelta > nsTol {
				verdict = "REGRESSION(ns/op)"
				regressed = true
			}
		}
		memNote := ""
		if inBase && b.HasMem && f.HasMem {
			allocDelta := frac(float64(f.AllocsPerOp), float64(b.AllocsPerOp))
			bytesDelta := frac(f.BytesPerOp, b.BytesPerOp)
			memNote = fmt.Sprintf("  allocs %d -> %d (%+.1f%%)  bytes %.0f -> %.0f (%+.1f%%)",
				b.AllocsPerOp, f.AllocsPerOp, 100*allocDelta, b.BytesPerOp, f.BytesPerOp, 100*bytesDelta)
			if b.AllocsPerOp > 0 && allocDelta > allocTol {
				verdict = "REGRESSION(allocs/op)"
				regressed = true
			}
			if b.BytesPerOp > 0 && bytesDelta > allocTol {
				verdict = "REGRESSION(B/op)"
				regressed = true
			}
		}
		eventsNote := ""
		if inBase && b.HasEvents && f.HasEvents {
			eventsDelta := frac(f.EventsPerRun, b.EventsPerRun)
			eventsNote = fmt.Sprintf("  events %.0f -> %.0f (%+.1f%%)",
				b.EventsPerRun, f.EventsPerRun, 100*eventsDelta)
			if b.EventsPerRun > 0 && eventsDelta > eventsTol {
				verdict = "REGRESSION(events/run)"
				regressed = true
			}
		}
		rows = append(rows, fmt.Sprintf("%-14s %s.%s: %s%s%s",
			verdict, f.Package, f.Name, nsNote, memNote, eventsNote))
	}
	return rows, regressed
}

// fmtNs prints a ns/op value with three significant digits below 100 ns,
// where whole nanoseconds would hide the change being judged.
func fmtNs(ns float64) string {
	if ns < 100 {
		return strconv.FormatFloat(ns, 'g', 3, 64)
	}
	return strconv.FormatFloat(ns, 'f', 0, 64)
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
// > 0 — fired at least eventsMin times the events/run. Repeated runs fold
// to their median first: a ratio of two best-of-N picks follows whichever
// process was luckiest, while medians over runs spread across alternating
// processes move only with the code (make bench-progress).
func speedup(doc *Document, slow, fast string, min, max, eventsMin float64) (rows []string, ok bool) {
	fold(doc, median)
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
