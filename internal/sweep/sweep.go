// Package sweep runs parameter sweeps over the DFT-MSN simulator: a grid
// of (variant × x-value) points, each averaged over several seeds, executed
// on a bounded worker pool. It powers the figure-regeneration harness
// (cmd/figures) and the repository benchmarks.
package sweep

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"

	"dftmsn/internal/metrics"
	"dftmsn/internal/scenario"
	"dftmsn/internal/sim"
	"dftmsn/internal/telemetry"
)

// Variant is one line in a figure: a named configuration builder.
type Variant struct {
	// Name labels the row (e.g. "OPT", "ZBR", "OPT-noAdaptiveTau").
	Name string
	// Build produces the scenario for one x value. The sweep overrides the
	// config's Seed per run.
	Build func(x float64) (scenario.Config, error)
}

// Experiment is a full sweep: every variant evaluated at every x, averaged
// over Runs seeds.
type Experiment struct {
	// Name identifies the experiment (e.g. "fig2a").
	Name string
	// XLabel names the swept parameter (e.g. "sinks").
	XLabel string
	// Xs are the swept values.
	Xs []float64
	// Variants are the lines.
	Variants []Variant
	// Runs is the number of seeds per point (>= 1).
	Runs int
	// BaseSeed offsets the per-run seeds for reproducibility.
	BaseSeed uint64
	// Telemetry arms the per-run metrics registry on every simulation and
	// aggregates the runs of each point into Point.Telemetry (histograms
	// and event counters sum across seeds; per-run time series are not
	// kept). All runs of a point share duration and queue capacity, so the
	// histogram bounds line up for merging.
	Telemetry bool
	// Cancel optionally installs a cooperative cancellation probe on the
	// whole sweep: it is consulted before each simulation starts and
	// threaded into every running kernel (scenario.Config.Cancel), so a
	// fired probe stops in-flight runs at their next event boundary and
	// skips runs not yet started. A cancelled sweep returns an error
	// wrapping sim.ErrCancelled. Runtime-only; it never perturbs the
	// events completed runs fired.
	Cancel func() bool
	// Budget optionally caps the simulations in flight across every pool
	// sharing it: Run(0) sizes its worker pool at Budget.Total(), and each
	// run holds one slot while its kernel is built and run. Runtime-only,
	// like Cancel: a budgeted sweep's per-point Results are bit-identical
	// to a sequential one's, so the budget only decides when runs start.
	Budget *CoreBudget
}

// Validate reports experiment definition errors.
func (e Experiment) Validate() error {
	if e.Name == "" {
		return errors.New("sweep: empty experiment name")
	}
	if len(e.Xs) == 0 || len(e.Variants) == 0 {
		return fmt.Errorf("sweep: experiment %q needs xs and variants", e.Name)
	}
	if e.Runs < 1 {
		return fmt.Errorf("sweep: experiment %q needs Runs >= 1", e.Name)
	}
	for _, v := range e.Variants {
		if v.Name == "" || v.Build == nil {
			return fmt.Errorf("sweep: experiment %q has an invalid variant", e.Name)
		}
	}
	return nil
}

// Stats aggregates one metric over the runs of a point.
type Stats struct {
	w metrics.Welford
}

// Add records one observation.
func (s *Stats) Add(x float64) { s.w.Add(x) }

// Mean returns the mean over runs.
func (s *Stats) Mean() float64 { return s.w.Mean() }

// StdDev returns the sample standard deviation over runs.
func (s *Stats) StdDev() float64 { return s.w.StdDev() }

// N returns the number of runs recorded.
func (s *Stats) N() int { return s.w.N() }

// Point aggregates every reported metric for one (variant, x) cell.
type Point struct {
	DeliveryRatio  Stats
	PowerMW        Stats
	DelaySeconds   Stats
	MedianDelay    Stats
	DutyCycle      Stats
	Duplicates     Stats
	Collisions     Stats
	Drops          Stats
	CtrlBitsPerMsg Stats
	AvgHops        Stats
	DeliveredCount Stats
	GeneratedCount Stats
	AliveFraction  Stats
	FirstDeath     Stats
	Orphaned       Stats
	CopiesLost     Stats
	Crashes        Stats
	RecoverySec    Stats
	Violations     Stats

	// Telemetry is the merged per-run telemetry of the point's seeds: nil
	// unless the experiment ran with Telemetry set.
	Telemetry *telemetry.Report
}

// add folds one run result into the point.
func (p *Point) add(r scenario.Result) {
	p.DeliveryRatio.Add(r.Delivery.DeliveryRatio)
	p.PowerMW.Add(r.AvgSensorPowerMW)
	p.DelaySeconds.Add(r.Delivery.AvgDelaySeconds)
	p.MedianDelay.Add(r.Delivery.MedianDelaySeconds)
	p.DutyCycle.Add(r.AvgDutyCycle)
	p.Duplicates.Add(float64(r.Delivery.Duplicates))
	p.Collisions.Add(float64(r.Channel.Collisions))
	p.Drops.Add(float64(r.DropsFull + r.DropsThreshold))
	p.CtrlBitsPerMsg.Add(r.ControlBitsPerDelivered)
	p.AvgHops.Add(r.Delivery.AvgHops)
	p.DeliveredCount.Add(float64(r.Delivery.Delivered))
	p.GeneratedCount.Add(float64(r.Delivery.Generated))
	p.AliveFraction.Add(r.AliveFraction)
	p.FirstDeath.Add(r.FirstDeathSeconds)
	p.Orphaned.Add(float64(r.Resilience.Orphaned))
	p.CopiesLost.Add(float64(r.Resilience.CopiesLost))
	p.Crashes.Add(float64(r.Resilience.Crashes))
	p.RecoverySec.Add(r.Resilience.RecoverySeconds)
	p.Violations.Add(float64(r.Invariants.Violations))
}

// Metric selects a column for formatting.
type Metric string

// Supported metrics.
const (
	MetricRatio      Metric = "ratio"
	MetricPowerMW    Metric = "power_mw"
	MetricDelay      Metric = "delay_s"
	MetricDuty       Metric = "duty"
	MetricCollisions Metric = "collisions"
	MetricDrops      Metric = "drops"
	MetricOverhead   Metric = "ctrl_bits_per_msg"
	MetricHops       Metric = "hops"
	MetricAlive      Metric = "alive_fraction"
	MetricFirstDeath Metric = "first_death_s"
	MetricOrphaned   Metric = "orphaned"
	MetricCopiesLost Metric = "copies_lost"
	MetricCrashes    Metric = "crashes"
	MetricRecovery   Metric = "recovery_s"
	MetricViolations Metric = "invariant_violations"
)

// Metrics lists the supported metric names.
func Metrics() []Metric {
	return []Metric{MetricRatio, MetricPowerMW, MetricDelay, MetricDuty,
		MetricCollisions, MetricDrops, MetricOverhead, MetricHops,
		MetricAlive, MetricFirstDeath, MetricOrphaned, MetricCopiesLost,
		MetricCrashes, MetricRecovery, MetricViolations}
}

// value extracts the named metric.
func (p *Point) value(m Metric) *Stats {
	switch m {
	case MetricRatio:
		return &p.DeliveryRatio
	case MetricPowerMW:
		return &p.PowerMW
	case MetricDelay:
		return &p.DelaySeconds
	case MetricDuty:
		return &p.DutyCycle
	case MetricCollisions:
		return &p.Collisions
	case MetricDrops:
		return &p.Drops
	case MetricOverhead:
		return &p.CtrlBitsPerMsg
	case MetricHops:
		return &p.AvgHops
	case MetricAlive:
		return &p.AliveFraction
	case MetricFirstDeath:
		return &p.FirstDeath
	case MetricOrphaned:
		return &p.Orphaned
	case MetricCopiesLost:
		return &p.CopiesLost
	case MetricCrashes:
		return &p.Crashes
	case MetricRecovery:
		return &p.RecoverySec
	case MetricViolations:
		return &p.Violations
	default:
		return nil
	}
}

// Table holds the aggregated sweep results: cells[variant][xIndex].
type Table struct {
	Experiment string
	XLabel     string
	Xs         []float64
	Variants   []string
	cells      [][]*Point
}

// Cell returns the aggregated point for (variant index, x index).
func (t *Table) Cell(variant, xi int) *Point { return t.cells[variant][xi] }

// Format renders one metric as an aligned text table, one row per variant.
func (t *Table) Format(m Metric) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s — %s by %s\n", t.Experiment, m, t.XLabel)
	fmt.Fprintf(&b, "%-14s", t.XLabel)
	for _, x := range t.Xs {
		fmt.Fprintf(&b, "%12s", trimFloat(x))
	}
	b.WriteByte('\n')
	for vi, name := range t.Variants {
		fmt.Fprintf(&b, "%-14s", name)
		for xi := range t.Xs {
			st := t.cells[vi][xi].value(m)
			if st == nil {
				fmt.Fprintf(&b, "%12s", "?")
				continue
			}
			fmt.Fprintf(&b, "%12.4g", st.Mean())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// CSV renders one metric as comma-separated values with a header row,
// including standard deviations.
func (t *Table) CSV(m Metric) string {
	var b strings.Builder
	fmt.Fprintf(&b, "variant,%s,%s,stddev,runs\n", t.XLabel, m)
	for vi, name := range t.Variants {
		for xi, x := range t.Xs {
			st := t.cells[vi][xi].value(m)
			if st == nil {
				continue
			}
			fmt.Fprintf(&b, "%s,%s,%g,%g,%d\n", name, trimFloat(x), st.Mean(), st.StdDev(), st.N())
		}
	}
	return b.String()
}

func trimFloat(x float64) string {
	if x == math.Trunc(x) && math.Abs(x) < 1e15 {
		return fmt.Sprintf("%d", int64(x))
	}
	return fmt.Sprintf("%g", x)
}

// Parallel runs fn(0), …, fn(n-1) on up to workers goroutines (0 means
// GOMAXPROCS) and waits for all of them. On failure it returns the error of
// the smallest failing index, regardless of completion order, so callers get
// a deterministic report. The chaos campaign runner shares this pool.
func Parallel(n, workers int, fn func(i int) error) error {
	for _, err := range ParallelErrors(n, workers, fn) {
		if err != nil {
			return err
		}
	}
	return nil
}

// ParallelErrors is Parallel with the full per-index error slice: errs[i] is
// fn(i)'s error, nil on success. A panicking fn is recovered into its slot's
// error rather than tearing down the pool, so one poisoned job cannot abort
// a whole campaign — the caller sees exactly which indices failed and why.
func ParallelErrors(n, workers int, fn func(i int) error) []error {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	errs := make([]error, n)
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				errs[i] = guarded(fn, i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return errs
}

// guarded calls fn(i), converting a panic into an error carrying the job
// index and the stack of the failing worker.
func guarded(fn func(i int) error, i int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("sweep: job %d panicked: %v\n%s", i, r, debug.Stack())
		}
	}()
	return fn(i)
}

// Guard runs fn, converting a panic into an error carrying the panic value
// and the worker's stack. It is the same recovery discipline the pool's
// workers apply per job, exported for consumers that execute jobs outside
// ParallelErrors — the scenario service's executor isolates poison jobs
// with it.
func Guard(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("sweep: job panicked: %v\n%s", r, debug.Stack())
		}
	}()
	return fn()
}

// Run executes the experiment on up to workers goroutines (0 means
// GOMAXPROCS). Each (variant, x, run) is an independent simulation with
// seed BaseSeed + runIndex; results are averaged per point, folded in job
// order so the aggregate floats are reproducible.
func (e Experiment) Run(workers int) (*Table, error) {
	if err := e.Validate(); err != nil {
		return nil, err
	}
	table := &Table{
		Experiment: e.Name,
		XLabel:     e.XLabel,
		Xs:         append([]float64(nil), e.Xs...),
		Variants:   make([]string, len(e.Variants)),
		cells:      make([][]*Point, len(e.Variants)),
	}
	for vi, v := range e.Variants {
		table.Variants[vi] = v.Name
		table.cells[vi] = make([]*Point, len(e.Xs))
		for xi := range e.Xs {
			table.cells[vi][xi] = &Point{}
		}
	}

	type job struct {
		vi, xi, run int
	}
	flat := make([]job, 0, len(e.Variants)*len(e.Xs)*e.Runs)
	for vi := range e.Variants {
		for xi := range e.Xs {
			for run := 0; run < e.Runs; run++ {
				flat = append(flat, job{vi: vi, xi: xi, run: run})
			}
		}
	}
	if e.Budget != nil && workers <= 0 {
		workers = e.Budget.Total()
	}
	results := make([]scenario.Result, len(flat))
	err := Parallel(len(flat), workers, func(i int) (err error) {
		j := flat[i]
		seed := e.BaseSeed + uint64(j.run)
		fail := func(err error) error {
			return fmt.Errorf("sweep: %s[%s=%v run %d seed %d]: %w",
				e.Variants[j.vi].Name, e.XLabel, e.Xs[j.xi], j.run, seed, err)
		}
		// A panicking simulation is recorded against its point, not as a
		// bare job index: the failure names the variant, x, run and seed
		// needed to replay it in isolation.
		defer func() {
			if r := recover(); r != nil {
				err = fail(fmt.Errorf("panic: %v\n%s", r, debug.Stack()))
			}
		}()
		// A fired probe skips runs not yet started; in-flight runs stop at
		// their next event boundary via the per-kernel probe below.
		if e.Cancel != nil && e.Cancel() {
			return fail(sim.ErrCancelled)
		}
		cfg, err := e.Variants[j.vi].Build(e.Xs[j.xi])
		if err != nil {
			return fail(err)
		}
		cfg.Seed = seed
		if e.Telemetry {
			cfg.Telemetry = true
		}
		cfg.Cancel = e.Cancel
		if e.Budget != nil {
			e.Budget.Acquire()
			defer e.Budget.Release()
		}
		s, err := scenario.New(cfg)
		if err != nil {
			return fail(err)
		}
		res, err := s.Run()
		if err != nil {
			return fail(err)
		}
		results[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, j := range flat {
		table.cells[j.vi][j.xi].add(results[i])
	}
	if e.Telemetry {
		// flat is laid out (vi, xi, run)-major, so a point's runs are the
		// contiguous block starting at (vi*len(Xs)+xi)*Runs; merging in
		// run order keeps the aggregated floats reproducible.
		for vi := range e.Variants {
			for xi := range e.Xs {
				base := (vi*len(e.Xs) + xi) * e.Runs
				reps := make([]*telemetry.Report, e.Runs)
				for run := 0; run < e.Runs; run++ {
					reps[run] = results[base+run].Telemetry
				}
				merged, err := telemetry.MergeReports(reps)
				if err != nil {
					return nil, fmt.Errorf("sweep: %s[%s=%v]: %w",
						e.Variants[vi].Name, e.XLabel, e.Xs[xi], err)
				}
				table.cells[vi][xi].Telemetry = merged
			}
		}
	}
	return table, nil
}

// SortedVariantIndex returns variant indices ordered by the metric at the
// last x (descending) — convenient for "who wins" checks in tests and
// benches.
func (t *Table) SortedVariantIndex(m Metric) []int {
	idx := make([]int, len(t.Variants))
	for i := range idx {
		idx[i] = i
	}
	last := len(t.Xs) - 1
	sort.SliceStable(idx, func(a, b int) bool {
		return t.cells[idx[a]][last].value(m).Mean() > t.cells[idx[b]][last].value(m).Mean()
	})
	return idx
}
