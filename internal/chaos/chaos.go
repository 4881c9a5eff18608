// Package chaos is the randomized fault-campaign harness: it composes
// randomized fault-injection plans (internal/faults) across hundreds of
// seeded runs with the runtime invariant engine (internal/invariants)
// armed, asserts resilience lower bounds on every run, and shrinks any
// failing run to a minimal reproducer — the smallest fault-clause subset
// that still fails under the same seed — printed as a ready-to-run dftsim
// command.
//
// The campaign executes on the same bounded worker pool as the sweep
// harness (sweep.Parallel). Every run is derived deterministically from
// the campaign seed, so a campaign is reproducible end to end and any
// failure it finds can be replayed in isolation.
package chaos

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dftmsn/internal/faults"
	"dftmsn/internal/scenario"
	"dftmsn/internal/sim"
	"dftmsn/internal/simrand"
	"dftmsn/internal/sweep"
)

// Campaign configures one chaos run.
type Campaign struct {
	// Base is the scenario every run starts from. The campaign owns the
	// Seed and Faults fields (they are overwritten per run) and arms the
	// invariant engine in report mode unless the base already arms it.
	Base scenario.Config
	// Runs is the number of randomized fault-plan runs (default 200).
	Runs int
	// Seed is the campaign master seed; every run's scenario seed and
	// fault plan derive from it (default 1).
	Seed uint64
	// Workers bounds the worker pool (0 means GOMAXPROCS).
	Workers int
	// Budget optionally caps the simulations in flight across every pool
	// sharing it: when set it overrides Workers with Budget.Total(), and
	// every simulation the campaign executes — randomized runs, shrink
	// candidates, replays — holds one slot while it runs. Runtime-only:
	// verdicts, failures, and state files are bit-identical with or
	// without a budget.
	Budget *sweep.CoreBudget

	// MinDeliveryRatio is a resilience lower bound: a run delivering a
	// smaller ratio fails the campaign (0 disables the bound).
	MinDeliveryRatio float64
	// MaxRecoverySeconds is a resilience lower bound: a run whose delivery
	// rate takes longer than this to recover after the first fault — or
	// never recovers — fails the campaign (0 disables the bound).
	MaxRecoverySeconds float64

	// MaxShrinkRuns budgets the minimization reruns (default 64; plenty —
	// a randomized plan has at most four clauses).
	MaxShrinkRuns int
	// MaxFailures caps the recorded failure list (default 20); further
	// failures are only counted.
	MaxFailures int

	// StateFile persists each run's outcome as it completes (JSON lines,
	// mutex-guarded appends). A campaign killed partway leaves a valid file.
	StateFile string
	// Resume loads StateFile before running and skips every run already
	// recorded there; the resumed campaign reaches the same verdicts as an
	// uninterrupted one. Resuming a missing file starts a fresh campaign.
	Resume bool

	// Cancel, when set, is polled between runs and threaded into every
	// simulation as its cooperative cancellation probe. A fired probe stops
	// the campaign at the next event boundary: completed runs keep their
	// recorded outcomes (and state-file lines), interrupted ones are left
	// unrecorded so a resume re-executes them bit-identically, and Run
	// returns the partial Summary with an error wrapping sim.ErrCancelled.
	Cancel func() bool

	// ShrinkCandidateBudget bounds the wall-clock time any single shrink
	// candidate may spend simulating; an over-budget candidate is abandoned
	// and its clause conservatively kept (0 disables the bound).
	ShrinkCandidateBudget time.Duration
	// ShrinkTotalBudget bounds the wall-clock time of the whole
	// minimization; when it expires the shrink stops where it stands
	// (0 disables the bound). Either budget biting sets
	// FailureReport.Truncated.
	ShrinkTotalBudget time.Duration

	// testHookBeforeRun, when set, runs in the worker before each
	// simulation — tests use it to inject worker panics.
	testHookBeforeRun func(i int)
}

// Failure is one failing campaign run.
type Failure struct {
	// RunIndex is the campaign run number (0-based).
	RunIndex int
	// Seed is the scenario seed the run used.
	Seed uint64
	// Plan is the randomized fault plan the run executed.
	Plan faults.Plan
	// Kind classifies the failure: "invariant", "bound", or "error".
	Kind string
	// Reason is the first invariant violation, the breached bound, or the
	// run error.
	Reason string
	// DeliveryRatio and RecoverySeconds echo the run's resilience figures
	// (zero-valued for "error" failures).
	DeliveryRatio   float64
	RecoverySeconds float64
}

// FailureReport is a failure plus its minimized reproducer.
type FailureReport struct {
	Failure
	// Minimized is the smallest clause subset of Plan that still fails
	// under the same seed.
	Minimized faults.Plan
	// Clauses counts the minimized plan's fault clauses.
	Clauses int
	// ShrinkRuns is how many reruns the minimization spent.
	ShrinkRuns int
	// Truncated reports that a wall-clock shrink budget (or a campaign
	// cancellation) cut the minimization short: the reported plan still
	// fails, but it is no longer guaranteed to be 1-minimal.
	Truncated bool
	// Command is a ready-to-run dftsim invocation reproducing the
	// minimized failure.
	Command string
}

// Summary digests a whole campaign.
type Summary struct {
	// Runs is the number of randomized runs executed.
	Runs int
	// FailureCount is the total number of failing runs.
	FailureCount int
	// Failures lists the first failing runs (capped by MaxFailures).
	Failures []Failure
	// Minimized is the shrunk reproducer for the earliest failure (nil
	// when the campaign is clean).
	Minimized *FailureReport
	// Checks and Violations total the invariant engine work across runs.
	Checks     uint64
	Violations uint64
	// MeanDeliveryRatio and MinDeliveryRatio aggregate the per-run ratios.
	MeanDeliveryRatio float64
	MinDeliveryRatio  float64
	// Crashes, SinkOutages and CopiesLost total the injected damage.
	Crashes     uint64
	SinkOutages uint64
	CopiesLost  uint64
}

// Clean reports whether every run passed.
func (s Summary) Clean() bool { return s.FailureCount == 0 }

// withDefaults fills the documented defaults.
func (c Campaign) withDefaults() Campaign {
	if c.Runs <= 0 {
		c.Runs = 200
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.MaxShrinkRuns <= 0 {
		c.MaxShrinkRuns = 64
	}
	if c.MaxFailures <= 0 {
		c.MaxFailures = 20
	}
	// The whole point is running with the invariant engine armed; arm it
	// in report mode unless the base config already chose a mode.
	if mode := c.Base.Invariants; mode == "" || mode == "off" {
		c.Base.Invariants = "report"
	}
	return c
}

// outcome is one run's identity and result — what the campaign judges and
// what the state file persists.
type outcome struct {
	seed     uint64
	plan     faults.Plan
	res      scenario.Result
	err      error
	ran      bool
	panicked bool
}

// Run executes the campaign. The returned error covers campaign-level
// problems (an invalid base config, an unreadable state file); failing runs
// are reported in the Summary, not as errors.
func (c Campaign) Run() (Summary, error) {
	c = c.withDefaults()
	if c.Base.NumSinks < 1 {
		return Summary{}, errors.New("chaos: base config needs at least one sink")
	}
	outcomes := make([]outcome, c.Runs)
	resuming := false
	if c.Resume && c.StateFile != "" {
		found, err := c.loadState(outcomes)
		if err != nil {
			return Summary{}, err
		}
		resuming = found
	}
	state, err := c.openState(resuming)
	if err != nil {
		return Summary{}, err
	}
	defer state.Close()

	workers := c.Workers
	if c.Budget != nil {
		workers = c.Budget.Total()
	}
	var cancelled atomic.Bool
	errs := sweep.ParallelErrors(c.Runs, workers, func(i int) error {
		if outcomes[i].ran {
			return nil // resumed from the state file
		}
		if c.Cancel != nil && c.Cancel() {
			cancelled.Store(true)
			return nil
		}
		rng := simrand.New(c.Seed).Split(fmt.Sprintf("chaos/%d", i))
		plan := RandomPlan(rng.Split("plan"), c.Base.DurationSeconds, c.Base.NumSinks)
		seed := rng.Split("seed").Uint64()
		// Record the run's identity before simulating, so a panic below is
		// still attributable to its seed and plan.
		outcomes[i] = outcome{seed: seed, plan: plan}
		if c.testHookBeforeRun != nil {
			c.testHookBeforeRun(i)
		}
		res, err := c.runOnce(seed, plan, c.Cancel)
		if errors.Is(err, sim.ErrCancelled) {
			// Left unrecorded (ran stays false): a cancelled run never
			// reaches the state file, so a later resume re-executes it from
			// scratch and the resumed verdict is bit-identical to an
			// uninterrupted campaign's.
			cancelled.Store(true)
			return nil
		}
		outcomes[i] = outcome{seed: seed, plan: plan, res: res, err: err, ran: true}
		state.record(i, outcomes[i])
		return nil
	})
	for i := range outcomes {
		if outcomes[i].ran || errs[i] == nil {
			continue
		}
		// The worker panicked out of the simulation; the pool recovered it.
		// Judge the run as a failure under its already-drawn identity.
		outcomes[i].err = errs[i]
		outcomes[i].ran = true
		outcomes[i].panicked = true
		state.record(i, outcomes[i])
	}
	if err := state.flushErr(); err != nil {
		return Summary{}, err
	}

	sum := Summary{Runs: c.Runs, MinDeliveryRatio: math.Inf(1)}
	var firstFailure *Failure
	for i, o := range outcomes {
		if !o.ran {
			continue // user-interrupted pool; nothing recorded
		}
		if o.err == nil {
			sum.Checks += o.res.Invariants.Checks
			sum.Violations += o.res.Invariants.Violations
			sum.MeanDeliveryRatio += o.res.Delivery.DeliveryRatio
			if o.res.Delivery.DeliveryRatio < sum.MinDeliveryRatio {
				sum.MinDeliveryRatio = o.res.Delivery.DeliveryRatio
			}
			sum.Crashes += o.res.Resilience.Crashes
			sum.SinkOutages += o.res.Resilience.SinkOutages
			sum.CopiesLost += o.res.Resilience.CopiesLost
		}
		kind, reason, failed := c.judge(o.res, o.err, o.plan)
		if o.panicked {
			kind = "panic"
		}
		if !failed {
			continue
		}
		f := Failure{
			RunIndex: i, Seed: o.seed, Plan: o.plan, Kind: kind, Reason: reason,
		}
		if o.err == nil {
			f.DeliveryRatio = o.res.Delivery.DeliveryRatio
			f.RecoverySeconds = o.res.Resilience.RecoverySeconds
		}
		sum.FailureCount++
		if len(sum.Failures) < c.MaxFailures {
			sum.Failures = append(sum.Failures, f)
		}
		if firstFailure == nil {
			ff := f
			firstFailure = &ff
		}
	}
	if sum.Runs > 0 {
		sum.MeanDeliveryRatio /= float64(sum.Runs)
	}
	if math.IsInf(sum.MinDeliveryRatio, 1) {
		sum.MinDeliveryRatio = 0
	}
	if firstFailure != nil && !cancelled.Load() {
		report := c.shrink(*firstFailure)
		sum.Minimized = &report
	}
	if cancelled.Load() {
		executed := 0
		for i := range outcomes {
			if outcomes[i].ran {
				executed++
			}
		}
		return sum, fmt.Errorf("chaos: campaign cancelled after %d of %d runs: %w",
			executed, c.Runs, sim.ErrCancelled)
	}
	return sum, nil
}

// runOnce executes the base scenario with the given seed and fault plan. A
// panicking simulation is recovered into an error, so a deterministic panic
// found by the campaign reproduces as an "error" failure when shrunk or
// resumed rather than crashing the harness.
func (c Campaign) runOnce(seed uint64, plan faults.Plan, cancel func() bool) (res scenario.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	cfg := c.Base
	cfg.Seed = seed
	cfg.Cancel = cancel
	if plan.Enabled() {
		p := plan
		cfg.Faults = &p
	} else {
		cfg.Faults = nil
	}
	if c.Budget != nil {
		c.Budget.Acquire()
		defer c.Budget.Release()
	}
	s, err := scenario.New(cfg)
	if err != nil {
		return scenario.Result{}, err
	}
	return s.Run()
}

// stateHeader is the campaign fingerprint leading the state file; a resume
// against a file from a different campaign is rejected.
type stateHeader struct {
	Seed     uint64  `json:"campaign_seed"`
	Runs     int     `json:"runs"`
	Scheme   string  `json:"scheme"`
	Sensors  int     `json:"sensors"`
	Sinks    int     `json:"sinks"`
	Duration float64 `json:"duration_s"`
}

func (c Campaign) header() stateHeader {
	return stateHeader{
		Seed: c.Seed, Runs: c.Runs, Scheme: c.Base.Scheme.String(),
		Sensors: c.Base.NumSensors, Sinks: c.Base.NumSinks,
		Duration: c.Base.DurationSeconds,
	}
}

// runRecord is one persisted run outcome (a JSON line after the header).
type runRecord struct {
	Run    int              `json:"run"`
	Seed   uint64           `json:"seed"`
	Plan   faults.Plan      `json:"plan"`
	Err    string           `json:"err,omitempty"`
	Panic  bool             `json:"panic,omitempty"`
	Result *scenario.Result `json:"result,omitempty"`
}

// loadState reads the state file into outcomes. A missing file is not an
// error (found=false): the resume starts a fresh campaign.
func (c Campaign) loadState(outcomes []outcome) (found bool, err error) {
	f, err := os.Open(c.StateFile)
	if errors.Is(err, os.ErrNotExist) {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("chaos: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	if !sc.Scan() {
		return false, fmt.Errorf("chaos: state file %s is empty", c.StateFile)
	}
	var hdr stateHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		return false, fmt.Errorf("chaos: state file %s: %w", c.StateFile, err)
	}
	if hdr != c.header() {
		return false, fmt.Errorf("chaos: state file %s belongs to a different campaign: %+v", c.StateFile, hdr)
	}
	line := 1
	for sc.Scan() {
		line++
		var rec runRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return false, fmt.Errorf("chaos: state file %s line %d: %w", c.StateFile, line, err)
		}
		if rec.Run < 0 || rec.Run >= len(outcomes) {
			return false, fmt.Errorf("chaos: state file %s line %d: run %d out of range", c.StateFile, line, rec.Run)
		}
		o := outcome{seed: rec.Seed, plan: rec.Plan, ran: true, panicked: rec.Panic}
		if rec.Err != "" {
			o.err = errors.New(rec.Err)
		}
		if rec.Result != nil {
			o.res = *rec.Result
		}
		outcomes[rec.Run] = o
	}
	if err := sc.Err(); err != nil {
		return false, fmt.Errorf("chaos: state file %s: %w", c.StateFile, err)
	}
	return true, nil
}

// stateWriter appends run records to the campaign state file as runs
// complete; a no-op when the campaign has no StateFile.
type stateWriter struct {
	mu  sync.Mutex
	f   *os.File
	enc *json.Encoder
	err error
}

// openState prepares the state file for appending: a fresh campaign
// truncates and writes the header, a resume appends to the validated file.
func (c Campaign) openState(appendExisting bool) (*stateWriter, error) {
	if c.StateFile == "" {
		return &stateWriter{}, nil
	}
	if appendExisting {
		f, err := os.OpenFile(c.StateFile, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("chaos: %w", err)
		}
		return &stateWriter{f: f, enc: json.NewEncoder(f)}, nil
	}
	f, err := os.Create(c.StateFile)
	if err != nil {
		return nil, fmt.Errorf("chaos: %w", err)
	}
	w := &stateWriter{f: f, enc: json.NewEncoder(f)}
	if err := w.enc.Encode(c.header()); err != nil {
		f.Close()
		return nil, fmt.Errorf("chaos: %w", err)
	}
	return w, nil
}

// record persists one completed run. Encoding errors are latched and
// surfaced once by flushErr, so one bad write fails the campaign loudly
// instead of silently truncating the state.
func (w *stateWriter) record(i int, o outcome) {
	if w.f == nil {
		return
	}
	rec := runRecord{Run: i, Seed: o.seed, Plan: o.plan, Panic: o.panicked}
	if o.err != nil {
		rec.Err = o.err.Error()
	} else {
		res := o.res
		rec.Result = &res
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return
	}
	if err := w.enc.Encode(rec); err != nil {
		w.err = fmt.Errorf("chaos: state file: %w", err)
	}
}

func (w *stateWriter) flushErr() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

func (w *stateWriter) Close() error {
	if w.f == nil {
		return nil
	}
	return w.f.Close()
}

// judge classifies one run outcome. A run fails on (in precedence order) a
// run error, an invariant violation, or a breached resilience bound.
func (c Campaign) judge(res scenario.Result, err error, plan faults.Plan) (kind, reason string, failed bool) {
	if err != nil {
		return "error", err.Error(), true
	}
	if res.Invariants.Violations > 0 {
		return "invariant", fmt.Sprintf("%d violations, first: %s",
			res.Invariants.Violations, res.Delivery.FirstInvariantViolation), true
	}
	if c.MinDeliveryRatio > 0 && res.Delivery.DeliveryRatio < c.MinDeliveryRatio {
		return "bound", fmt.Sprintf("delivery ratio %.3f below bound %.3f",
			res.Delivery.DeliveryRatio, c.MinDeliveryRatio), true
	}
	if c.MaxRecoverySeconds > 0 {
		if _, ok := (&plan).FirstFaultSeconds(); ok {
			if r := res.Resilience.RecoverySeconds; r < 0 || r > c.MaxRecoverySeconds {
				detail := fmt.Sprintf("%.0f s", r)
				if r < 0 {
					detail = "never"
				}
				return "bound", fmt.Sprintf("delivery rate recovery %s exceeds bound %.0f s",
					detail, c.MaxRecoverySeconds), true
			}
		}
	}
	return "", "", false
}

// clause identifies one removable piece of a fault plan for shrinking.
type clause struct {
	kind string // "churn", "outage", "burst", "kill"
	idx  int    // index within the plan's slice (outages, kills)
}

// clausesOf decomposes a plan into its removable clauses.
func clausesOf(p faults.Plan) []clause {
	var cs []clause
	if p.Churn != nil {
		cs = append(cs, clause{kind: "churn"})
	}
	for i := range p.SinkOutages {
		cs = append(cs, clause{kind: "outage", idx: i})
	}
	if p.Burst != nil {
		cs = append(cs, clause{kind: "burst"})
	}
	for i := range p.Kills {
		cs = append(cs, clause{kind: "kill", idx: i})
	}
	return cs
}

// buildPlan reassembles the subset of p selected by keep.
func buildPlan(p faults.Plan, keep []clause) faults.Plan {
	var out faults.Plan
	for _, cl := range keep {
		switch cl.kind {
		case "churn":
			out.Churn = p.Churn
		case "outage":
			out.SinkOutages = append(out.SinkOutages, p.SinkOutages[cl.idx])
		case "burst":
			out.Burst = p.Burst
		case "kill":
			out.Kills = append(out.Kills, p.Kills[cl.idx])
		}
	}
	return out
}

// ClauseCount counts a plan's fault clauses.
func ClauseCount(p faults.Plan) int { return len(clausesOf(p)) }

// shrink minimizes a failure by greedy clause removal: drop one clause,
// rerun under the same seed, and keep the drop if the run still fails.
// Iterated to a fixed point within the rerun budget, this finds a
// 1-minimal failing subset (removing any single remaining clause makes
// the failure disappear). Each candidate is a whole from-scratch run, the
// same runOnce the campaign executes, so its verdict is the one replaying
// the reported command gives.
func (c Campaign) shrink(f Failure) FailureReport {
	report := FailureReport{Failure: f, Minimized: f.Plan}
	var totalDeadline time.Time
	if c.ShrinkTotalBudget > 0 {
		totalDeadline = time.Now().Add(c.ShrinkTotalBudget)
	}
	overTotal := func() bool {
		if !totalDeadline.IsZero() && time.Now().After(totalDeadline) {
			return true
		}
		return c.Cancel != nil && c.Cancel()
	}
	keep := clausesOf(f.Plan)
loop:
	for changed := true; changed && report.ShrinkRuns < c.MaxShrinkRuns; {
		changed = false
		for i := 0; i < len(keep) && report.ShrinkRuns < c.MaxShrinkRuns; i++ {
			if overTotal() {
				report.Truncated = true
				break loop
			}
			cand := append(append([]clause(nil), keep[:i]...), keep[i+1:]...)
			plan := buildPlan(f.Plan, cand)
			res, err := c.runOnce(f.Seed, plan, c.candidateProbe(totalDeadline))
			report.ShrinkRuns++
			if errors.Is(err, sim.ErrCancelled) {
				// The candidate ran over its wall-clock budget; keep its
				// clause (the conservative verdict) and note the result may
				// not be 1-minimal.
				report.Truncated = true
				continue
			}
			if _, _, failed := c.judge(res, err, plan); failed {
				keep = cand
				changed = true
				i--
			}
		}
	}
	report.Minimized = buildPlan(f.Plan, keep)
	report.Clauses = len(keep)
	report.Command = c.command(f.Seed, report.Minimized)
	return report
}

// candidateProbe builds the cooperative cancellation probe one shrink
// candidate simulates under: its own wall-clock budget, the minimization's
// total deadline, and the campaign-level Cancel, whichever fires first.
// Returns nil (no probe, no per-event overhead) when none of the three is
// armed.
func (c Campaign) candidateProbe(totalDeadline time.Time) func() bool {
	var candDeadline time.Time
	if c.ShrinkCandidateBudget > 0 {
		candDeadline = time.Now().Add(c.ShrinkCandidateBudget)
	}
	if candDeadline.IsZero() && totalDeadline.IsZero() && c.Cancel == nil {
		return nil
	}
	return func() bool {
		now := time.Now()
		if !candDeadline.IsZero() && now.After(candDeadline) {
			return true
		}
		if !totalDeadline.IsZero() && now.After(totalDeadline) {
			return true
		}
		return c.Cancel != nil && c.Cancel()
	}
}

// command renders a ready-to-run dftsim invocation reproducing a failing
// run: the flag-expressible base scenario plus the (minimized) fault plan.
func (c Campaign) command(seed uint64, p faults.Plan) string {
	var b strings.Builder
	fmt.Fprintf(&b, "go run ./cmd/dftsim -scheme %s -sensors %d -sinks %d -duration %g -arrival %g -speed %g -queue %d -seed %d -invariants %s",
		c.Base.Scheme, c.Base.NumSensors, c.Base.NumSinks, c.Base.DurationSeconds,
		c.Base.ArrivalMeanSeconds, c.Base.MaxSpeed, c.Base.QueueCapacity, seed, c.Base.Invariants)
	if c.Base.InjectSkipSenderFTD {
		b.WriteString(" -inject-skip-sender-ftd")
	}
	if ch := p.Churn; ch != nil {
		fmt.Fprintf(&b, " -churn-mtbf %g -churn-mttr %g", ch.MTBFSeconds, ch.MTTRSeconds)
		if ch.Fraction != 0 {
			fmt.Fprintf(&b, " -churn-fraction %g", ch.Fraction)
		}
		if ch.StartSeconds != 0 {
			fmt.Fprintf(&b, " -churn-start %g", ch.StartSeconds)
		}
	}
	for _, o := range p.SinkOutages {
		fmt.Fprintf(&b, " -outage-start %g -outage-duration %g -outage-sink %d",
			o.StartSeconds, o.DurationSeconds, o.Sink)
	}
	if bu := p.Burst; bu != nil {
		fmt.Fprintf(&b, " -burst-bad-loss %g -burst-good-loss %g -burst-good-s %g -burst-bad-s %g",
			bu.BadLossProb, bu.GoodLossProb, bu.MeanGoodSeconds, bu.MeanBadSeconds)
	}
	for _, k := range p.Kills {
		fmt.Fprintf(&b, " -kill-at %g -kill-fraction %g", k.AtSeconds, k.Fraction)
	}
	// Arm the telemetry layer so the replayed failure comes back with its
	// metrics report and typed event stream for post-mortem analysis.
	b.WriteString(" -telemetry")
	return b.String()
}

// RandomPlan draws one randomized fault plan for a run of the given
// duration against numSinks sinks. Every draw comes from rng, so the plan
// is a pure function of the campaign seed and run index. Clause
// probabilities and parameter ranges are chosen to exercise all four
// fault classes with frequent overlap while staying within Plan.Validate
// limits; roughly 1 − 0.4·0.5·0.5·0.6 ≈ 94% of runs inject something.
func RandomPlan(rng *simrand.Source, duration float64, numSinks int) faults.Plan {
	var p faults.Plan
	if r := rng.Split("churn"); r.Bool(0.6) {
		p.Churn = &faults.Churn{
			MTBFSeconds:    r.Uniform(duration/8, duration/2),
			MTTRSeconds:    r.Uniform(duration/40, duration/8),
			Fraction:       r.Uniform(0.1, 0.5),
			StartSeconds:   r.Uniform(0, duration/4),
			PreserveBuffer: r.Bool(0.3),
			PreserveXi:     r.Bool(0.3),
		}
	}
	if r := rng.Split("outage"); r.Bool(0.5) {
		sink := -1
		if !r.Bool(0.25) {
			sink = r.IntN(numSinks)
		}
		p.SinkOutages = []faults.Outage{{
			Sink:            sink,
			StartSeconds:    r.Uniform(duration/10, duration/2),
			DurationSeconds: r.Uniform(duration/20, duration/3),
		}}
	}
	if r := rng.Split("burst"); r.Bool(0.5) {
		p.Burst = &faults.Burst{
			GoodLossProb:    r.Uniform(0, 0.1),
			BadLossProb:     r.Uniform(0.3, 0.9),
			MeanGoodSeconds: r.Uniform(duration/50, duration/10),
			MeanBadSeconds:  r.Uniform(duration/100, duration/25),
		}
	}
	if r := rng.Split("kill"); r.Bool(0.4) {
		p.Kills = []faults.Kill{{
			AtSeconds: r.Uniform(duration/3, duration*0.9),
			Fraction:  r.Uniform(0.05, 0.4),
		}}
	}
	return p
}

// Format renders the campaign summary as an aligned text report, following
// the dftsim digest style.
func (s Summary) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos campaign    %d randomized fault-plan runs\n", s.Runs)
	fmt.Fprintf(&b, "invariants        %d checks, %d violations\n", s.Checks, s.Violations)
	fmt.Fprintf(&b, "delivery ratio    mean %.3f, worst %.3f\n", s.MeanDeliveryRatio, s.MinDeliveryRatio)
	fmt.Fprintf(&b, "injected damage   %d crashes, %d sink outages, %d copies destroyed\n",
		s.Crashes, s.SinkOutages, s.CopiesLost)
	if s.Clean() {
		fmt.Fprintf(&b, "verdict           PASS (all runs clean)\n")
		return b.String()
	}
	fmt.Fprintf(&b, "verdict           FAIL (%d of %d runs)\n", s.FailureCount, s.Runs)
	for _, f := range s.Failures {
		fmt.Fprintf(&b, "  run %-4d seed %-20d %-9s %s\n", f.RunIndex, f.Seed, f.Kind, f.Reason)
	}
	if m := s.Minimized; m != nil {
		fmt.Fprintf(&b, "minimized         run %d shrunk to %d fault clauses in %d reruns\n",
			m.RunIndex, m.Clauses, m.ShrinkRuns)
		if m.Truncated {
			fmt.Fprintf(&b, "shrink truncated  wall-clock budget expired; the plan may not be 1-minimal\n")
		}
		fmt.Fprintf(&b, "reproduce with    %s\n", m.Command)
	}
	return b.String()
}
