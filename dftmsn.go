// Package dftmsn is a Go implementation of the cross-layer data-delivery
// protocol for Delay/Fault-Tolerant Mobile Sensor Networks (DFT-MSN) from
// Wang, Wu, Lin and Tzeng, "Protocol Design and Optimization for
// Delay/Fault-Tolerant Mobile Sensor Networks" (ICDCS 2007), together with
// the complete discrete-event simulation stack the paper evaluates it on.
//
// The protocol merges routing (Layer 3) and medium access (Layer 2) for
// sparse, intermittently connected mobile sensor networks: data messages
// carry fault-tolerance degrees (FTDs) that quantify their replication, and
// nodes carry delivery probabilities (ξ) that quantify their prospects of
// reaching a sink. A two-phase exchange — contention-based asynchronous
// discovery (preamble/RTS/slotted CTS) followed by contention-free
// synchronous multicast (SCHEDULE/DATA/slotted ACKs) — moves each message
// toward nodes with better prospects until its aggregate delivery
// probability crosses a threshold. Three optimizations trade link
// utilization against energy: adaptive periodic sleeping, an adaptive
// listening period that minimises preamble collisions, and an adaptive
// contention window that minimises CTS collisions.
//
// # Quick start
//
//	cfg := dftmsn.DefaultConfig(dftmsn.OPT)
//	cfg.DurationSeconds = 5000
//	res, err := dftmsn.Run(cfg)
//	if err != nil { ... }
//	fmt.Printf("delivery ratio %.2f at %.2f mW\n",
//		res.Delivery.DeliveryRatio, res.AvgSensorPowerMW)
//
// Package layout: the facade re-exports the simulation entry points from
// internal/scenario, the protocol variants from internal/core, the sweep
// harness from internal/sweep, and the standalone §4 optimizers from
// internal/optimize. The full substrate (DES kernel, radio medium,
// mobility, queues, MAC engine, routing strategies) lives under internal/
// and is documented in DESIGN.md.
package dftmsn

import (
	"io"
	"time"

	"dftmsn/internal/chaos"
	"dftmsn/internal/core"
	"dftmsn/internal/faults"
	"dftmsn/internal/invariants"
	"dftmsn/internal/optimize"
	"dftmsn/internal/scenario"
	"dftmsn/internal/sim"
	"dftmsn/internal/snapshot"
	"dftmsn/internal/sweep"
	"dftmsn/internal/telemetry"
)

// Scheme selects a protocol variant.
type Scheme = core.Scheme

// Protocol variants: the four from the paper's evaluation plus the two §2
// basic schemes as extensions.
const (
	// OPT is the proposed protocol with all optimizations (§4).
	OPT = core.SchemeOPT
	// NOOPT is the basic protocol with fixed parameters.
	NOOPT = core.SchemeNOOPT
	// NOSLEEP is OPT without periodic sleeping.
	NOSLEEP = core.SchemeNOSLEEP
	// ZBR is ZebraNet's history-based forwarding on the same MAC.
	ZBR = core.SchemeZBR
	// Direct is the direct-transmission basic scheme (extension).
	Direct = core.SchemeDirect
	// Epidemic is the flooding basic scheme (extension).
	Epidemic = core.SchemeEpidemic
)

// Config describes one simulation run. See scenario.Config for every knob;
// DefaultConfig returns the paper's §5 defaults.
type Config = scenario.Config

// Result digests one run: delivery ratio, average nodal power, delivery
// delay, and supporting counters.
type Result = scenario.Result

// Sim is an assembled simulation; use New for step-by-step control or Run
// for one-shot execution.
type Sim = scenario.Sim

// Progress is a live snapshot of a running simulation: virtual clock,
// fraction of the horizon, event counts, wall-clock rate, and ETA. Arm it
// with Config.OnProgress (throttled by Config.ProgressEvery); the probe
// rides the kernel's cancellation stride and never perturbs the run.
type Progress = scenario.Progress

// Params exposes the node-level protocol parameters for ablations.
type Params = core.Params

// DefaultConfig returns the paper's default setup (100 sensors, 3 sinks,
// 150 m field, 25 zones, 10 m/10 kbps radios, 25 000 s) for the scheme.
func DefaultConfig(s Scheme) Config { return scenario.DefaultConfig(s) }

// DefaultParams returns the node parameters the paper's §5 uses for the
// scheme (adaptive vs fixed τ_max, W, and sleeping).
func DefaultParams(s Scheme) Params { return core.DefaultParams(s) }

// New assembles a simulation without running it.
func New(cfg Config) (*Sim, error) { return scenario.New(cfg) }

// ParseScheme resolves a scheme by its paper name, case-insensitively
// ("OPT", "noopt", "ZBR", ...).
func ParseScheme(name string) (Scheme, error) { return scenario.ParseScheme(name) }

// LoadConfig reads a JSON scenario configuration: absent keys keep the
// paper defaults, and present keys are taken literally. The schema is the
// json tags of scenario.Config.
func LoadConfig(r io.Reader) (Config, error) { return scenario.LoadConfig(r) }

// SaveConfig writes cfg's serialisable subset as indented JSON.
func SaveConfig(w io.Writer, cfg Config) error { return scenario.SaveConfig(w, cfg) }

// Fault-injection re-exports: a FaultPlan on Config.Faults schedules node
// churn, sink outages, Gilbert–Elliott burst loss, and one-shot kills on
// the run; the Result's Resilience digest reports what the faults cost.
type (
	// FaultPlan is a declarative fault schedule for one run.
	FaultPlan = faults.Plan
	// FaultChurn parameterises exponential crash/reboot cycles.
	FaultChurn = faults.Churn
	// SinkOutage is one sink-down window.
	SinkOutage = faults.Outage
	// BurstLoss parameterises Gilbert–Elliott two-state channel loss.
	BurstLoss = faults.Burst
	// FaultKill is a one-shot burst failure of a sensor fraction.
	FaultKill = faults.Kill
	// Resilience digests the fault process of one run.
	Resilience = scenario.Resilience
)

// Robustness re-exports: set Config.Invariants to "report" or "panic" to
// arm the runtime protocol-invariant engine on a run (the Result's
// Invariants digest reports its verdict), and use a ChaosCampaign to soak
// the protocol under hundreds of randomized fault plans with the engine
// armed and failures shrunk to minimal reproducers.
type (
	// InvariantsDigest summarises the invariant engine's work on one run.
	InvariantsDigest = invariants.Digest
	// InvariantViolation is one observed invariant breach.
	InvariantViolation = invariants.Violation
	// ChaosCampaign configures a randomized fault campaign.
	ChaosCampaign = chaos.Campaign
	// ChaosSummary digests a campaign: totals, failures, and the
	// minimized reproducer for the earliest failure.
	ChaosSummary = chaos.Summary
	// ChaosFailureReport is a failing run plus its minimized fault plan
	// and ready-to-run reproducer command.
	ChaosFailureReport = chaos.FailureReport
)

// Telemetry re-exports: set Config.Telemetry to collect a per-run metrics
// registry (histograms, counters, sampled gauges) into Result.Telemetry,
// and attach a TelemetryRecorder to Config.Recorder to stream every typed
// trace-v2 event (use NewTraceWriter for a JSONL file). A
// TelemetryLedger rebuilds per-message custody chains from a recorded
// stream; cmd/dftstats is the command-line face of the same machinery.
type (
	// TelemetryRecorder consumes typed trace-v2 events during a run.
	TelemetryRecorder = telemetry.Recorder
	// TelemetryEvent is one typed trace-v2 event.
	TelemetryEvent = telemetry.Event
	// TelemetryReport is a run's collected metrics and sampled series.
	TelemetryReport = telemetry.Report
	// TelemetryLedger indexes a trace by message, giving custody chains.
	TelemetryLedger = telemetry.Ledger
)

// NewTraceWriter returns a recorder streaming trace-v2 events into w as
// JSONL. Call Flush before closing w.
func NewTraceWriter(w io.Writer) *telemetry.JSONLWriter { return telemetry.NewJSONL(w) }

// ReadTrace decodes a JSONL trace-v2 file.
func ReadTrace(path string) ([]TelemetryEvent, error) { return telemetry.ReadFile(path) }

// BuildLedger reconstructs per-message custody chains from a trace-v2
// event stream.
func BuildLedger(events []TelemetryEvent) *TelemetryLedger { return telemetry.BuildLedger(events) }

// ErrCancelled is the sentinel wrapped by Run's error when the run's
// cooperative cancellation probe (Config.Cancel) fired. Cancellation is
// cooperative and event-granular: the partial Result returned alongside the
// error is the bit-exact digest of the completed event prefix.
var ErrCancelled = sim.ErrCancelled

// WallClockDeadline returns a cancellation probe for Config.Cancel that
// fires once d of wall-clock time has elapsed since its first consultation.
func WallClockDeadline(d time.Duration) func() bool { return scenario.WallClockDeadline(d) }

// Run assembles and executes one simulation.
func Run(cfg Config) (Result, error) {
	s, err := scenario.New(cfg)
	if err != nil {
		return Result{}, err
	}
	return s.Run()
}

// Snapshot re-exports: checkpoint a running simulation (Sim.CheckpointAt,
// Sim.Fork), persist it, and later restore a bit-identical continuation.
type Snapshot = snapshot.Snapshot

// SaveSnapshot writes a snapshot to path in the versioned binary format.
func SaveSnapshot(path string, snap *Snapshot) error { return snapshot.Save(path, snap) }

// LoadSnapshot reads a snapshot written by SaveSnapshot.
func LoadSnapshot(path string) (*Snapshot, error) { return snapshot.Load(path) }

// RestoreSim rebuilds a simulation from a snapshot; running it to the
// horizon is bit-identical to the run the snapshot was taken from. The
// customize hooks may reattach runtime-only config (recorders, probes)
// the snapshot cannot carry.
func RestoreSim(snap *Snapshot, customize ...func(*Config)) (*Sim, error) {
	return scenario.Restore(snap, customize...)
}

// Sweep harness re-exports: define an Experiment (or use a predefined one)
// and call its Run method to get an averaged Table.
type (
	// Experiment is a (variant × x × seed) sweep grid.
	Experiment = sweep.Experiment
	// Variant is one line of an experiment.
	Variant = sweep.Variant
	// Table is an experiment's aggregated result.
	Table = sweep.Table
	// Metric selects a Table column for formatting.
	Metric = sweep.Metric
	// SweepOptions scales the predefined experiments.
	SweepOptions = sweep.Options
)

// Predefined experiment metrics.
const (
	MetricRatio    = sweep.MetricRatio
	MetricPowerMW  = sweep.MetricPowerMW
	MetricDelay    = sweep.MetricDelay
	MetricDuty     = sweep.MetricDuty
	MetricOverhead = sweep.MetricOverhead
)

// PaperSweepOptions reproduces the paper's evaluation scale.
func PaperSweepOptions() SweepOptions { return sweep.PaperOptions() }

// QuickSweepOptions is a reduced scale preserving the qualitative shapes.
func QuickSweepOptions() SweepOptions { return sweep.QuickOptions() }

// Fig2Experiment returns the paper's Figure 2 sweep (delivery ratio, power
// and delay versus the number of sinks, four protocol variants).
func Fig2Experiment(o SweepOptions) (Experiment, error) { return sweep.Fig2(o) }

// DensityExperiment returns the §5 narrated node-density sweep.
func DensityExperiment(o SweepOptions) (Experiment, error) { return sweep.Density(o) }

// SpeedExperiment returns the §5 narrated nodal-speed sweep.
func SpeedExperiment(o SweepOptions) (Experiment, error) { return sweep.Speed(o) }

// AblationExperiment toggles each §4 optimization of OPT in turn.
func AblationExperiment(o SweepOptions) (Experiment, error) { return sweep.Ablation(o) }

// ExtensionsExperiment compares OPT to the §2 basic schemes.
func ExtensionsExperiment(o SweepOptions) (Experiment, error) { return sweep.Extensions(o) }

// LifetimeExperiment sweeps a finite battery budget, quantifying the §4.1
// claim that periodic sleeping prolongs node and network lifetime.
func LifetimeExperiment(o SweepOptions) (Experiment, error) { return sweep.Lifetime(o) }

// FaultsExperiment sweeps a burst node-failure fraction, quantifying how
// FTD-controlled replication tolerates custodian loss versus single-copy
// forwarding.
func FaultsExperiment(o SweepOptions) (Experiment, error) { return sweep.Faults(o) }

// LossExperiment sweeps an independent per-reception corruption
// probability, stressing the two-phase handshake.
func LossExperiment(o SweepOptions) (Experiment, error) { return sweep.Loss(o) }

// ChurnExperiment sweeps the fraction of sensors subjected to sustained
// crash/reboot cycles, comparing multi-copy FAD against single-copy
// forwarding under a steady failure process.
func ChurnExperiment(o SweepOptions) (Experiment, error) { return sweep.Churn(o) }

// Standalone §4 optimizers, usable outside the simulator.

// MinListeningBound solves Eq. 13: the smallest τ_max (in slots) keeping
// the preamble collision probability at or below target for contenders
// with the given delivery probabilities. ok is false if cap is too small.
func MinListeningBound(xis []float64, target float64, cap_ int) (tauMax int, ok bool) {
	return optimize.MinTauMax(xis, target, cap_)
}

// MinContentionWindow solves Eq. 14: the smallest window W (in slots)
// keeping the CTS collision probability among n repliers at or below
// target. ok is false if cap is too small.
func MinContentionWindow(n int, target float64, cap_ int) (window int, ok bool) {
	return optimize.MinWindow(n, target, cap_)
}

// CTSCollisionProbability evaluates Eq. 14 directly.
func CTSCollisionProbability(window, n int) (float64, error) {
	return optimize.CTSCollisionProb(window, n)
}

// PreambleCollisionProbability evaluates Eqs. 10-12 for nodes with the
// given listening bounds σ (in slots).
func PreambleCollisionProbability(sigmas []int) float64 {
	return optimize.PreambleCollisionProb(sigmas)
}
