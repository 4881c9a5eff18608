// Package scenario assembles and runs complete DFT-MSN simulations with
// the paper's §5 setup: a 150 m × 150 m field in 25 zones, 100 wearable
// sensors under the zone-based mobility model, 3 sink nodes at strategic
// locations, Poisson data generation (mean 120 s), 10 m / 10 kbps radios
// with the Berkeley-mote power profile, and 25 000 s of virtual time.
package scenario

import (
	"errors"
	"fmt"
	"time"

	"dftmsn/internal/buffer"
	"dftmsn/internal/core"
	"dftmsn/internal/energy"
	"dftmsn/internal/faults"
	"dftmsn/internal/geo"
	"dftmsn/internal/invariants"
	"dftmsn/internal/mac"
	"dftmsn/internal/metrics"
	"dftmsn/internal/mobility"
	"dftmsn/internal/packet"
	"dftmsn/internal/radio"
	"dftmsn/internal/routing"
	"dftmsn/internal/sim"
	"dftmsn/internal/simrand"
	"dftmsn/internal/telemetry"
)

// Config describes one simulation run. DefaultConfig returns the paper's
// defaults; zero values are rejected by Validate, not defaulted silently.
//
// Config is its own JSON schema (see configio.go): the json tags name each
// setting's key, and the runtime-only attachments are tagged "-". The field
// order is the key order of the canonical encoding, which snapshots embed
// and cache keys hash: moving a serialised field changes those bytes.
type Config struct {
	// Scheme selects the protocol variant. The encoding writes it by name
	// (see configio.go).
	Scheme core.Scheme `json:"-"`
	// NumSensors is the wearable sensor count (paper: 100).
	NumSensors int `json:"sensors,omitempty"`
	// NumSinks is the sink count (paper default: 3).
	NumSinks int `json:"sinks,omitempty"`
	// FieldSize is the square field edge in metres (paper: 150).
	FieldSize float64 `json:"field_size_m,omitempty"`
	// ZonesPerSide partitions the field (paper: 5, i.e. 25 zones).
	ZonesPerSide int `json:"zones_per_side,omitempty"`
	// MaxSpeed is the sensor speed bound in m/s (paper: 5).
	MaxSpeed float64 `json:"max_speed_mps,omitempty"`
	// ExitProb is the zone-exit probability (paper: 0.2). Zero is valid
	// and not the default, so it is always encoded.
	ExitProb float64 `json:"exit_prob"`
	// RangeM is the radio range in metres (paper: 10).
	RangeM float64 `json:"range_m,omitempty"`
	// BitrateBps is the channel rate (paper: 10 kbps).
	BitrateBps float64 `json:"bitrate_bps,omitempty"`
	// ControlBits and DataBits are the frame sizes (paper: 50 / 1000).
	ControlBits int `json:"control_bits,omitempty"`
	DataBits    int `json:"data_bits,omitempty"`
	// QueueCapacity is the sensor buffer in messages (paper: 200).
	QueueCapacity int `json:"queue_capacity,omitempty"`
	// ArrivalMeanSeconds is the Poisson data inter-arrival mean (paper:
	// 120 s).
	ArrivalMeanSeconds float64 `json:"arrival_mean_s,omitempty"`
	// DurationSeconds is the simulated time (paper: 25 000 s).
	DurationSeconds float64 `json:"duration_s,omitempty"`
	// TrafficStopSeconds optionally stops message generation before the
	// horizon so in-flight messages can drain (0 = generate throughout,
	// the paper's setting).
	TrafficStopSeconds float64 `json:"traffic_stop_s,omitempty"`
	// MobilityTickSeconds is the position-update granularity.
	MobilityTickSeconds float64 `json:"mobility_tick_s,omitempty"`
	// BatteryJoules bounds each sensor's energy; a sensor dies (radio
	// permanently off) once its radio has consumed this much. Zero means
	// unlimited, the paper's setting. Sinks are mains/high-end powered
	// and never bounded.
	BatteryJoules float64 `json:"battery_j,omitempty"`
	// MobileSinks makes the sinks move under the same zone-based model as
	// the sensors, modelling the paper's alternative deployment where
	// high-end nodes are "carried by a subset of people" instead of
	// standing at strategic locations.
	MobileSinks bool `json:"mobile_sinks,omitempty"`
	// LossProb corrupts each reception independently with this
	// probability (fading/interference beyond collisions). Zero disables.
	LossProb float64 `json:"loss_prob,omitempty"`
	// Faults optionally injects faults: kill bursts (the fault the paper's
	// redundancy tolerates), node churn, sink outages, and Gilbert–Elliott
	// burst loss (see internal/faults).
	Faults *faults.Plan `json:"faults,omitempty"`
	// Seed makes the run reproducible. Zero is a valid seed and not the
	// default, so it is always encoded.
	Seed uint64 `json:"seed"`
	// LinearMedium runs the radio medium with its O(N) linear scans
	// instead of the uniform-grid spatial index. The two are verified
	// equivalent (bit-identical results); this is the control arm for the
	// differential test and the scale benchmarks. Leave it false.
	LinearMedium bool `json:"linear_medium,omitempty"`
	// EagerDecay runs the nodes with per-node decay tickers and per-cycle
	// MAC events instead of the event-elision engine (lazy closed-form ξ
	// decay, coalesced idle spans). The two are verified equivalent
	// (bit-identical results and telemetry); this is the control arm for
	// the differential tests and the scale benchmarks. Leave it false.
	EagerDecay bool `json:"eager_decay,omitempty"`
	// Recorder optionally receives the run's typed trace-v2 events (nil =
	// none). Attach a telemetry.JSONLWriter for files, a telemetry.Buffer
	// for in-memory analysis, or any custom Recorder; compose several with
	// telemetry.Combine. Runtime-only.
	Recorder telemetry.Recorder `json:"-"`
	// DeliveryThreshold overrides R of §3.2.2 for the FAD-family schemes
	// (0 keeps the default 0.9).
	DeliveryThreshold float64 `json:"delivery_threshold,omitempty"`
	// DropThreshold overrides the §3.1.2 FTD drop bound (0 keeps 0.95).
	DropThreshold float64 `json:"drop_threshold,omitempty"`
	// Invariants arms the runtime protocol-invariant engine
	// (internal/invariants): "" or "off" disables it, "report" records
	// breaches into the metrics, "panic" panics at the first breach with
	// the offending event's virtual-time context.
	Invariants string `json:"invariants,omitempty"`
	// InjectSkipSenderFTD deliberately breaks the Eq. 3 sender-FTD update
	// in the FAD-family schemes — a known-bad build for validating that the
	// invariant engine and the chaos harness actually catch protocol rot.
	// Never enable it in a real experiment.
	InjectSkipSenderFTD bool `json:"inject_skip_sender_ftd,omitempty"`
	// Telemetry arms the per-run metrics registry (counters, the §5
	// distributional histograms) and the periodic time-series sampler,
	// which snapshots every DurationSeconds/100; the report lands in
	// Result.Telemetry.
	Telemetry bool `json:"telemetry,omitempty"`
	// Params optionally overrides the scheme's node parameters; nil uses
	// core.DefaultParams(Scheme).
	Params *core.Params `json:"params,omitempty"`
	// Cancel optionally installs a cooperative cancellation probe on the
	// kernel (see sim.SetCancel): consulted between events, and when it
	// returns true the run stops with an error wrapping sim.ErrCancelled
	// while still returning the partial Result accumulated so far. Because
	// cancellation lands strictly at event boundaries, the cancelled run's
	// fired events — and therefore its RNG draws, metrics, and telemetry
	// stream — are bit-identical to the same-length prefix of an
	// uncancelled run. Runtime-only, like Recorder: excluded from the
	// config encoding, so arming a deadline never changes a cache key or a
	// snapshot. Typical probes are wall-clock deadlines (WallClockDeadline).
	Cancel func() bool `json:"-"`
	// OnProgress optionally receives live Progress snapshots while the run
	// executes, sampled on the kernel's CancelStride probe and throttled to
	// ProgressEvery of wall clock, plus one final snapshot (Done=true) when
	// Run finishes or is cancelled. The callback runs on the simulation
	// goroutine between events and must only observe — it sees a value, not
	// shared state, so storing it elsewhere is safe. Runtime-only, like
	// Cancel and Recorder: excluded from the config encoding, so arming
	// progress reporting never changes a cache key or a snapshot, and the
	// run's Results and telemetry bytes are bit-identical to an unobserved
	// run's.
	OnProgress func(Progress) `json:"-"`
	// ProgressEvery is the minimum wall-clock interval between OnProgress
	// calls (0 = 1s). Runtime-only.
	ProgressEvery time.Duration `json:"-"`
}

// Progress is a live snapshot of a running simulation, delivered through
// Config.OnProgress.
type Progress struct {
	// VirtualSeconds is the kernel clock; HorizonSeconds the configured
	// duration; Fraction their ratio clamped to [0, 1].
	VirtualSeconds float64 `json:"virtual_s"`
	HorizonSeconds float64 `json:"horizon_s"`
	Fraction       float64 `json:"fraction"`
	// Events counts fired kernel events; EventsElided the events replayed
	// in closed form by the elision layers.
	Events       uint64 `json:"events"`
	EventsElided uint64 `json:"events_elided"`
	// WallSeconds is wall-clock time since the first probe; EventsPerSec
	// the wall-clock firing rate; ETASeconds the projected wall clock
	// remaining (0 when unknown or finished).
	WallSeconds  float64 `json:"wall_s"`
	EventsPerSec float64 `json:"events_per_s"`
	ETASeconds   float64 `json:"eta_s"`
	// Done marks the final snapshot of a finished (or cancelled) run.
	Done bool `json:"done"`
}

// WallClockDeadline returns a cancellation probe that fires once the given
// wall-clock duration has elapsed (measured from this call). Attach it to
// Config.Cancel to bound a run's real execution time without perturbing its
// virtual-time determinism.
func WallClockDeadline(d time.Duration) func() bool {
	deadline := time.Now().Add(d)
	return func() bool { return time.Now().After(deadline) }
}

// DefaultConfig returns the paper's §5 default setup for the given scheme.
func DefaultConfig(scheme core.Scheme) Config {
	return Config{
		Scheme:              scheme,
		NumSensors:          100,
		NumSinks:            3,
		FieldSize:           150,
		ZonesPerSide:        5,
		MaxSpeed:            5,
		ExitProb:            0.2,
		RangeM:              10,
		BitrateBps:          10_000,
		ControlBits:         50,
		DataBits:            1000,
		QueueCapacity:       200,
		ArrivalMeanSeconds:  120,
		DurationSeconds:     25_000,
		MobilityTickSeconds: 1,
		Seed:                1,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if !c.Scheme.Valid() {
		return fmt.Errorf("scenario: invalid scheme %d", int(c.Scheme))
	}
	if c.NumSensors <= 0 || c.NumSinks <= 0 {
		return fmt.Errorf("scenario: need positive sensor (%d) and sink (%d) counts", c.NumSensors, c.NumSinks)
	}
	if c.FieldSize <= 0 || c.ZonesPerSide <= 0 {
		return fmt.Errorf("scenario: invalid field %v / zones %d", c.FieldSize, c.ZonesPerSide)
	}
	if c.NumSinks > c.ZonesPerSide*c.ZonesPerSide {
		return fmt.Errorf("scenario: %d sinks exceed %d zones", c.NumSinks, c.ZonesPerSide*c.ZonesPerSide)
	}
	if c.MaxSpeed <= 0 || c.ExitProb < 0 || c.ExitProb > 1 {
		return fmt.Errorf("scenario: invalid mobility speed %v / exit %v", c.MaxSpeed, c.ExitProb)
	}
	if c.RangeM <= 0 || c.BitrateBps <= 0 || c.ControlBits <= 0 || c.DataBits <= 0 {
		return fmt.Errorf("scenario: invalid channel parameters")
	}
	if c.QueueCapacity <= 0 {
		return fmt.Errorf("scenario: queue capacity %d must be positive", c.QueueCapacity)
	}
	if c.ArrivalMeanSeconds <= 0 || c.DurationSeconds <= 0 || c.MobilityTickSeconds <= 0 {
		return fmt.Errorf("scenario: invalid timing parameters")
	}
	if c.TrafficStopSeconds < 0 || c.TrafficStopSeconds > c.DurationSeconds {
		return fmt.Errorf("scenario: traffic stop %v outside [0, duration]", c.TrafficStopSeconds)
	}
	if c.BatteryJoules < 0 {
		return fmt.Errorf("scenario: battery %v must be >= 0", c.BatteryJoules)
	}
	if c.LossProb < 0 || c.LossProb > 1 {
		return fmt.Errorf("scenario: loss probability %v out of [0,1]", c.LossProb)
	}
	if err := c.Faults.Validate(c.DurationSeconds, c.NumSinks); err != nil {
		return err
	}
	if c.DeliveryThreshold != 0 && (c.DeliveryThreshold <= 0 || c.DeliveryThreshold >= 1) {
		return fmt.Errorf("scenario: delivery threshold %v out of (0,1)", c.DeliveryThreshold)
	}
	if c.DropThreshold != 0 && (c.DropThreshold <= 0 || c.DropThreshold > 1) {
		return fmt.Errorf("scenario: drop threshold %v out of (0,1]", c.DropThreshold)
	}
	if _, err := invariants.ParseMode(c.Invariants); err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	return nil
}

// Result is the digest of one run, covering the three §5 metrics
// (delivery ratio, average nodal power, delivery delay) plus supporting
// counters.
type Result struct {
	// Scheme names the variant that produced this result.
	Scheme string
	// Delivery summarises message outcomes.
	Delivery metrics.Summary
	// AvgSensorPowerMW is the paper's "average nodal power consumption
	// rate" in milliwatts, over sensors.
	AvgSensorPowerMW float64
	// AvgDutyCycle is the mean fraction of time sensors spent awake.
	AvgDutyCycle float64
	// Channel aggregates medium-level counters.
	Channel radio.Stats
	// DropsFull and DropsThreshold aggregate queue drops across sensors.
	DropsFull      uint64
	DropsThreshold uint64
	// Sleeps counts sensor sleep periods.
	Sleeps uint64
	// ControlBitsPerDelivered is the signalling overhead per delivered
	// message (0 when nothing was delivered).
	ControlBitsPerDelivered float64
	// SimSeconds is the simulated duration.
	SimSeconds float64
	// Events is the number of kernel events executed. EventsScheduled is
	// how many were filed into the heap, and EventsElided is how many the
	// elision engine replayed in closed form instead of firing (idle-span
	// cycle boundaries, lazy decay epochs). An eager run of the same
	// configuration fires Events + EventsElided events, which the
	// differential tests assert exactly.
	Events          uint64
	EventsScheduled uint64
	EventsElided    uint64
	// AliveFraction is the share of sensors with battery remaining at the
	// end (1 when batteries are unlimited).
	AliveFraction float64
	// FirstDeathSeconds is when the first sensor died; 0 when none did.
	FirstDeathSeconds float64
	// Resilience digests fault-injection outcomes (zero-valued when the
	// run had no fault plan).
	Resilience Resilience
	// Invariants digests the runtime invariant engine (Armed false when it
	// was off). Violation counts also surface in Delivery
	// (metrics.Summary.InvariantViolations).
	Invariants invariants.Digest
	// Telemetry carries the run's metrics registry and sampled time series
	// when Config.Telemetry was set; nil otherwise. Excluded from JSON
	// digests — tools print it through cmd/dftstats and the sweep CSV.
	Telemetry *telemetry.Report `json:"-"`
}

// Resilience reports how the run weathered its injected faults.
type Resilience struct {
	// Crashes counts sensor crashes: churn cycles plus kill bursts.
	Crashes uint64
	// Recoveries counts churn reboots.
	Recoveries uint64
	// SinkOutages counts sink outage windows that began.
	SinkOutages uint64
	// CopiesLost sums message copies destroyed with crashed buffers.
	CopiesLost uint64
	// Orphaned counts messages that lost at least one copy to a crash and
	// never reached a sink.
	Orphaned int
	// RecoverySeconds is how long after the first scheduled fault the
	// windowed delivery rate returned to 0.8× its pre-fault baseline
	// (window = duration/20): −1 when it never recovered within the run,
	// 0 when nothing measurable was lost (see metrics.RecoveryTime).
	RecoverySeconds float64
}

// Sim is one assembled simulation.
type Sim struct {
	cfg       Config
	plan      faults.Plan
	sched     *sim.Scheduler
	medium    *radio.Medium
	grid      *geo.Grid
	walk      *mobility.ZoneWalk
	mobility  *sim.Ticker
	sensors   []*core.Node
	sinks     []*core.Node
	injector  *faults.Injector
	collector *metrics.Collector
	invEng    *invariants.Engine
	rec       telemetry.Recorder
	telem     *telemetry.RunMetrics
	sampler   *telemetry.Sampler
	series    *telemetry.Series
	nextMsgID packet.MessageID
	ran       bool

	// Traffic processes with retained handles so checkpoints can capture
	// and restores re-inject them: one RNG stream, pending arrival event,
	// and bound callback per sensor.
	trafficRngs []*simrand.Source
	arrivalEvs  []*sim.Event
	arrivalFns  []func()
	// startsPending counts start-jitter events not yet fired; quiescence —
	// and therefore checkpointing — requires all nodes started.
	startsPending int

	// Wall-clock throttle state for the progress probe (see armProgress).
	progressStart time.Time
	progressNext  time.Time
}

// New assembles a simulation from cfg. The network is built immediately;
// Run executes it.
func New(cfg Config) (*Sim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Sim{cfg: cfg, sched: sim.NewScheduler(), collector: metrics.NewCollector()}
	if cfg.Faults != nil {
		s.plan = *cfg.Faults
	}
	if cfg.Cancel != nil {
		s.sched.SetCancel(cfg.Cancel)
	}
	if cfg.OnProgress != nil {
		s.armProgress()
	}
	root := simrand.New(cfg.Seed)

	// Telemetry composition: the caller's trace-v2 recorder and (when
	// armed) the metrics registry observe the same typed event stream. With
	// neither configured this collapses to the allocation-free Nop.
	var metricsRec telemetry.Recorder
	if cfg.Telemetry {
		s.telem = telemetry.NewRunRegistry(cfg.DurationSeconds, cfg.QueueCapacity)
		metricsRec = s.telem
	}
	s.rec = telemetry.Combine(cfg.Recorder, metricsRec)

	// The mode was validated above; arm the invariant engine before the
	// nodes exist so their probes can register as they are built.
	invMode, _ := invariants.ParseMode(cfg.Invariants)
	if invMode != invariants.Off {
		s.invEng = invariants.New(invariants.Options{
			Mode:  invMode,
			Clock: s.sched.Now,
			OnViolation: func(v invariants.Violation) {
				s.collector.InvariantViolation(v.String())
			},
		})
	}

	var err error
	s.grid, err = geo.NewGrid(geo.NewRect(0, 0, cfg.FieldSize, cfg.FieldSize), cfg.ZonesPerSide, cfg.ZonesPerSide)
	if err != nil {
		return nil, err
	}
	s.medium, err = radio.NewMedium(s.sched, radio.Config{
		RangeM:     cfg.RangeM,
		BitrateBps: cfg.BitrateBps,
		Sizes:      packet.Sizes{ControlBits: cfg.ControlBits, DataBits: cfg.DataBits},
		LinearScan: cfg.LinearMedium,
	})
	if err != nil {
		return nil, err
	}
	// Loss, burst-loss and fault randomness come from auxiliary streams
	// derived directly from the seed, not from the root split chain:
	// enabling or disabling one of these features must not shift the
	// streams every other component draws from. Two configurations that
	// differ only in fault clauses therefore run bit-identically up to the
	// first fault action — the property checkpoint reuse across fault
	// plans (chaos shrinking, sweep warm-forks) relies on.
	if cfg.LossProb > 0 {
		if err := s.medium.SetLoss(cfg.LossProb, simrand.New(cfg.Seed).Split("aux/loss")); err != nil {
			return nil, err
		}
	}
	if b := s.plan.Burst; b != nil {
		if err := s.medium.SetBurstLoss(radio.BurstConfig{
			GoodLossProb:    b.GoodLossProb,
			BadLossProb:     b.BadLossProb,
			MeanGoodSeconds: b.MeanGoodSeconds,
			MeanBadSeconds:  b.MeanBadSeconds,
		}, simrand.New(cfg.Seed).Split("aux/burstloss")); err != nil {
			return nil, err
		}
	}

	mobCfg := mobility.ZoneWalkConfig{MaxSpeed: cfg.MaxSpeed, MinSpeed: 0.1, ExitProb: cfg.ExitProb}
	walkers := cfg.NumSensors
	if cfg.MobileSinks {
		// Walk indices NumSensors..NumSensors+NumSinks-1 carry the sinks.
		walkers += cfg.NumSinks
	}
	s.walk, err = mobility.NewZoneWalk(s.grid, walkers, mobCfg, root.Split("mobility"))
	if err != nil {
		return nil, err
	}

	macCfg := mac.DefaultConfig(float64(cfg.ControlBits) / cfg.BitrateBps)
	params := core.DefaultParams(cfg.Scheme)
	if cfg.Params != nil {
		params = *cfg.Params
	}
	params.BatteryJoules = cfg.BatteryJoules
	params.EagerDecay = cfg.EagerDecay
	profile := energy.BerkeleyMote()
	isSink := func(id packet.NodeID) bool { return int(id) < cfg.NumSinks }

	// Sinks occupy strategic zones (IDs 0..NumSinks-1).
	sinkZones := strategicZones(s.grid, cfg.NumSinks)
	sinkParams := params
	sinkParams.SleepEnabled = false
	sinkParams.BatteryJoules = 0 // sinks are high-end, externally powered
	for i := 0; i < cfg.NumSinks; i++ {
		var position func() geo.Point
		if cfg.MobileSinks {
			walkIdx := cfg.NumSensors + i
			position = func() geo.Point { return s.walk.Position(walkIdx) }
		} else {
			rect, err := s.grid.ZoneRect(sinkZones[i])
			if err != nil {
				return nil, err
			}
			pos := rect.Center()
			position = func() geo.Point { return pos }
		}
		sinkID := packet.NodeID(i)
		strat, err := routing.NewSink(sinkID, s.sched.Now, func(d *packet.Data, now float64) {
			s.deliver(sinkID, d, now)
		})
		if err != nil {
			return nil, err
		}
		node, err := core.NewNode(sinkID, s.sched, s.medium, macCfg, sinkParams,
			strat, position, profile,
			root.Split(fmt.Sprintf("sink/%d", i)), s.rec)
		if err != nil {
			return nil, err
		}
		node.Engine().SetRecorder(s.rec)
		s.sinks = append(s.sinks, node)
		if s.invEng != nil {
			s.invEng.Register(invariants.Probe{
				ID:     node.ID(),
				IsSink: true,
				Xi:     strat.Xi,
				Engine: node.Engine(),
			})
		}
	}

	// Sensors (IDs NumSinks..NumSinks+NumSensors-1).
	for i := 0; i < cfg.NumSensors; i++ {
		id := packet.NodeID(cfg.NumSinks + i)
		strat, err := core.NewStrategyWithOverrides(cfg.Scheme, id, cfg.QueueCapacity, isSink,
			core.StrategyOverrides{
				DeliveryThreshold:   cfg.DeliveryThreshold,
				DropThreshold:       cfg.DropThreshold,
				SkipSenderFTDUpdate: cfg.InjectSkipSenderFTD,
			})
		if err != nil {
			return nil, err
		}
		walkIdx := i
		node, err := core.NewNode(id, s.sched, s.medium, macCfg, params,
			strat, func() geo.Point { return s.walk.Position(walkIdx) }, profile,
			root.Split(fmt.Sprintf("sensor/%d", i)), s.rec)
		if err != nil {
			return nil, err
		}
		node.Engine().SetRecorder(s.rec)
		s.sensors = append(s.sensors, node)
		if fad, ok := strat.(*routing.FAD); ok {
			var obs routing.FADObserver
			if s.invEng != nil {
				obs = s.invEng.FADObserver(id)
			}
			if s.recording() {
				// Every §3.1.2 drop carries provenance: the copy's FTD at
				// drop time and which rule discarded it.
				nodeID := id
				fad.Queue().SetDropHook(func(e buffer.Entry, reason buffer.DropReason) {
					aux := telemetry.DropThreshold
					if reason == buffer.DropFull {
						aux = telemetry.DropFull
					}
					s.rec.Record(telemetry.Event{
						Time: s.sched.Now(), Node: nodeID, Type: telemetry.EvDrop,
						Msg: e.ID, FTD: e.FTD, Aux: aux,
					})
				})
				obs = routing.CombineFADObservers(obs, &fadRecorder{rec: s.rec, id: id, now: s.sched.Now})
			}
			fad.SetObserver(obs)
			if s.invEng != nil {
				probe := invariants.Probe{ID: id, Xi: strat.Xi, Engine: node.Engine()}
				probe.XiEWMA = true
				probe.Queue = fad.Queue()
				s.invEng.Register(probe)
			}
		} else if s.invEng != nil {
			s.invEng.Register(invariants.Probe{ID: id, Xi: strat.Xi, Engine: node.Engine()})
		}
	}

	// Every walker steps on one shared ticker. Positions only change
	// inside Step, so refreshing the medium's spatial index here keeps it
	// exact between ticks. With frames in flight a node may step into
	// carrier range, and a busy carrier at a coalesced span's listen
	// expiry is observable (a Deferred cycle), so the tick polls carriers;
	// eager nodes keep no span and ignore the poll. The "wheel" label is
	// the name kernel ledgers key the mobility row on.
	s.mobility = sim.NewTicker(s.sched, cfg.MobilityTickSeconds, "wheel", func(sim.Time) {
		s.walk.Step(cfg.MobilityTickSeconds)
		s.medium.RefreshPositions()
		if s.medium.ActiveTransmissions() > 0 {
			s.pollCarriers()
		}
	})
	s.mobility.Start()

	// Traffic: independent Poisson processes per sensor, with retained
	// event handles and bound callbacks so checkpoints can capture them.
	traffic := root.Split("traffic")
	s.trafficRngs = make([]*simrand.Source, len(s.sensors))
	s.arrivalEvs = make([]*sim.Event, len(s.sensors))
	s.arrivalFns = make([]func(), len(s.sensors))
	for i := range s.sensors {
		i := i
		s.trafficRngs[i] = traffic.Split(fmt.Sprintf("sensor/%d", i))
		s.arrivalFns[i] = func() { s.arrivalFire(i) }
		s.armArrival(i)
	}

	// Fault injection: the declarative plan (churn, sink outages, kill
	// bursts) runs on the scheduler with all randomness from one dedicated
	// stream, derived from the seed alone (see the loss streams above).
	if s.plan.NeedsInjector() {
		failRng := simrand.New(cfg.Seed).Split("aux/failures")
		sensorNodes := make([]faults.Node, len(s.sensors))
		for i, n := range s.sensors {
			sensorNodes[i] = n
		}
		sinkNodes := make([]faults.Node, len(s.sinks))
		for i, n := range s.sinks {
			sinkNodes[i] = n
		}
		hooks := faults.Hooks{
			NodeCrashed: func(at float64, sensor int, wiped bool, lost []packet.MessageID) {
				victim := packet.NodeID(cfg.NumSinks + sensor)
				for _, id := range lost {
					s.collector.CopyLostToCrash(id)
					// Crash losses do not pass the queue's drop rules, so the
					// provenance ledger learns about them here.
					s.rec.Record(telemetry.Event{
						Time: at, Node: victim, Type: telemetry.EvDrop,
						Msg: id, Aux: telemetry.DropCrash,
					})
				}
				if s.invEng != nil {
					s.invEng.NodeCrashed(victim, wiped, lost)
				}
			},
		}
		inj, err := faults.NewInjector(s.plan, cfg.DurationSeconds, s.sched, failRng, sensorNodes, sinkNodes, hooks)
		if err != nil {
			return nil, err
		}
		if err := inj.Arm(); err != nil {
			return nil, err
		}
		s.injector = inj
	}

	// The metrics sampler snapshots the registry on a fixed virtual-time
	// grid, refreshing the live gauges (total queue occupancy, mean ξ,
	// alive sensors) and the periodic histograms first.
	if s.telem != nil {
		s.sampler = telemetry.NewSampler(s.telem.Registry, cfg.DurationSeconds/100, s.sampleGauges)
	}

	// The invariant sweep and the telemetry sampler share the kernel's
	// post-event hook, inside each event's panic-context wrapper: a
	// Panic-mode breach is re-raised as a sim.EventPanic naming the event
	// that exposed it.
	switch {
	case s.invEng != nil && s.sampler != nil:
		s.sched.SetEventHook(func(now sim.Time, seq uint64, label string) {
			s.invEng.OnEvent(now, seq, label)
			s.sampler.Tick(float64(now))
		})
	case s.invEng != nil:
		s.sched.SetEventHook(s.invEng.OnEvent)
	case s.sampler != nil:
		s.sched.SetEventHook(func(now sim.Time, _ uint64, _ string) {
			s.sampler.Tick(float64(now))
		})
	}

	// Start nodes with a small jitter so cycles do not run in lockstep.
	// The pending-starts counter gates quiescence: no checkpoint can be
	// taken until every node has booted.
	startJitter := root.Split("start")
	for _, node := range append(append([]*core.Node{}, s.sinks...), s.sensors...) {
		n := node
		s.startsPending++
		if _, err := s.sched.At(startJitter.Uniform(0, 1), func() {
			s.startsPending--
			// Start errors are impossible for freshly built nodes.
			_ = n.Start()
		}); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// recording reports whether any trace-v2 consumer is attached.
func (s *Sim) recording() bool {
	_, nop := s.rec.(telemetry.Nop)
	return !nop
}

// fadRecorder forwards the FAD scheme's Eq. 3 sender-FTD updates into the
// trace-v2 stream.
type fadRecorder struct {
	rec telemetry.Recorder
	id  packet.NodeID
	now func() float64
}

var _ routing.FADObserver = (*fadRecorder)(nil)

// ScheduleBuilt implements routing.FADObserver; the multicast itself is
// already traced as EvTx by the node.
func (f *fadRecorder) ScheduleBuilt(packet.MessageID, float64, float64, []packet.ScheduleEntry, []float64) {
}

// TxOutcome implements routing.FADObserver.
func (f *fadRecorder) TxOutcome(msgID packet.MessageID, hadCopy bool, before float64, _ []float64, retained bool, after float64) {
	if !hadCopy {
		return
	}
	f.rec.Record(telemetry.Event{
		Time: f.now(), Node: f.id, Type: telemetry.EvFTDUpdate,
		Msg: msgID, Value: before, FTD: after, Kept: retained,
	})
}

// pollCarriers gives every coalesced idle span a chance to observe a busy
// carrier after a mobility step (see core.Node.PollCarrier). Nodes without
// an active span ignore it. The canonical order — sinks in id order, then
// sensors — is the order materializations consume the kernel.
func (s *Sim) pollCarriers() {
	for _, n := range s.sinks {
		n.PollCarrier()
	}
	for _, n := range s.sensors {
		n.PollCarrier()
	}
}

// sampleGauges refreshes the registry's live gauges and periodic
// histograms from node state; the sampler calls it before each snapshot.
func (s *Sim) sampleGauges(float64) {
	totalQueued, xiSum, alive := 0, 0.0, 0
	for _, n := range s.sensors {
		strat := n.Strategy()
		qlen := strat.QueueLen()
		totalQueued += qlen
		xi := strat.Xi()
		xiSum += xi
		s.telem.QueueOccupancy.Observe(float64(qlen))
		s.telem.Xi.Observe(xi)
		if n.Alive() {
			alive++
		}
	}
	s.telem.QueueLen.Set(float64(totalQueued))
	if len(s.sensors) > 0 {
		s.telem.MeanXi.Set(xiSum / float64(len(s.sensors)))
	}
	s.telem.AliveNodes.Set(float64(alive))
}

// deliver is the sink-arrival callback feeding the metrics collector and
// the trace-v2 stream.
func (s *Sim) deliver(sink packet.NodeID, d *packet.Data, now float64) {
	// The sink hop itself counts as one transfer.
	hops := d.Hops + 1
	first := !s.collector.IsDelivered(d.ID)
	_ = s.collector.Delivered(d.ID, now, hops)
	if first {
		// First custody only: duplicate copies reaching other sinks are not
		// new deliveries.
		s.rec.Record(telemetry.Event{
			Time: now, Node: sink, Type: telemetry.EvDeliver,
			Msg: d.ID, Value: now - d.CreatedAt, Count: int32(hops),
		})
	}
}

// armArrival schedules sensor i's next Poisson data generation, reusing
// the sensor's retained event handle.
func (s *Sim) armArrival(i int) {
	delay := s.trafficRngs[i].Exp(s.cfg.ArrivalMeanSeconds)
	s.arrivalEvs[i] = s.sched.Reschedule(s.arrivalEvs[i], delay, "", s.arrivalFns[i])
}

// arrivalFire handles one Poisson arrival at sensor i and re-arms the next.
func (s *Sim) arrivalFire(i int) {
	node := s.sensors[i]
	if !node.Alive() && s.plan.Churn == nil {
		return // permanently dead sensors sense nothing; their process ends
	}
	stop := s.cfg.DurationSeconds
	if s.cfg.TrafficStopSeconds > 0 {
		stop = s.cfg.TrafficStopSeconds
	}
	if s.sched.Now() <= stop {
		// Under churn a down sensor may reboot, so its Poisson process
		// keeps ticking; it just senses nothing while crashed.
		if node.Alive() {
			s.nextMsgID++
			id := s.nextMsgID
			// Record generation even if the queue rejects it: a dropped
			// message is still an undelivered message (§3.1.2).
			_ = s.collector.Generated(id, node.ID(), s.sched.Now())
			node.Generate(id, s.cfg.DataBits)
		}
		s.armArrival(i)
	}
}

// Sensors returns the sensor nodes (for tools and examples).
func (s *Sim) Sensors() []*core.Node { return s.sensors }

// Sinks returns the sink nodes.
func (s *Sim) Sinks() []*core.Node { return s.sinks }

// Scheduler exposes the kernel (for tools that step manually).
func (s *Sim) Scheduler() *sim.Scheduler { return s.sched }

// Collector exposes the metrics collector.
func (s *Sim) Collector() *metrics.Collector { return s.collector }

// armProgress installs the kernel progress probe. The probe itself is
// allocation-free and cheap (a time.Now comparison every CancelStride
// events); the user callback only runs once per ProgressEvery of wall
// clock. The first probe call anchors the wall clock instead of reporting,
// so rates and ETA measure the run, not construction.
func (s *Sim) armProgress() {
	interval := s.cfg.ProgressEvery
	if interval <= 0 {
		interval = time.Second
	}
	s.sched.SetProbe(func() {
		now := time.Now()
		if s.progressStart.IsZero() {
			s.progressStart = now
			s.progressNext = now.Add(interval)
			return
		}
		if now.Before(s.progressNext) {
			return
		}
		s.progressNext = now.Add(interval)
		s.cfg.OnProgress(s.progressSnapshot(now, false))
	})
}

// progressSnapshot assembles a Progress value from the kernel counters.
func (s *Sim) progressSnapshot(now time.Time, done bool) Progress {
	kp := s.sched.Progress()
	p := Progress{
		VirtualSeconds: float64(kp.Now),
		HorizonSeconds: s.cfg.DurationSeconds,
		Events:         kp.Fired,
		EventsElided:   kp.Elided,
		Done:           done,
	}
	if p.HorizonSeconds > 0 {
		p.Fraction = p.VirtualSeconds / p.HorizonSeconds
		if p.Fraction > 1 {
			p.Fraction = 1
		}
	}
	if !s.progressStart.IsZero() {
		wall := now.Sub(s.progressStart).Seconds()
		p.WallSeconds = wall
		if wall > 0 {
			p.EventsPerSec = float64(kp.Fired) / wall
			if !done && p.Fraction > 0 && p.Fraction < 1 {
				p.ETASeconds = wall * (1 - p.Fraction) / p.Fraction
			}
		}
	}
	return p
}

// ensureArmed arms the fault injector if it has not been armed yet (by a
// prior CheckpointAt, or a restore that overlaid its state).
func (s *Sim) ensureArmed() error {
	if s.injector != nil && !s.injector.Armed() {
		return s.injector.Arm()
	}
	return nil
}

// Run executes the simulation to its configured duration and returns the
// result digest. Run may be called once, after any CheckpointAt calls; it
// continues from wherever the last checkpoint left the clock.
//
// With Config.Cancel armed, a run whose probe fires stops between events
// and returns the partial Result accumulated so far together with an error
// wrapping sim.ErrCancelled — callers distinguish "cancelled with usable
// partial data" from a genuinely failed run via errors.Is.
func (s *Sim) Run() (Result, error) {
	if s.ran {
		return Result{}, fmt.Errorf("scenario: simulation already ran")
	}
	s.ran = true
	if err := s.ensureArmed(); err != nil {
		return Result{}, fmt.Errorf("scenario: %w", err)
	}
	cancelled := false
	switch err := s.runScheduler(); {
	case errors.Is(err, sim.ErrCancelled):
		cancelled = true
	case err != nil:
		return Result{}, fmt.Errorf("scenario: %w", err)
	}
	// Close the elision ledgers: still-active idle spans replay the cycle
	// boundaries the eager arm would have run up to the end of the run,
	// and the lazy decay ledgers are harvested into the kernel's elided
	// counter. A no-op on eager-arm nodes. This runs before the sampler's
	// final snapshot so ξ reads are settled through the end. A cancelled
	// run finalizes at the clock it stopped at, not the horizon, keeping
	// the partial counters consistent with the events that actually fired.
	end := s.cfg.DurationSeconds
	if cancelled {
		end = float64(s.sched.Now())
	}
	for _, n := range s.sinks {
		n.FinalizeElision(end)
	}
	for _, n := range s.sensors {
		n.FinalizeElision(end)
	}
	if s.invEng != nil {
		// Close the copy-conservation ledger against the injector's digest.
		var lost uint64
		if s.injector != nil {
			lost = s.injector.Stats().CopiesLost
		}
		s.invEng.Finish(lost)
	}
	if s.sampler != nil {
		s.series = s.sampler.Finish(s.sched.Now())
	}
	if s.cfg.OnProgress != nil {
		// Final snapshot so bars and /progress endpoints reach a terminal
		// reading (Fraction 1 on a completed run; the cancelled clock on a
		// cancelled one).
		s.cfg.OnProgress(s.progressSnapshot(time.Now(), true))
	}
	res := s.Snapshot()
	if cancelled {
		return res, fmt.Errorf("scenario: run cancelled at %.1f virtual s: %w",
			float64(s.sched.Now()), sim.ErrCancelled)
	}
	return res, nil
}

// runScheduler drives the kernel to the horizon. With the invariant
// engine armed, a sim.EventPanic escaping an event — notably the engine's
// own panic mode firing inside the post-event hook — is recovered into an
// error, so callers get a clean failure carrying the virtual-time event
// context instead of a crashed process.
func (s *Sim) runScheduler() (err error) {
	if s.invEng != nil {
		defer func() {
			if r := recover(); r != nil {
				ep, ok := r.(*sim.EventPanic)
				if !ok {
					panic(r)
				}
				err = ep
			}
		}()
	}
	return s.sched.Run(s.cfg.DurationSeconds)
}

// Snapshot digests the current state into a Result (valid mid-run for
// tools that step the scheduler themselves).
func (s *Sim) Snapshot() Result {
	now := s.sched.Now()
	res := Result{
		Scheme:          s.cfg.Scheme.String(),
		Delivery:        s.collector.Summarize(),
		Channel:         s.medium.Stats(),
		SimSeconds:      now,
		Events:          s.sched.Fired(),
		EventsScheduled: s.sched.Scheduled(),
		EventsElided:    s.sched.Elided(),
	}
	alive := 0
	for _, n := range s.sensors {
		meter := n.Radio().Meter()
		res.AvgSensorPowerMW += meter.AveragePowerW(now) * 1e3
		res.AvgDutyCycle += meter.DutyCycle(now)
		drops := n.Strategy().Drops()
		res.DropsFull += drops.Full
		res.DropsThreshold += drops.Threshold
		res.Sleeps += n.Stats().Sleeps
		if n.Alive() {
			alive++
		} else if died := n.Stats().DiedAt; res.FirstDeathSeconds == 0 || died < res.FirstDeathSeconds {
			res.FirstDeathSeconds = died
		}
	}
	if len(s.sensors) > 0 {
		res.AvgSensorPowerMW /= float64(len(s.sensors))
		res.AvgDutyCycle /= float64(len(s.sensors))
		res.AliveFraction = float64(alive) / float64(len(s.sensors))
	}
	if res.Delivery.Delivered > 0 {
		res.ControlBitsPerDelivered = float64(res.Channel.ControlBits) / float64(res.Delivery.Delivered)
	}
	res.Resilience.Orphaned = res.Delivery.Orphaned
	if s.injector != nil {
		st := s.injector.Stats()
		res.Resilience.Crashes = st.Crashes
		res.Resilience.Recoveries = st.Recoveries
		res.Resilience.SinkOutages = st.SinkOutages
		res.Resilience.CopiesLost = st.CopiesLost
		if t0, ok := s.plan.FirstFaultSeconds(); ok {
			res.Resilience.RecoverySeconds = s.collector.RecoveryTime(t0, s.cfg.DurationSeconds/20, 0.8, now)
		}
	}
	if s.invEng != nil {
		res.Invariants = s.invEng.Digest()
	}
	if s.telem != nil {
		s.telem.EventsScheduled.Set(float64(res.EventsScheduled))
		s.telem.EventsFired.Set(float64(res.Events))
		s.telem.EventsElided.Set(float64(res.EventsElided))
		report := &telemetry.Report{Run: s.telem, Series: s.series}
		if fw, ok := s.cfg.Recorder.(*telemetry.JSONLWriter); ok {
			report.Events = fw.Events()
		}
		res.Telemetry = report
	}
	return res
}

// strategicZones returns the zones for sink placement: high-visiting-
// probability locations spread across the field, starting from the centre
// (the paper deploys sinks "at strategic locations with high visiting
// probability").
func strategicZones(g *geo.Grid, n int) []geo.ZoneID {
	cols, rows := g.Cols(), g.Rows()
	order := make([]geo.ZoneID, 0, cols*rows)
	seen := make(map[geo.ZoneID]bool, cols*rows)
	add := func(c, r int) {
		if c < 0 || c >= cols || r < 0 || r >= rows {
			return
		}
		id := geo.ZoneID(r*cols + c)
		if !seen[id] {
			seen[id] = true
			order = append(order, id)
		}
	}
	// Centre, then midpoints of half-quadrants, then corners, then the rest
	// row-major — a deterministic spread that keeps early sinks far apart.
	add(cols/2, rows/2)
	add(cols/4, rows/4)
	add(3*cols/4, 3*rows/4)
	add(3*cols/4, rows/4)
	add(cols/4, 3*rows/4)
	add(0, rows/2)
	add(cols-1, rows/2)
	add(cols/2, 0)
	add(cols/2, rows-1)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			add(c, r)
		}
	}
	return order[:n]
}
