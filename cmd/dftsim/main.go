// Command dftsim runs one DFT-MSN simulation and prints its result digest.
//
// Usage:
//
//	dftsim [-scheme OPT] [-sensors 100] [-sinks 3] [-duration 25000]
//	       [-seed 1] [-arrival 120] [-speed 5] [-queue 200] [-v] [-map]
//	dftsim [-churn-mtbf S -churn-mttr S] [-churn-fraction F] [-churn-start S]
//	       [-outage-start S -outage-duration S] [-outage-sink N]
//	       [-burst-bad-loss P] [-burst-good-loss P] [-burst-good-s S] [-burst-bad-s S]
//	       [-kill-at S -kill-fraction F]
//	dftsim [-invariants off|report|panic] [-inject-skip-sender-ftd]
//	dftsim [-telemetry] [-trace events.jsonl]
//	dftsim [-progress]
//	dftsim [-snapshot state.snap [-snapshot-at S]] [-restore state.snap]
//	dftsim [-deadline 30s]
//	dftsim -config scenario.json [-dumpconfig]
//
// The defaults reproduce the paper's §5 setup; -config loads a JSON
// scenario (the json tags of scenario.Config are the schema), -map
// renders the final node positions as ASCII, and -dumpconfig prints the
// effective configuration without simulating.
//
// The fault flags assemble a fault-injection plan: -churn-mtbf with
// -churn-mttr enables exponential crash/reboot cycles, -outage-duration
// takes a sink (or all sinks) down for a window, -burst-bad-loss
// switches the channel to Gilbert–Elliott two-state burst loss, and
// -kill-at with -kill-fraction fails a sensor fraction for good. When any
// fault ran, the digest gains a resilience section. JSON configs express
// the same (and more, e.g. several outages) under the "faults" key.
//
// -invariants arms the runtime protocol-invariant engine
// (internal/invariants): "report" adds an invariants line to the digest
// and lists the first breaches; "panic" aborts at the first breach with
// the virtual-time event context. -inject-skip-sender-ftd deliberately
// breaks the Eq. 3 sender update — a mutation-testing knob proving the
// engine catches a broken build (the chaos harness uses it; see
// internal/chaos).
//
// -telemetry arms the telemetry layer (internal/telemetry): the digest
// gains a line with histogram-derived delay percentiles and mean queue
// occupancy / delivery probability. -trace FILE additionally streams every
// typed trace-v2 event to FILE as JSONL for offline analysis with dftstats.
//
// -progress prints a live line to stderr about once a second: percent of
// the virtual horizon, the kernel clock, the event rate, and a wall-clock
// ETA. The probe rides the kernel's cancellation stride, so an observed run
// is bit-identical to an unobserved one — stderr only; stdout stays a clean
// digest.
//
// -snapshot-at S steps the simulation to the first quiescent instant at or
// after S virtual seconds, writes a complete snapshot of the kernel and
// protocol state to the -snapshot file (PROTOCOL.md §12), and continues the
// run — the result is identical to an unsnapshotted run. -restore FILE
// resumes a saved snapshot and runs it to the horizon; the digest it prints
// is bit-identical to the run the snapshot came from (reattach -telemetry /
// -trace if the snapshotted run used them). When the invariant engine runs
// in report mode with -snapshot set (and no explicit -snapshot-at), a run
// that breaches an invariant automatically re-simulates its prefix and
// writes a snapshot shortly before the first violation — a ready-made
// time-travel debugging session.
//
// -deadline puts a wall-clock budget on the run. Cancellation is
// cooperative and event-granular: on expiry the simulation stops between
// two events, the digest printed is the bit-exact digest of the completed
// prefix (a "deadline" line marks how far it got), and the process exits
// with status 3 — distinct from status 1, which means the run failed.
//
// -eager-decay disables the event-elision engine (PROTOCOL.md §11) and
// runs every ξ-decay tick and sleep cycle as a real kernel event — the
// control arm for performance comparisons. On the differential test
// matrix results are identical either way and only the event count and
// wall time change; elsewhere idle-span coalescing can diverge from it
// (PROTOCOL.md §11). -cpuprofile and
// -memprofile write pprof profiles of the run for use with `go tool
// pprof`.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"dftmsn"
	"dftmsn/internal/packet"
	"dftmsn/internal/telemetry"
)

// Exit status: 0 on success, 1 on failure, 3 when a -deadline expired (the
// partial digest of the completed prefix was still printed).
func main() {
	err := run(os.Args[1:], os.Stdout)
	if err == nil {
		return
	}
	fmt.Fprintln(os.Stderr, "dftsim:", err)
	if errors.Is(err, dftmsn.ErrCancelled) {
		os.Exit(3)
	}
	os.Exit(1)
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("dftsim", flag.ContinueOnError)
	var (
		schemeName = fs.String("scheme", "OPT", "protocol variant: OPT, NOOPT, NOSLEEP, ZBR, DIRECT, EPIDEMIC")
		sensors    = fs.Int("sensors", 100, "number of wearable sensors")
		sinks      = fs.Int("sinks", 3, "number of sink nodes")
		duration   = fs.Float64("duration", 25_000, "simulated seconds")
		seed       = fs.Uint64("seed", 1, "random seed")
		arrival    = fs.Float64("arrival", 120, "mean data inter-arrival per sensor (s)")
		speed      = fs.Float64("speed", 5, "maximum sensor speed (m/s)")
		queue      = fs.Int("queue", 200, "sensor buffer capacity (messages)")
		deadline   = fs.Duration("deadline", 0, "wall-clock budget; on expiry the run stops at an event boundary, prints the partial digest, and exits with status 3 (0 = none)")
		verbose    = fs.Bool("v", false, "print extended counters")

		churnMTBF     = fs.Float64("churn-mtbf", 0, "mean sensor up-time between crashes (s); with -churn-mttr enables churn")
		churnMTTR     = fs.Float64("churn-mttr", 0, "mean sensor down-time until reboot (s)")
		churnFraction = fs.Float64("churn-fraction", 0, "share of sensors subject to churn (0 = all)")
		churnStart    = fs.Float64("churn-start", 0, "delay before the first crash draws (s)")
		outageStart   = fs.Float64("outage-start", 0, "when the sink outage begins (s)")
		outageDur     = fs.Float64("outage-duration", 0, "sink outage length (s); > 0 enables the outage")
		outageSink    = fs.Int("outage-sink", -1, "sink index to take down (-1 = all sinks)")
		burstBadLoss  = fs.Float64("burst-bad-loss", 0, "bad-state reception loss probability; > 0 enables Gilbert-Elliott burst loss")
		burstGoodLoss = fs.Float64("burst-good-loss", 0, "good-state reception loss probability")
		burstGoodS    = fs.Float64("burst-good-s", 90, "mean good-state sojourn (s)")
		burstBadS     = fs.Float64("burst-bad-s", 30, "mean bad-state sojourn (s)")
		killAt        = fs.Float64("kill-at", 0, "when a one-shot burst failure strikes (s); with -kill-fraction enables the kill")
		killFraction  = fs.Float64("kill-fraction", 0, "share of sensors the burst failure kills")

		invariantsMode = fs.String("invariants", "", "runtime invariant checking: off, report, or panic")
		injectSkipFTD  = fs.Bool("inject-skip-sender-ftd", false, "deliberately break the Eq. 3 sender-FTD update (mutation testing)")

		progress    = fs.Bool("progress", false, "print a live progress line (virtual clock, % of horizon, event rate, ETA) to stderr about once a second")
		telemetryOn = fs.Bool("telemetry", false, "collect per-run telemetry metrics and print a digest line")
		tracePath   = fs.String("trace", "", "write typed trace-v2 events to this file (implies -telemetry)")

		snapshotPath = fs.String("snapshot", "", "snapshot file to write (with -snapshot-at, or automatically on an invariant violation in report mode)")
		snapshotAt   = fs.Float64("snapshot-at", -1, "take a quiescent snapshot at or after this virtual time (s) and keep running")
		restorePath  = fs.String("restore", "", "resume a saved snapshot instead of starting a new run (scenario flags are ignored)")

		eagerDecay = fs.Bool("eager-decay", false, "disable event elision: run every decay tick and sleep cycle as a kernel event (control arm)")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProfile = fs.String("memprofile", "", "write a heap profile (post-run) to this file")

		configPath = fs.String("config", "", "JSON scenario file (flags above are ignored)")
		dumpConfig = fs.Bool("dumpconfig", false, "print the effective config as JSON and exit")
		showMap    = fs.Bool("map", false, "render an ASCII map of final node positions")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var cfg dftmsn.Config
	var restoreSnap *dftmsn.Snapshot
	if *restorePath != "" {
		if *configPath != "" {
			return fmt.Errorf("-restore and -config are mutually exclusive")
		}
		var err error
		restoreSnap, err = dftmsn.LoadSnapshot(*restorePath)
		if err != nil {
			return err
		}
		// The snapshot is self-describing: its embedded config drives the
		// digest below and rebuilds the simulation shell to overlay.
		cfg, err = dftmsn.LoadConfig(bytes.NewReader(restoreSnap.Config))
		if err != nil {
			return err
		}
	} else if *configPath != "" {
		f, err := os.Open(*configPath)
		if err != nil {
			return err
		}
		cfg, err = dftmsn.LoadConfig(f)
		if cerr := f.Close(); err == nil && cerr != nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	} else {
		scheme, err := parseScheme(*schemeName)
		if err != nil {
			return err
		}
		cfg = dftmsn.DefaultConfig(scheme)
		cfg.NumSensors = *sensors
		cfg.NumSinks = *sinks
		cfg.DurationSeconds = *duration
		cfg.Seed = *seed
		cfg.ArrivalMeanSeconds = *arrival
		cfg.MaxSpeed = *speed
		cfg.QueueCapacity = *queue

		plan := &dftmsn.FaultPlan{}
		if *churnMTBF > 0 || *churnMTTR > 0 {
			plan.Churn = &dftmsn.FaultChurn{
				MTBFSeconds:  *churnMTBF,
				MTTRSeconds:  *churnMTTR,
				Fraction:     *churnFraction,
				StartSeconds: *churnStart,
			}
		}
		if *outageDur > 0 {
			plan.SinkOutages = []dftmsn.SinkOutage{{
				Sink:            *outageSink,
				StartSeconds:    *outageStart,
				DurationSeconds: *outageDur,
			}}
		}
		if *burstBadLoss > 0 {
			plan.Burst = &dftmsn.BurstLoss{
				GoodLossProb:    *burstGoodLoss,
				BadLossProb:     *burstBadLoss,
				MeanGoodSeconds: *burstGoodS,
				MeanBadSeconds:  *burstBadS,
			}
		}
		if *killFraction > 0 {
			plan.Kills = []dftmsn.FaultKill{{
				AtSeconds: *killAt,
				Fraction:  *killFraction,
			}}
		}
		if plan.Enabled() {
			cfg.Faults = plan
		}
	}
	// The invariant flags apply in both paths, so a -config run can still
	// be armed (or a chaos reproducer can carry the mutation knob).
	if *invariantsMode != "" {
		cfg.Invariants = *invariantsMode
	}
	if *injectSkipFTD {
		cfg.InjectSkipSenderFTD = true
	}
	if *telemetryOn || *tracePath != "" {
		cfg.Telemetry = true
	}
	if *progress {
		// Progress rides the kernel probe stride; the lines go to stderr so
		// they never contaminate a digest or -dumpconfig piped from stdout.
		cfg.OnProgress = func(p dftmsn.Progress) {
			fmt.Fprintf(os.Stderr, "dftsim: %s\n", formatProgress(p))
		}
	}
	if *eagerDecay {
		cfg.EagerDecay = true
	}
	if *deadline > 0 {
		cfg.Cancel = dftmsn.WallClockDeadline(*deadline)
	}
	var (
		tw        *telemetry.JSONLWriter
		traceFile *os.File
	)
	if *tracePath != "" {
		var err error
		traceFile, err = os.Create(*tracePath)
		if err != nil {
			return err
		}
		defer traceFile.Close() // backstop; the happy path closes explicitly
		tw = telemetry.NewJSONL(traceFile)
		cfg.Recorder = tw
	}
	if *dumpConfig {
		return dftmsn.SaveConfig(out, cfg)
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	start := time.Now()
	var (
		sim *dftmsn.Sim
		err error
	)
	if restoreSnap != nil {
		// Overlay the snapshot onto a rebuilt shell; cfg carries any
		// runtime reattachments (-telemetry, -trace) applied above.
		rcfg := cfg
		sim, err = dftmsn.RestoreSim(restoreSnap, func(c *dftmsn.Config) { *c = rcfg })
	} else {
		sim, err = dftmsn.New(cfg)
	}
	if err != nil {
		return err
	}
	var snapshotNote string
	if *snapshotAt >= 0 {
		if *snapshotPath == "" {
			return fmt.Errorf("-snapshot-at needs -snapshot FILE")
		}
		snap, err := sim.CheckpointAt(*snapshotAt)
		if err != nil {
			return err
		}
		if err := dftmsn.SaveSnapshot(*snapshotPath, snap); err != nil {
			return err
		}
		snapshotNote = fmt.Sprintf("snapshot          quiescent state at %.1f s -> %s\n", snap.Time, *snapshotPath)
	}
	res, err := sim.Run()
	cancelled := err != nil && errors.Is(err, dftmsn.ErrCancelled)
	if err != nil && !cancelled {
		return err
	}
	runErr := err
	wall := time.Since(start)
	if note, err := violationSnapshot(cfg, res, *snapshotPath, *snapshotAt >= 0 || restoreSnap != nil || cancelled); err != nil {
		return err
	} else if note != "" {
		snapshotNote += note
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return err
		}
		runtime.GC() // settle the heap so the profile reflects retained state
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if tw != nil {
		if err := tw.Flush(); err != nil {
			return err
		}
		if err := traceFile.Close(); err != nil {
			return err
		}
	}

	fmt.Fprintf(out, "scheme            %s\n", res.Scheme)
	fmt.Fprintf(out, "simulated         %.0f s (%d events, %d elided in %v)\n",
		res.SimSeconds, res.Events, res.EventsElided, wall.Round(time.Millisecond))
	if cancelled {
		fmt.Fprintf(out, "deadline          %v expired; this digest is the completed prefix, not the %.0f s horizon\n",
			*deadline, cfg.DurationSeconds)
	}
	fmt.Fprintf(out, "generated         %d messages\n", res.Delivery.Generated)
	fmt.Fprintf(out, "delivered         %d (ratio %.3f, %d duplicate arrivals)\n",
		res.Delivery.Delivered, res.Delivery.DeliveryRatio, res.Delivery.Duplicates)
	fmt.Fprintf(out, "delay             avg %.1f s, median %.1f s, p90 %.1f s, max %.1f s\n",
		res.Delivery.AvgDelaySeconds, res.Delivery.MedianDelaySeconds,
		res.Delivery.P90DelaySeconds, res.Delivery.MaxDelaySeconds)
	fmt.Fprintf(out, "avg nodal power   %.3f mW (duty cycle %.1f%%)\n", res.AvgSensorPowerMW, res.AvgDutyCycle*100)
	if cfg.Faults.Enabled() {
		r := res.Resilience
		fmt.Fprintf(out, "resilience        %d crashes, %d recoveries, %d sink outages\n",
			r.Crashes, r.Recoveries, r.SinkOutages)
		fmt.Fprintf(out, "fault losses      %d queued copies destroyed, %d messages orphaned\n",
			r.CopiesLost, r.Orphaned)
		switch {
		case r.RecoverySeconds < 0:
			fmt.Fprintf(out, "ratio recovery    never (stayed below 80%% of the pre-fault ratio)\n")
		case r.RecoverySeconds > 0:
			fmt.Fprintf(out, "ratio recovery    %.0f s after the first fault\n", r.RecoverySeconds)
		}
	}
	if res.Invariants.Armed {
		fmt.Fprintf(out, "invariants        %d checks, %d violations\n",
			res.Invariants.Checks, res.Invariants.Violations)
		for i, v := range res.Invariants.Recorded {
			if i >= 5 {
				fmt.Fprintf(out, "  … %d more recorded\n", len(res.Invariants.Recorded)-i)
				break
			}
			fmt.Fprintf(out, "  %s\n", v)
		}
	}
	if rep := res.Telemetry; rep != nil && rep.Run != nil {
		m := rep.Run
		fmt.Fprintf(out, "telemetry         delay p50 %.1f s p90 %.1f s, mean occupancy %.1f, mean xi %.2f\n",
			m.DeliveryDelay.Quantile(0.5), m.DeliveryDelay.Quantile(0.9),
			m.QueueOccupancy.Mean(), m.Xi.Mean())
		if tw != nil {
			fmt.Fprintf(out, "trace v2          %d events -> %s (jsonl)\n", tw.Events(), *tracePath)
		}
	}
	if *verbose {
		fmt.Fprintf(out, "avg hops          %.2f\n", res.Delivery.AvgHops)
		fmt.Fprintf(out, "queue drops       %d overflow, %d over-threshold\n", res.DropsFull, res.DropsThreshold)
		fmt.Fprintf(out, "sleep periods     %d\n", res.Sleeps)
		fmt.Fprintf(out, "collisions        %d corrupted receptions\n", res.Channel.Collisions)
		fmt.Fprintf(out, "channel losses    %d uniform, %d burst\n",
			res.Channel.LossesUniform, res.Channel.LossesBurst)
		fmt.Fprintf(out, "air bits          %d control, %d data\n", res.Channel.ControlBits, res.Channel.DataBits)
		fmt.Fprintf(out, "ctrl overhead     %.0f bits per delivered message\n", res.ControlBitsPerDelivered)
		// Map iteration order is randomised; sort so same-seed runs print
		// byte-identical digests.
		kinds := make([]packet.Kind, 0, len(res.Channel.FramesSent))
		for kind := range res.Channel.FramesSent {
			kinds = append(kinds, kind)
		}
		sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
		for _, kind := range kinds {
			fmt.Fprintf(out, "frames %-9s %d sent, %d delivered\n",
				kind, res.Channel.FramesSent[kind], res.Channel.FramesDelivered[kind])
		}
	}
	fmt.Fprint(out, snapshotNote)
	if *showMap {
		fmt.Fprint(out, renderMap(sim, cfg))
	}
	if cancelled {
		// Surface the cancellation so main exits with the distinct status;
		// the partial digest above is already on out.
		return fmt.Errorf("deadline %v: %w", *deadline, runErr)
	}
	return nil
}

// formatProgress renders one -progress stderr line.
func formatProgress(p dftmsn.Progress) string {
	if p.Done {
		return fmt.Sprintf("done: %.0f s simulated, %s events (%s elided) in %.1f s",
			p.VirtualSeconds, countShort(p.Events), countShort(p.EventsElided), p.WallSeconds)
	}
	line := fmt.Sprintf("%5.1f%%  t=%.0f/%.0f s  %s events  %s ev/s",
		100*p.Fraction, p.VirtualSeconds, p.HorizonSeconds,
		countShort(p.Events), countShort(uint64(p.EventsPerSec)))
	if p.ETASeconds > 0 {
		line += fmt.Sprintf("  eta %s", (time.Duration(p.ETASeconds * float64(time.Second))).Round(time.Second))
	}
	return line
}

// countShort renders an event count compactly (1234567 -> "1.2M").
func countShort(n uint64) string {
	switch {
	case n >= 1_000_000_000:
		return fmt.Sprintf("%.1fG", float64(n)/1e9)
	case n >= 1_000_000:
		return fmt.Sprintf("%.1fM", float64(n)/1e6)
	case n >= 10_000:
		return fmt.Sprintf("%.0fk", float64(n)/1e3)
	}
	return fmt.Sprintf("%d", n)
}

// violationSnapshot implements the time-travel debugging hook: when a
// report-mode run breached an invariant and a -snapshot path is set (and no
// explicit snapshot was requested), re-simulate the run's deterministic
// prefix and write a snapshot shortly before the first violation, ready for
// -restore. Re-running the prefix is cheap relative to hand-bisecting the
// failure, and the snapshot run is bit-identical to the reported one.
func violationSnapshot(cfg dftmsn.Config, res dftmsn.Result, path string, taken bool) (string, error) {
	if path == "" || taken || cfg.Invariants != "report" ||
		res.Invariants.Violations == 0 || len(res.Invariants.Recorded) == 0 {
		return "", nil
	}
	first := res.Invariants.Recorded[0].Time
	if first <= 0 {
		return "", nil
	}
	pcfg := cfg
	pcfg.Recorder = nil // don't double-write an attached trace
	pcfg.Cancel = nil   // the prefix re-simulation is not under the run's deadline
	sim, err := dftmsn.New(pcfg)
	if err != nil {
		return "", err
	}
	snap, err := sim.CheckpointAt(0.9 * first)
	if err != nil {
		return "", err
	}
	if err := dftmsn.SaveSnapshot(path, snap); err != nil {
		return "", err
	}
	return fmt.Sprintf("snapshot          pre-violation state at %.1f s -> %s (first violation at %.1f s)\n",
		snap.Time, path, first), nil
}

// renderMap draws the final node positions on an ASCII grid: 'S' marks a
// sink, digits count the sensors in a cell (capped at 9), '+' marks cells
// holding both, '.' is empty field. Dead sensors render as 'x'.
func renderMap(sim *dftmsn.Sim, cfg dftmsn.Config) string {
	const cols, rows = 50, 20
	cellW := cfg.FieldSize / cols
	cellH := cfg.FieldSize / rows
	sensors := make([][]int, rows)
	dead := make([][]int, rows)
	sinks := make([][]int, rows)
	for r := 0; r < rows; r++ {
		sensors[r] = make([]int, cols)
		dead[r] = make([]int, cols)
		sinks[r] = make([]int, cols)
	}
	clampIdx := func(v, max int) int {
		if v < 0 {
			return 0
		}
		if v >= max {
			return max - 1
		}
		return v
	}
	for _, n := range sim.Sensors() {
		p := n.Radio().Position()
		c := clampIdx(int(p.X/cellW), cols)
		r := clampIdx(int(p.Y/cellH), rows)
		if n.Alive() {
			sensors[r][c]++
		} else {
			dead[r][c]++
		}
	}
	for _, n := range sim.Sinks() {
		p := n.Radio().Position()
		sinks[clampIdx(int(p.Y/cellH), rows)][clampIdx(int(p.X/cellW), cols)]++
	}
	var b strings.Builder
	b.WriteString("\nfinal positions (S=sink, 1-9=sensors, x=dead, .=empty):\n")
	for r := rows - 1; r >= 0; r-- { // north up
		for c := 0; c < cols; c++ {
			switch {
			case sinks[r][c] > 0 && sensors[r][c] > 0:
				b.WriteByte('+')
			case sinks[r][c] > 0:
				b.WriteByte('S')
			case sensors[r][c] > 9:
				b.WriteByte('9')
			case sensors[r][c] > 0:
				b.WriteByte(byte('0' + sensors[r][c]))
			case dead[r][c] > 0:
				b.WriteByte('x')
			default:
				b.WriteByte('.')
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func parseScheme(name string) (dftmsn.Scheme, error) {
	return dftmsn.ParseScheme(name)
}
