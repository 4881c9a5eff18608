package scenario

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"dftmsn/internal/core"
	"dftmsn/internal/sim"
	"dftmsn/internal/telemetry"
)

// cancelTestConfig is a small but busy scenario for the cancellation tests.
func cancelTestConfig() Config {
	cfg := DefaultConfig(core.SchemeOPT)
	cfg.NumSensors = 12
	cfg.NumSinks = 2
	cfg.DurationSeconds = 600
	cfg.ArrivalMeanSeconds = 40
	cfg.Seed = 7
	return cfg
}

// runTraced executes cfg with a JSONL trace-v2 recorder attached and returns
// the raw trace bytes alongside the result. cancelAfter > 0 arms a
// deterministic probe that cancels on the (cancelAfter+1)-th consultation,
// i.e. after exactly cancelAfter*sim.CancelStride fired events.
func runTraced(t *testing.T, cfg Config, cancelAfter int) ([]byte, Result, error) {
	t.Helper()
	var buf bytes.Buffer
	w := telemetry.NewJSONL(&buf)
	cfg.Recorder = w
	cfg.Telemetry = true
	if cancelAfter > 0 {
		calls := 0
		cfg.Cancel = func() bool { calls++; return calls > cancelAfter }
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, runErr := s.Run()
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), res, runErr
}

// TestCancelledRunTelemetryIsPrefix is the deadline-determinism acceptance
// gate: a cancelled run's telemetry stream must be byte-identical to the
// corresponding prefix of the same run allowed to finish, and its partial
// Result must reflect exactly the events that fired.
func TestCancelledRunTelemetryIsPrefix(t *testing.T) {
	full, fres, err := runTraced(t, cancelTestConfig(), 0)
	if err != nil {
		t.Fatalf("full run: %v", err)
	}

	const cancelAfter = 5
	part, pres, err := runTraced(t, cancelTestConfig(), cancelAfter)
	if !errors.Is(err, sim.ErrCancelled) {
		t.Fatalf("cancelled run error = %v, want sim.ErrCancelled", err)
	}

	if want := uint64(cancelAfter * sim.CancelStride); pres.Events != want {
		t.Fatalf("cancelled run fired %d events, want exactly %d", pres.Events, want)
	}
	if pres.Events >= fres.Events {
		t.Fatalf("cancelled run fired %d events, full run %d; want a proper prefix", pres.Events, fres.Events)
	}
	if pres.SimSeconds >= fres.SimSeconds {
		t.Fatalf("cancelled run simulated %.1f s, full run %.1f s", pres.SimSeconds, fres.SimSeconds)
	}
	if len(part) == 0 || len(part) >= len(full) {
		t.Fatalf("cancelled trace is %d bytes, full trace %d; want a non-empty proper prefix", len(part), len(full))
	}
	if !bytes.Equal(part, full[:len(part)]) {
		t.Fatal("cancelled run's telemetry stream is not a byte-identical prefix of the uncancelled run's")
	}
}

// TestCancelBeforeFirstEvent checks the degenerate deadline: a probe that is
// already expired yields a zero-event partial result, not a hang or a crash.
func TestCancelBeforeFirstEvent(t *testing.T) {
	cfg := cancelTestConfig()
	cfg.Cancel = func() bool { return true }
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, runErr := s.Run()
	if !errors.Is(runErr, sim.ErrCancelled) {
		t.Fatalf("Run = %v, want sim.ErrCancelled", runErr)
	}
	if res.Events != 0 {
		t.Fatalf("fired %d events under an already-expired deadline, want 0", res.Events)
	}
	if res.Delivery.Generated != 0 {
		t.Fatalf("generated %d messages under an already-expired deadline, want 0", res.Delivery.Generated)
	}
}

// TestCancelDuringCheckpointing checks that the probe also bounds the
// checkpoint stepping loop, and that the partial result still surfaces.
func TestCancelDuringCheckpointing(t *testing.T) {
	cfg := cancelTestConfig()
	calls := 0
	cfg.Cancel = func() bool { calls++; return calls > 3 }
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var chkErr error
	for k := 100.0; k < cfg.DurationSeconds && chkErr == nil; k += 100 {
		_, chkErr = s.CheckpointAt(k)
	}
	if !errors.Is(chkErr, sim.ErrCancelled) {
		t.Fatalf("CheckpointAt = %v, want sim.ErrCancelled", chkErr)
	}
	res, runErr := s.Run()
	if !errors.Is(runErr, sim.ErrCancelled) {
		t.Fatalf("Run = %v, want sim.ErrCancelled", runErr)
	}
	if res.Events == 0 {
		t.Fatal("expected some events before cancellation during checkpointing")
	}
	if res.SimSeconds >= cfg.DurationSeconds {
		t.Fatalf("cancelled run reports %.1f simulated s, want < horizon %.1f", res.SimSeconds, cfg.DurationSeconds)
	}
}

// TestWallClockDeadlineProbe sanity-checks the stock probe both ways.
func TestWallClockDeadlineProbe(t *testing.T) {
	if WallClockDeadline(0)() != true {
		t.Fatal("an elapsed deadline must report cancelled")
	}
	if WallClockDeadline(time.Hour)() {
		t.Fatal("a distant deadline must not report cancelled")
	}
}
