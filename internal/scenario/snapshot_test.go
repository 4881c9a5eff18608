package scenario

import (
	"reflect"
	"strings"
	"testing"

	"dftmsn/internal/faults"
	"dftmsn/internal/snapshot"
	"dftmsn/internal/telemetry"
)

// concatEvents joins a recorded prefix and continuation without aliasing
// either slice's backing array.
func concatEvents(prefix, rest []telemetry.Event) []telemetry.Event {
	out := make([]telemetry.Event, 0, len(prefix)+len(rest))
	out = append(out, prefix...)
	return append(out, rest...)
}

// compareArm asserts an arm's Result and full telemetry stream are
// bit-identical to the straight run's.
func compareArm(t *testing.T, arm string, wantRes, gotRes Result, wantEvents, gotEvents []telemetry.Event) {
	t.Helper()
	if !reflect.DeepEqual(wantRes, gotRes) {
		t.Errorf("%s: results diverge:\nstraight: %+v\n%s: %+v", arm, wantRes, arm, gotRes)
	}
	if len(wantEvents) != len(gotEvents) {
		t.Fatalf("%s: telemetry stream lengths diverge: straight %d, %s %d",
			arm, len(wantEvents), arm, len(gotEvents))
	}
	for i := range wantEvents {
		if !reflect.DeepEqual(wantEvents[i], gotEvents[i]) {
			t.Fatalf("%s: telemetry streams diverge at event %d:\nstraight: %s\n%s: %s",
				arm, i, eventString(wantEvents[i]), arm, eventString(gotEvents[i]))
		}
	}
}

// TestSnapshotDifferential is the end-to-end correctness gate for the
// snapshot tentpole, over the full 12-config differential matrix (faults,
// battery, burst loss, low-duty elision, mobile sinks). Three arms must be
// bit-identical on the whole Result and the full typed telemetry stream:
//
//  1. the straight run to the horizon;
//  2. checkpoint mid-run — and again just after the first fired event of
//     each fault clause — encode + decode the snapshot through the
//     versioned codec, restore in a fresh process image, continue;
//  3. fork in memory at the checkpoint, continue the clone.
//
// On top of that, the simulation the checkpoint was exported from must
// itself continue unperturbed — exports never mutate.
func TestSnapshotDifferential(t *testing.T) {
	for name, cfg := range elisionConfigs() {
		name, cfg := name, cfg
		t.Run(name, func(t *testing.T) {
			t.Parallel()

			// Arm 1: the straight run.
			straight := func() (Result, []telemetry.Event) {
				c := cfg
				buf := &telemetry.Buffer{}
				c.Recorder = buf
				s, err := New(c)
				if err != nil {
					t.Fatal(err)
				}
				res, err := s.Run()
				if err != nil {
					t.Fatal(err)
				}
				return res, buf.Events
			}
			baseRes, baseEvents := straight()

			// Checkpoint at ~40% of the horizon, and again just after the
			// first fired event of each discrete fault clause, so the
			// snapshot carries fired as well as pending fault events.
			checkpointArms(t, cfg, 0.4*cfg.DurationSeconds, false, baseRes, baseEvents)
			for _, ft := range firstFiredFaults(cfg.Faults, baseEvents) {
				checkpointArms(t, cfg, ft+1, true, baseRes, baseEvents)
			}
		})
	}
}

// firstFiredFaults returns the time of the first fired event of each
// discrete fault clause in plan: the first churn crash (read from the
// recorded stream, since its time is drawn), the first sink outage, and
// the first kill. Burst loss is continuous background and has none.
func firstFiredFaults(plan *faults.Plan, events []telemetry.Event) []float64 {
	if plan == nil {
		return nil
	}
	var out []float64
	if plan.Churn != nil {
		for _, ev := range events {
			if ev.Type == telemetry.EvCrash {
				out = append(out, ev.Time)
				break
			}
		}
	}
	if len(plan.SinkOutages) > 0 {
		first := plan.SinkOutages[0].StartSeconds
		for _, o := range plan.SinkOutages {
			first = min(first, o.StartSeconds)
		}
		out = append(out, first)
	}
	if len(plan.Kills) > 0 {
		first := plan.Kills[0].AtSeconds
		for _, k := range plan.Kills {
			first = min(first, k.AtSeconds)
		}
		out = append(out, first)
	}
	return out
}

// pristine reports whether no fault event had fired when the injector state
// was exported: every churn chain still waits for its first crash (phase 0,
// the faults package's chainCrash), every outage window its down
// transition, every kill its shot.
func pristine(st *faults.State) bool {
	if st.Stats != (faults.Stats{}) {
		return false
	}
	for _, cs := range st.Chains {
		if cs.Next != 0 || cs.Ev == nil {
			return false
		}
	}
	for _, os := range st.Outages {
		if os.Down == nil {
			return false
		}
	}
	for _, ks := range st.Kills {
		if ks.Ev == nil {
			return false
		}
	}
	return true
}

// checkpointArms checkpoints cfg at the first quiescent instant at or after
// t0 and checks the original, fork and decode-restore arms against the
// straight run. afterFault asserts that a fault event has fired by then.
func checkpointArms(t *testing.T, cfg Config, t0 float64, afterFault bool, baseRes Result, baseEvents []telemetry.Event) {
	t.Helper()
	buf := &telemetry.Buffer{}
	c := cfg
	c.Recorder = buf
	s, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := s.CheckpointAt(t0)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Time < t0 || snap.Time >= cfg.DurationSeconds {
		t.Fatalf("checkpoint landed at %v s, want within [%v, %v)", snap.Time, t0, cfg.DurationSeconds)
	}
	if afterFault && (snap.Injector == nil || pristine(snap.Injector)) {
		t.Fatalf("checkpoint at %v s: no fault has fired", snap.Time)
	}
	prefix := append([]telemetry.Event(nil), buf.Events...)

	// Round-trip the snapshot through the versioned codec: the restore arm
	// continues from decoded bytes, exactly like a fresh process image
	// would.
	blob, err := snapshot.EncodeBytes(snap)
	if err != nil {
		t.Fatalf("checkpoint at %v s: %v", snap.Time, err)
	}
	decoded, err := snapshot.DecodeBytes(blob)
	if err != nil {
		t.Fatal(err)
	}

	// Arm 3: fork in memory before the original moves again.
	forkBuf := &telemetry.Buffer{}
	fork, err := s.Fork(func(c *Config) { c.Recorder = forkBuf })
	if err != nil {
		t.Fatal(err)
	}

	// The exporting simulation continues to the horizon untouched.
	origRes, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	compareArm(t, "original-after-export", baseRes, origRes, baseEvents, buf.Events)

	forkRes, err := fork.Run()
	if err != nil {
		t.Fatal(err)
	}
	compareArm(t, "fork", baseRes, forkRes, baseEvents, concatEvents(prefix, forkBuf.Events))

	// Arm 2: restore from the decoded bytes and continue.
	restBuf := &telemetry.Buffer{}
	restored, err := Restore(decoded, func(c *Config) { c.Recorder = restBuf })
	if err != nil {
		t.Fatal(err)
	}
	restRes, err := restored.Run()
	if err != nil {
		t.Fatal(err)
	}
	compareArm(t, "restore", baseRes, restRes, baseEvents, concatEvents(prefix, restBuf.Events))
}

// TestPeriodicCheckpointsDontPerturb pins checkpointing inside a run:
// CheckpointAt at every quarter of the horizon, then Run, produces the
// checkpoints and an otherwise bit-identical Result.
func TestPeriodicCheckpointsDontPerturb(t *testing.T) {
	for _, name := range []string{"opt-churn-kills", "opt-low-duty"} {
		name := name
		cfg, ok := elisionConfigs()[name]
		if !ok {
			t.Fatalf("config %s missing from the differential matrix", name)
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			plain, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := plain.Run()
			if err != nil {
				t.Fatal(err)
			}
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			every := cfg.DurationSeconds / 4
			last := 0.0
			for i := 1; i <= 3; i++ {
				k := float64(i) * every
				snap, err := s.CheckpointAt(k)
				if err != nil {
					t.Fatal(err)
				}
				if snap.Time < k || snap.Time <= last {
					t.Fatalf("checkpoint %d at %v s, want >= %v and increasing", i, snap.Time, k)
				}
				last = snap.Time
			}
			got, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("checkpointing perturbed the run:\nplain: %+v\nchk:   %+v", want, got)
			}
		})
	}
}

// TestRestoreRefusesOtherPlatform pins the determinism contract's scope:
// a snapshot taken on another GOARCH or Go release is refused, with an
// error naming both platforms, instead of continuing on different floats.
func TestRestoreRefusesOtherPlatform(t *testing.T) {
	s, err := New(elisionConfigs()["opt-plain"])
	if err != nil {
		t.Fatal(err)
	}
	snap, err := s.CheckpointAt(100)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Platform != snapshot.Platform {
		t.Fatalf("snapshot names platform %q, this build is %q", snap.Platform, snapshot.Platform)
	}
	snap.Platform = "riscv64 go1.0"
	_, err = Restore(snap)
	if err == nil {
		t.Fatal("snapshot from another platform restored")
	}
	for _, want := range []string{snap.Platform, snapshot.Platform} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error does not name %q: %v", want, err)
		}
	}
}
