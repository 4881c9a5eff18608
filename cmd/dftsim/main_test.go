package main

import (
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"dftmsn"
	"dftmsn/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite golden files")

func TestParseScheme(t *testing.T) {
	cases := map[string]dftmsn.Scheme{
		"OPT":      dftmsn.OPT,
		"opt":      dftmsn.OPT,
		"NoSleep":  dftmsn.NOSLEEP,
		"NOOPT":    dftmsn.NOOPT,
		"zbr":      dftmsn.ZBR,
		"direct":   dftmsn.Direct,
		"EPIDEMIC": dftmsn.Epidemic,
	}
	for in, want := range cases {
		got, err := parseScheme(in)
		if err != nil {
			t.Errorf("parseScheme(%q): %v", in, err)
			continue
		}
		if got != want {
			t.Errorf("parseScheme(%q) = %v, want %v", in, got, want)
		}
	}
	if _, err := parseScheme("bogus"); err == nil {
		t.Error("bogus scheme accepted")
	}
}

func TestRunSmallSimulation(t *testing.T) {
	var sb strings.Builder
	err := run([]string{
		"-scheme", "OPT", "-sensors", "15", "-sinks", "2",
		"-duration", "300", "-seed", "5", "-v",
	}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"scheme", "OPT", "delivered", "avg nodal power", "sleep periods"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunWithConfigFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cfg.json")
	doc := `{"scheme": "ZBR", "sensors": 12, "sinks": 1, "duration_s": 200, "seed": 8}`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := run([]string{"-config", path}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "ZBR") {
		t.Fatalf("config scheme not honoured:\n%s", sb.String())
	}
	// -dumpconfig prints JSON without simulating.
	sb.Reset()
	if err := run([]string{"-config", path, "-dumpconfig"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `"scheme": "ZBR"`) || strings.Contains(sb.String(), "delivered") {
		t.Fatalf("dumpconfig output:\n%s", sb.String())
	}
	if err := run([]string{"-config", "/nonexistent.json"}, &sb); err == nil {
		t.Fatal("missing config accepted")
	}
}

// TestRunWithFaultFlags drives a full fault plan — churn, a sink outage
// and Gilbert–Elliott burst loss — from the command line, checks the
// resilience section appears, and checks two same-seed runs print
// byte-identical digests.
func TestRunWithFaultFlags(t *testing.T) {
	args := []string{
		"-scheme", "OPT", "-sensors", "15", "-sinks", "2",
		"-duration", "600", "-seed", "5", "-v",
		"-churn-mtbf", "150", "-churn-mttr", "75", "-churn-start", "50",
		"-outage-start", "100", "-outage-duration", "200", "-outage-sink", "0",
		"-burst-bad-loss", "0.8", "-burst-good-s", "60", "-burst-bad-s", "20",
	}
	var a, b strings.Builder
	if err := run(args, &a); err != nil {
		t.Fatal(err)
	}
	out := a.String()
	for _, want := range []string{"resilience", "crashes", "sink outages", "fault losses", "channel losses"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "0 crashes") || strings.Contains(out, "0 sink outages") {
		t.Errorf("fault plan inert:\n%s", out)
	}
	if err := run(args, &b); err != nil {
		t.Fatal(err)
	}
	// The digest includes wall time; compare everything after that line.
	trim := func(s string) string { return s[strings.Index(s, "generated"):] }
	if trim(a.String()) != trim(b.String()) {
		t.Fatalf("same-seed digests differ:\n%s\n---\n%s", a.String(), b.String())
	}
}

// TestRunWithFaultConfig drives the same plan from a JSON config.
func TestRunWithFaultConfig(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cfg.json")
	doc := `{
		"scheme": "OPT", "sensors": 15, "sinks": 2, "duration_s": 600, "seed": 5,
		"faults": {
			"churn": {"mtbf_s": 150, "mttr_s": 75, "start_s": 50},
			"sink_outages": [{"sink": 0, "start_s": 100, "duration_s": 200}],
			"burst_loss": {"bad_loss_prob": 0.8, "mean_good_s": 60, "mean_bad_s": 20}
		}
	}`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := run([]string{"-config", path}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "resilience") || strings.Contains(sb.String(), "0 crashes") {
		t.Fatalf("fault config not honoured:\n%s", sb.String())
	}
}

// wallClock matches the only non-deterministic part of a digest: the
// wall-clock duration inside the "simulated" line.
var wallClock = regexp.MustCompile(`in [0-9][^)]*\)`)

// TestResilienceDigestGolden locks the full digest of a faulted,
// invariant-armed run — resilience section included — byte-for-byte
// against testdata/resilience_digest.golden. Run with -update to rewrite
// the golden file after an intentional digest change.
func TestResilienceDigestGolden(t *testing.T) {
	args := []string{
		"-scheme", "OPT", "-sensors", "15", "-sinks", "2",
		"-duration", "600", "-seed", "5", "-v",
		"-churn-mtbf", "150", "-churn-mttr", "75", "-churn-start", "50",
		"-outage-start", "100", "-outage-duration", "200", "-outage-sink", "0",
		"-kill-at", "400", "-kill-fraction", "0.2",
		"-invariants", "report",
	}
	var sb strings.Builder
	if err := run(args, &sb); err != nil {
		t.Fatal(err)
	}
	got := wallClock.ReplaceAllString(sb.String(), "in WALL)")
	golden := filepath.Join("testdata", "resilience_digest.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./cmd/dftsim -run Golden -update` to create it)", err)
	}
	if got != string(want) {
		t.Errorf("digest drifted from golden file (rerun with -update if intentional)\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestRunWithMap(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-sensors", "15", "-sinks", "2", "-duration", "120", "-map"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "final positions") {
		t.Fatalf("map header missing:\n%s", out)
	}
	if strings.Count(out, "S") < 2 {
		t.Fatalf("sinks not rendered:\n%s", out)
	}
	lines := strings.Split(out, "\n")
	gridLines := 0
	for _, l := range lines {
		if len(l) == 50 && strings.Trim(l, ".0123456789Sx+") == "" {
			gridLines++
		}
	}
	if gridLines != 20 {
		t.Fatalf("rendered %d grid lines, want 20", gridLines)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-scheme", "bogus"}, &sb); err == nil {
		t.Error("bogus scheme accepted")
	}
	if err := run([]string{"-sensors", "0", "-duration", "10"}, &sb); err == nil {
		t.Error("zero sensors accepted")
	}
	if err := run([]string{"-unknownflag"}, &sb); err == nil {
		t.Error("unknown flag accepted")
	}
}

// TestRunWithEagerDecay checks the control arm: -eager-decay must leave
// every physics line of the digest byte-identical while dropping the
// elided-event count to zero.
func TestRunWithEagerDecay(t *testing.T) {
	base := []string{"-scheme", "OPT", "-sensors", "15", "-sinks", "2",
		"-duration", "300", "-seed", "5", "-v"}
	var lazy, eager strings.Builder
	if err := run(base, &lazy); err != nil {
		t.Fatal(err)
	}
	if err := run(append(append([]string{}, base...), "-eager-decay"), &eager); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(eager.String(), " 0 elided") {
		t.Errorf("eager run still elided events:\n%s", eager.String())
	}
	if strings.Contains(lazy.String(), " 0 elided") {
		t.Errorf("lazy run elided nothing:\n%s", lazy.String())
	}
	trim := func(s string) string { return s[strings.Index(s, "generated"):] }
	if trim(lazy.String()) != trim(eager.String()) {
		t.Errorf("eager-decay perturbed the physics digest:\n%s\n---\n%s",
			lazy.String(), eager.String())
	}
}

// trimDigest cuts a -v digest to its simulated outcome: from the
// "generated" line on, wall-clock time masked, any snapshot note dropped.
func trimDigest(s string) string {
	s = s[strings.Index(s, "generated"):]
	s = wallClock.ReplaceAllString(s, "in WALL)")
	if i := strings.Index(s, "snapshot"); i >= 0 {
		s = s[:i]
	}
	return s
}

// TestRunSnapshotRestore checkpoints a run at mid-horizon, restores it in
// a second process invocation, and checks the continued run prints the
// exact digest of an uninterrupted one.
func TestRunSnapshotRestore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.snap")
	base := []string{"-scheme", "OPT", "-sensors", "15", "-sinks", "2",
		"-duration", "300", "-seed", "5", "-v"}

	var straight, snapped, restored strings.Builder
	if err := run(base, &straight); err != nil {
		t.Fatal(err)
	}
	if err := run(append(append([]string{}, base...),
		"-snapshot", path, "-snapshot-at", "150"), &snapped); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(snapped.String(), "snapshot") {
		t.Fatalf("snapshot note missing:\n%s", snapped.String())
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("snapshot file not written: %v", err)
	}
	if err := run([]string{"-restore", path, "-v"}, &restored); err != nil {
		t.Fatal(err)
	}

	if trimDigest(straight.String()) != trimDigest(snapped.String()) {
		t.Errorf("taking a snapshot perturbed the digest:\n%s\n---\n%s",
			straight.String(), snapped.String())
	}
	if trimDigest(straight.String()) != trimDigest(restored.String()) {
		t.Errorf("restored digest differs from the straight run:\n%s\n---\n%s",
			straight.String(), restored.String())
	}

	var sb strings.Builder
	if err := run([]string{"-snapshot-at", "10"}, &sb); err == nil {
		t.Error("-snapshot-at without -snapshot accepted")
	}
	cfgPath := filepath.Join(t.TempDir(), "cfg.json")
	if err := os.WriteFile(cfgPath, []byte(`{"scheme": "OPT"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-restore", path, "-config", cfgPath}, &sb); err == nil {
		t.Error("-restore with -config accepted")
	}
}

// TestRunSnapshotAfterKill checkpoints a run just after a one-shot kill
// fired: the snapshot encodes (a fired kill is a nil event reference, which
// the format must carry), and its restore continues to the straight run's
// digest.
func TestRunSnapshotAfterKill(t *testing.T) {
	path := filepath.Join(t.TempDir(), "F")
	base := []string{"-sensors", "25", "-sinks", "2", "-duration", "800",
		"-kill-at", "400", "-kill-fraction", "0.2", "-v"}

	var straight, snapped, restored strings.Builder
	if err := run(base, &straight); err != nil {
		t.Fatal(err)
	}
	if err := run(append(append([]string{}, base...),
		"-snapshot-at", "401.5", "-snapshot", path), &snapped); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-restore", path, "-v"}, &restored); err != nil {
		t.Fatal(err)
	}
	if trimDigest(straight.String()) != trimDigest(restored.String()) {
		t.Errorf("restored digest differs from the straight run:\n%s\n---\n%s",
			straight.String(), restored.String())
	}
}

// TestRunViolationAutoSnapshot arms the invariant engine against a mutated
// build with -snapshot but no -snapshot-at: the run fails invariants, and
// dftsim re-simulates a pre-violation checkpoint to the named file. A
// restore of that file must reproduce the violations (the mutation travels
// inside the snapshot's embedded config).
func TestRunViolationAutoSnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "violation.snap")
	var sb strings.Builder
	err := run([]string{"-scheme", "OPT", "-sensors", "15", "-sinks", "2",
		"-duration", "600", "-seed", "5",
		"-invariants", "report", "-inject-skip-sender-ftd",
		"-snapshot", path}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if strings.Contains(out, " 0 violations") {
		t.Fatalf("mutated run reported no violations:\n%s", out)
	}
	if !strings.Contains(out, "pre-violation") {
		t.Fatalf("auto-snapshot note missing:\n%s", out)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
		t.Fatalf("violation snapshot not written: %v", err)
	}

	var restored strings.Builder
	if err := run([]string{"-restore", path}, &restored); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(restored.String(), " 0 violations") ||
		!strings.Contains(restored.String(), "violation") {
		t.Fatalf("restored run did not reproduce the violation:\n%s", restored.String())
	}
}

// TestRunWithProfiles checks -cpuprofile and -memprofile produce non-empty
// pprof files.
func TestRunWithProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pb.gz"), filepath.Join(dir, "mem.pb.gz")
	var sb strings.Builder
	err := run([]string{"-sensors", "10", "-sinks", "1", "-duration", "200",
		"-cpuprofile", cpu, "-memprofile", mem}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() == 0 {
			t.Errorf("%s is empty", path)
		}
	}
}

// TestRunWithTelemetry drives -telemetry and -trace: the digest gains the
// telemetry lines, the trace file decodes as trace v2, and a
// telemetry-armed run prints the same physics digest as a plain one.
func TestRunWithTelemetry(t *testing.T) {
	base := []string{"-scheme", "OPT", "-sensors", "15", "-sinks", "2",
		"-duration", "300", "-seed", "5"}
	var plain strings.Builder
	if err := run(base, &plain); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	var sb strings.Builder
	args := append(append([]string{}, base...), "-telemetry", "-trace", path)
	if err := run(args, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"telemetry", "delay p50", "trace v2"} {
		if !strings.Contains(out, want) {
			t.Errorf("digest missing %q:\n%s", want, out)
		}
	}
	// Telemetry must not change the simulated physics.
	trim := func(s string) string {
		return s[strings.Index(s, "generated"):strings.Index(s, "telemetry")]
	}
	if got, want := trim(out), plain.String()[strings.Index(plain.String(), "generated"):]; got != want {
		t.Errorf("telemetry perturbed the digest:\n%s\n---\n%s", got, want)
	}
	events, err := telemetry.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("empty trace")
	}
}
