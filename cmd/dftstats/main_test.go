package main

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"dftmsn"
	"dftmsn/internal/telemetry"
)

// makeTrace runs a small simulation with a deliberately tight queue (so
// drops occur) and writes its trace-v2 file, returning the path and the
// decoded events.
func makeTrace(t *testing.T) (string, []telemetry.Event) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := telemetry.NewJSONL(f)
	cfg := dftmsn.DefaultConfig(dftmsn.OPT)
	cfg.NumSensors = 15
	cfg.NumSinks = 2
	cfg.DurationSeconds = 900
	cfg.ArrivalMeanSeconds = 40
	cfg.QueueCapacity = 4
	cfg.Seed = 7
	cfg.Telemetry = true
	cfg.Recorder = w
	if _, err := dftmsn.Run(cfg); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := telemetry.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, events
}

// TestCustodyChains is the acceptance check: from a trace-v2 file,
// dftstats reconstructs the full custody chain of a delivered message and
// of a dropped one.
func TestCustodyChains(t *testing.T) {
	path, events := makeTrace(t)
	ledger := telemetry.BuildLedger(events)
	var delivered, dropped *telemetry.Custody
	for _, id := range ledger.IDs() {
		c := ledger.Message(id)
		switch c.Status() {
		case "delivered":
			if delivered == nil {
				delivered = c
			}
		case "dropped":
			if dropped == nil {
				dropped = c
			}
		}
	}
	if delivered == nil || dropped == nil {
		t.Fatalf("fixture run lacks a delivered (%v) or dropped (%v) message", delivered, dropped)
	}

	var sb strings.Builder
	if err := run([]string{"-msg", itoa(uint64(delivered.ID)), path}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"delivered", "gen (queued at origin)", "deliver at sink"} {
		if !strings.Contains(out, want) {
			t.Errorf("delivered chain missing %q:\n%s", want, out)
		}
	}
	// The header also says "t=..."; only indented step lines count.
	if len(delivered.Steps) < 2 || strings.Count(out, "\n  t=") != len(delivered.Steps) {
		t.Errorf("chain prints %d steps, ledger has %d:\n%s",
			strings.Count(out, "\n  t="), len(delivered.Steps), out)
	}

	sb.Reset()
	if err := run([]string{"-msg", itoa(uint64(dropped.ID)), path}, &sb); err != nil {
		t.Fatal(err)
	}
	out = sb.String()
	for _, want := range []string{"dropped", "gen (queued at origin)", "drop ("} {
		if !strings.Contains(out, want) {
			t.Errorf("dropped chain missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "deliver at sink") {
		t.Errorf("dropped chain claims delivery:\n%s", out)
	}

	// Unknown message IDs are an error, not silence.
	if err := run([]string{"-msg", "99999999", path}, &sb); err == nil {
		t.Error("unknown message accepted")
	}
}

func itoa(v uint64) string { return strconv.FormatUint(v, 10) }

// fixtureEvents is a small deterministic trace-v2 stream: one delivered
// message, one dropped message, and a sleep.
func fixtureEvents() []telemetry.Event {
	return []telemetry.Event{
		{Time: 0.5, Node: 3, Type: telemetry.EvGen, Msg: 1},
		{Time: 0.7, Node: 4, Type: telemetry.EvGen, Msg: 2},
		{Time: 1.0, Node: 3, Type: telemetry.EvTx, Msg: 1, Count: 1},
		{Time: 1.2, Node: 4, Type: telemetry.EvRx, Msg: 1, Peer: 3, FTD: 0.25, Kept: true},
		{Time: 2.0, Node: 0, Type: telemetry.EvDeliver, Msg: 1, Value: 1.5, Count: 2},
		{Time: 2.5, Node: 4, Type: telemetry.EvDrop, Msg: 2, FTD: 0.9, Aux: telemetry.DropThreshold},
		{Time: 3.0, Node: 5, Type: telemetry.EvSleep, Value: 2.0},
	}
}

// fixtureOverview is the exact overview of fixtureEvents: the event total,
// one count line per type present, and the message fates.
const fixtureOverview = `7 events over [0.500, 3.000] s
  gen          2
  tx           1
  rx           1
  drop         1
  deliver      1
  sleep        1
messages: 2 tracked, 1 delivered, 1 dropped, 0 rejected, 0 in-flight
`

// readGolden pins the overview's count and message-fate lines on a fixed
// event stream.
func readGolden(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fixture.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := telemetry.NewJSONL(f)
	for _, ev := range fixtureEvents() {
		w.Record(ev)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := run([]string{path}, &sb); err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); !strings.HasPrefix(got, fixtureOverview) {
		t.Errorf("fixture overview drifted\n--- got ---\n%s--- want prefix ---\n%s", got, fixtureOverview)
	}
}

// TestOverviewAndNodes pins the overview of a fixed event stream exactly,
// then checks the default and -nodes outputs against a simulated run's
// decoded events.
func TestOverviewAndNodes(t *testing.T) {
	t.Run("ReadGolden", readGolden)
	path, events := makeTrace(t)
	var delivers int
	for _, ev := range events {
		if ev.Type == telemetry.EvDeliver {
			delivers++
		}
	}
	var sb strings.Builder
	if err := run([]string{path}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"events over", "messages:", "delivery delay percentiles", "p50", "drops:"} {
		if !strings.Contains(out, want) {
			t.Errorf("overview missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, itoa(uint64(delivers))+" deliveries") {
		t.Errorf("overview delivery count mismatch (want %d):\n%s", delivers, out)
	}

	sb.Reset()
	if err := run([]string{"-nodes", path}, &sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) < 10 || !strings.HasPrefix(lines[0], "node") {
		t.Errorf("nodes table malformed:\n%s", sb.String())
	}
}

// TestSeriesCSV checks the -series output shape and monotonicity.
func TestSeriesCSV(t *testing.T) {
	path, _ := makeTrace(t)
	out := filepath.Join(t.TempDir(), "series.csv")
	var sb strings.Builder
	if err := run([]string{"-series", out, "-interval", "30", path}, &sb); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if lines[0] != "t,generated,delivered,dropped,delivery_ratio" {
		t.Fatalf("bad header %q", lines[0])
	}
	if len(lines) < 10 {
		t.Fatalf("only %d series rows", len(lines)-1)
	}
	prevGen := -1
	for _, line := range lines[1:] {
		fields := strings.Split(line, ",")
		if len(fields) != 5 {
			t.Fatalf("bad row %q", line)
		}
		gen := atoi(t, fields[1])
		if gen < prevGen {
			t.Fatalf("generated count not monotone: %q", line)
		}
		prevGen = gen
	}
	// -series - writes to the provided writer.
	sb.Reset()
	if err := run([]string{"-series", "-", path}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(sb.String(), "t,generated") {
		t.Fatalf("stdout series missing:\n%s", sb.String())
	}
}

func atoi(t *testing.T, s string) int {
	t.Helper()
	n := 0
	for _, c := range s {
		if c < '0' || c > '9' {
			t.Fatalf("not a number: %q", s)
		}
		n = n*10 + int(c-'0')
	}
	return n
}

// TestBadInputs covers flag and file errors.
func TestBadInputs(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{}, &sb); err == nil {
		t.Error("missing file argument accepted")
	}
	if err := run([]string{"a", "b"}, &sb); err == nil {
		t.Error("two file arguments accepted")
	}
	if err := run([]string{filepath.Join(t.TempDir(), "missing")}, &sb); err == nil {
		t.Error("missing file accepted")
	}
	empty := filepath.Join(t.TempDir(), "empty")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{empty}, &sb); err == nil {
		t.Error("empty file accepted")
	}
}
