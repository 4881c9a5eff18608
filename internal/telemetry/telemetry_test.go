package telemetry

import (
	"bytes"
	"errors"
	"io"
	"math"
	"strings"
	"testing"
)

func sampleEvents() []Event {
	return []Event{
		{Time: 0.5, Node: 4, Type: EvGen, Msg: 1},
		{Time: 0.6, Node: 5, Type: EvGenDrop, Msg: 2},
		{Time: 1.25, Node: 4, Type: EvCTS, Peer: 9, Value: 0.75},
		{Time: 1.5, Node: 4, Type: EvTx, Msg: 1, Count: 2},
		{Time: 1.75, Node: 0, Type: EvRx, Msg: 1, Peer: 4, FTD: 0.5, Kept: true},
		{Time: 1.75, Node: 9, Type: EvRx, Msg: 1, Peer: 4, FTD: 0.25, Kept: false},
		{Time: 1.8, Node: 0, Type: EvAck, Msg: 1, Peer: 4},
		{Time: 1.9, Node: 4, Type: EvFTDUpdate, Msg: 1, Value: 0.5, FTD: 0.875, Kept: true},
		{Time: 2.0, Node: 4, Type: EvTxOutcome, Msg: 1, Count: 2, Aux: 1},
		{Time: 2.5, Node: 0, Type: EvDeliver, Msg: 1, Value: 2.0, Count: 1},
		{Time: 3.0, Node: 4, Type: EvDrop, Msg: 1, FTD: 0.97, Aux: DropThreshold},
		{Time: 4.0, Node: 7, Type: EvSleep, Value: 12.5},
		{Time: 16.5, Node: 7, Type: EvWake},
		{Time: 20.0, Node: 8, Type: EvCrash, Count: 3},
		{Time: 25.0, Node: 8, Type: EvReboot},
		{Time: 30.0, Node: 6, Type: EvKill},
		{Time: 40.0, Node: 3, Type: EvDied, Value: 100.0},
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	events := sampleEvents()
	var buf bytes.Buffer
	w := NewJSONL(&buf)
	for _, ev := range events {
		w.Record(ev)
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if got := w.Events(); got != uint64(len(events)) {
		t.Fatalf("Events() = %d, want %d", got, len(events))
	}
	if !strings.HasPrefix(buf.String(), `{"schema":2,"format":"dftmsn-trace"}`) {
		t.Fatalf("missing header, got %q", buf.String()[:40])
	}
	got, err := ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if len(got) != len(events) {
		t.Fatalf("read %d events, want %d", len(got), len(events))
	}
	for i := range events {
		if got[i] != events[i] {
			t.Errorf("event %d: got %+v, want %+v", i, got[i], events[i])
		}
	}
}

func TestReadAllRejectsOtherEncodings(t *testing.T) {
	for name, in := range map[string]string{
		"binary": "DFTB\x02\x00\x00\x00",
		"tsv":    "0.5\t3\tgen\tmsg=1\n",
	} {
		_, err := ReadAll(strings.NewReader(in))
		if err == nil || !strings.Contains(err.Error(), "not a JSONL trace-v2 stream") {
			t.Errorf("%s: ReadAll = %v, want a not-JSONL error", name, err)
		}
	}
}

func TestReaderRejectsNewerSchema(t *testing.T) {
	in := `{"schema":99,"format":"dftmsn-trace"}` + "\n"
	if _, err := ReadAll(strings.NewReader(in)); err == nil {
		t.Fatal("want error for newer schema")
	}
}

// failWriter fails every write after the first n bytes.
type failWriter struct{ budget int }

var errSink = errors.New("disk full")

func (f *failWriter) Write(p []byte) (int, error) {
	if f.budget <= 0 {
		return 0, errSink
	}
	f.budget -= len(p)
	return len(p), nil
}

func TestWriterFlushSurfacesWriteError(t *testing.T) {
	w := NewJSONL(&failWriter{budget: 8})
	for i := 0; i < 4096; i++ { // enough to overflow bufio's buffer
		w.Record(Event{Time: float64(i), Type: EvGen, Msg: 1})
	}
	if err := w.Flush(); !errors.Is(err, errSink) {
		t.Errorf("Flush = %v, want %v", err, errSink)
	}
}

func TestParseEventTypeRoundTrip(t *testing.T) {
	for _, typ := range EventTypes() {
		got, ok := ParseEventType(typ.String())
		if !ok || got != typ {
			t.Errorf("ParseEventType(%q) = %v, %v", typ.String(), got, ok)
		}
	}
	if _, ok := ParseEventType("bogus"); ok {
		t.Error("ParseEventType accepted bogus name")
	}
	if _, ok := ParseEventType("none"); ok {
		t.Error("ParseEventType accepted the zero value name")
	}
}

func TestCombine(t *testing.T) {
	if _, ok := Combine().(Nop); !ok {
		t.Error("Combine() should be Nop")
	}
	b := &Buffer{}
	if got := Combine(nil, b, nil); got != Recorder(b) {
		t.Errorf("Combine with one non-nil should unwrap, got %T", got)
	}
	b2 := &Buffer{}
	m := Combine(b, b2)
	m.Record(Event{Type: EvGen, Msg: 7})
	if len(b.Events) != 1 || len(b2.Events) != 1 {
		t.Errorf("Multi fan-out: got %d, %d events", len(b.Events), len(b2.Events))
	}
}

// TestNopZeroAlloc is the acceptance criterion: the telemetry-off path
// allocates nothing per event.
func TestNopZeroAlloc(t *testing.T) {
	var rec Recorder = Nop{}
	ev := Event{Time: 1.5, Node: 3, Type: EvRx, Msg: 42, Peer: 7, FTD: 0.5, Kept: true}
	allocs := testing.AllocsPerRun(1000, func() {
		rec.Record(ev)
	})
	if allocs != 0 {
		t.Fatalf("Nop.Record allocates %v per event, want 0", allocs)
	}
}

func BenchmarkNopRecord(b *testing.B) {
	var rec Recorder = Nop{}
	ev := Event{Time: 1.5, Node: 3, Type: EvRx, Msg: 42, Peer: 7, FTD: 0.5, Kept: true}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rec.Record(ev)
	}
}

func BenchmarkJSONLRecord(b *testing.B) {
	w := NewJSONL(io.Discard)
	ev := Event{Time: 1.5, Node: 3, Type: EvRx, Msg: 42, Peer: 7, FTD: 0.5, Kept: true}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w.Record(ev)
	}
}

func TestQuantileNaNIgnored(t *testing.T) {
	h := newHistogram("x", LinearBuckets(1, 1, 4))
	h.Observe(math.NaN())
	if h.Count() != 0 {
		t.Fatalf("NaN counted: %d", h.Count())
	}
}
