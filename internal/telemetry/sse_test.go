package telemetry

import (
	"bytes"
	"io"
	"reflect"
	"strings"
	"testing"
)

func sseSample() []Event {
	return []Event{
		{Time: 0.25, Node: 1, Type: EvGen, Msg: 1},
		{Time: 1.5, Node: 2, Type: EvRx, Msg: 1, Peer: 1, FTD: 0.75, Kept: true},
		{Time: 2, Node: 0, Type: EvTx, Msg: 1, Count: 3},
		{Time: 3.125, Node: 4, Type: EvSleep, Value: 9.5},
		{Time: 4, Node: 2, Type: EvDeliver, Msg: 1, Value: 3.75, Count: 2},
	}
}

// TestSSERoundTrip encodes a stream with framing, heartbeats, and a
// terminator, and decodes it back to the identical events.
func TestSSERoundTrip(t *testing.T) {
	evs := sseSample()
	var wire []byte
	wire = AppendSSEHeartbeat(wire)
	for i, ev := range evs {
		wire = AppendSSE(wire, uint64(i), ev)
		if i == 2 {
			wire = AppendSSEHeartbeat(wire)
		}
	}
	wire = AppendSSEDone(wire, "done", uint64(len(evs)))

	got, done, err := DecodeSSE(bytes.NewReader(wire))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, evs) {
		t.Fatalf("round trip differs:\n got %+v\nwant %+v", got, evs)
	}
	if want := `{"state":"done","events":5}`; string(done) != want {
		t.Fatalf("done payload %q, want %q", done, want)
	}
}

// TestSSEReaderResume checks the reconnect bookkeeping: LastID tracks the
// id field so a client resumes from LastID()+1, and DecodeSSE rejects a
// stream with a gap or duplicate.
func TestSSEReaderResume(t *testing.T) {
	evs := sseSample()
	var wire []byte
	for i, ev := range evs[:3] {
		wire = AppendSSE(wire, uint64(i), ev)
	}
	r := NewSSEReader(bytes.NewReader(wire))
	for {
		if _, err := r.Next(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if id, ok := r.LastID(); !ok || id != 2 {
		t.Fatalf("LastID = %d,%v; want 2,true", id, ok)
	}

	// A gap (offset 4 after 0..2) is detected.
	bad := append([]byte(nil), wire...)
	bad = AppendSSE(bad, 4, evs[4])
	if _, _, err := DecodeSSE(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "gap") {
		t.Fatalf("gap not detected: %v", err)
	}
	// A duplicate (offset 2 again) is detected.
	dup := append([]byte(nil), wire...)
	dup = AppendSSE(dup, 2, evs[2])
	if _, _, err := DecodeSSE(bytes.NewReader(dup)); err == nil || !strings.Contains(err.Error(), "gap") {
		t.Fatalf("duplicate not detected: %v", err)
	}
}

// TestSSEDataMatchesJSONL pins that the SSE data payload is byte-identical
// to the JSONL line encoding — live and at-rest traces share one format.
func TestSSEDataMatchesJSONL(t *testing.T) {
	for _, ev := range sseSample() {
		frame := AppendSSE(nil, 7, ev)
		r := NewSSEReader(bytes.NewReader(frame))
		msg, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		if want := AppendJSON(nil, ev); !bytes.Equal(msg.Data, want) {
			t.Fatalf("sse data %q != jsonl line %q", msg.Data, want)
		}
	}
}

// TestSSEReaderTolerance checks spec-mandated leniency: unknown fields,
// comments, retry lines, and missing trailing blank lines don't break the
// decoder.
func TestSSEReaderTolerance(t *testing.T) {
	wire := ": preamble comment\n" +
		"retry: 1000\n" +
		"unknown_field: x\n" +
		"id: 0\n" +
		"data: {\"t\":1.000000,\"node\":1,\"ev\":\"gen\",\"msg\":1}\n" +
		"\n" +
		"id: 1\n" +
		"data: {\"t\":2.000000,\"node\":1,\"ev\":\"wake\"}\n" // cut off: no blank line
	evs, _, err := DecodeSSE(strings.NewReader(wire))
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 2 || evs[0].Type != EvGen || evs[1].Type != EvWake {
		t.Fatalf("decoded %+v", evs)
	}
}

// FuzzSSEDecode drives the SSE/offset-resume decoder with arbitrary bytes:
// it must never panic or loop, and any stream the encoder produced must
// round-trip exactly (seeded below and grown by mutation).
func FuzzSSEDecode(f *testing.F) {
	var seed []byte
	for i, ev := range sseSample() {
		seed = AppendSSE(seed, uint64(i), ev)
	}
	seed = AppendSSEDone(seed, "done", 5)
	f.Add(seed)
	f.Add([]byte(": hb\n\nid: not-a-number\ndata: {\n\n"))
	f.Add([]byte("id: 18446744073709551615\ndata: {\"t\":0,\"node\":0,\"ev\":\"gen\"}\n\n"))
	f.Add([]byte("data\n\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		evs, _, err := DecodeSSE(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Whatever decoded must survive re-encoding and decode with no
		// framing loss (ids reassigned contiguously, as the server always
		// frames them). Float fields are excluded — Time is encoded at
		// fixed 6-decimal precision, so adversarial inputs are lossy by
		// design — but every framing-relevant field must round-trip.
		var wire []byte
		for i, ev := range evs {
			wire = AppendSSE(wire, uint64(i), ev)
		}
		evs2, _, err := DecodeSSE(bytes.NewReader(wire))
		if err != nil {
			t.Fatalf("re-encoded stream failed to decode: %v", err)
		}
		if len(evs2) != len(evs) {
			t.Fatalf("round trip lost events: %d vs %d", len(evs), len(evs2))
		}
		for i := range evs {
			a, b := evs[i], evs2[i]
			same := a.Type == b.Type && a.Node == b.Node && a.Msg == b.Msg &&
				a.Count == b.Count && a.Aux == b.Aux && a.Kept == b.Kept
			if same && a.Type.hasPeer() {
				same = a.Peer == b.Peer
			}
			if !same {
				t.Fatalf("event %d diverged: %+v vs %+v", i, a, b)
			}
		}
	})
}
