package telemetry

import (
	"reflect"
	"testing"
	"time"

	"dftmsn/internal/packet"
)

func streamEvents(n int) []Event {
	out := make([]Event, n)
	for i := range out {
		out[i] = Event{Time: float64(i) / 4, Node: 1, Type: EvGen, Msg: packet.MessageID(i + 1)}
	}
	return out
}

// TestStreamTeeReadAtResume pins the no-gaps/no-duplicates contract: paging
// through the log with ReadAt from any offset — including re-reading from 0
// after a simulated disconnect — reconstructs the exact event sequence.
func TestStreamTeeReadAtResume(t *testing.T) {
	tee := NewStreamTee()
	evs := streamEvents(100)
	for _, ev := range evs {
		tee.Record(ev)
	}
	tee.Close()

	// Page through with a small limit.
	var got []Event
	off := uint64(0)
	for {
		page, next, done := tee.ReadAt(off, 7)
		if next < off || next-off != uint64(len(page)) {
			t.Fatalf("ReadAt(%d): next %d for %d events", off, next, len(page))
		}
		got = append(got, page...)
		off = next
		if done {
			break
		}
	}
	if !reflect.DeepEqual(got, evs) {
		t.Fatalf("paged read differs from recorded events")
	}

	// Replay from 0 (reconnect) is identical; resume mid-stream has no
	// duplicates.
	replay, _, done := tee.ReadAt(0, 0)
	if !done || !reflect.DeepEqual(replay, evs) {
		t.Fatalf("replay from 0 differs (done=%v)", done)
	}
	tail, next, done := tee.ReadAt(42, 0)
	if !done || next != 100 || !reflect.DeepEqual(tail, evs[42:]) {
		t.Fatalf("resume from 42 differs (next=%d done=%v)", next, done)
	}

	// Reading past the end of a closed stream reports done immediately.
	if evs, _, done := tee.ReadAt(1000, 0); len(evs) != 0 || !done {
		t.Fatalf("read past end: %d events, done=%v", len(evs), done)
	}
}

// TestStreamTeeWaitAt checks the blocking read path used by the SSE
// handler: WaitAt wakes on new data, on Close, and times out while idle.
func TestStreamTeeWaitAt(t *testing.T) {
	tee := NewStreamTee()
	if tee.WaitAt(0, nil, 10*time.Millisecond) {
		t.Fatal("WaitAt on an idle stream must time out")
	}
	go func() {
		time.Sleep(5 * time.Millisecond)
		tee.Record(Event{Type: EvGen, Msg: 1})
	}()
	if !tee.WaitAt(0, nil, time.Second) {
		t.Fatal("WaitAt must wake on a new event")
	}
	// Data already present: no blocking.
	if !tee.WaitAt(0, nil, 0) {
		t.Fatal("WaitAt with data available must return immediately")
	}
	go func() {
		time.Sleep(5 * time.Millisecond)
		tee.Close()
	}()
	if !tee.WaitAt(1, nil, time.Second) {
		t.Fatal("WaitAt must wake on Close")
	}
	stop := make(chan struct{})
	close(stop)
	tee2 := NewStreamTee()
	if tee2.WaitAt(0, stop, time.Second) {
		t.Fatal("WaitAt must honour stop")
	}
}

// TestStreamTeeReset checks the retry path: Reset truncates and reopens the
// log so a deterministic re-run rebuilds the identical stream.
func TestStreamTeeReset(t *testing.T) {
	tee := NewStreamTee()
	evs := streamEvents(10)
	for _, ev := range evs[:7] {
		tee.Record(ev)
	}
	tee.Reset()
	if _, _, done := tee.ReadAt(0, 0); tee.Len() != 0 || done {
		t.Fatalf("after Reset: len=%d done=%v", tee.Len(), done)
	}
	for _, ev := range evs {
		tee.Record(ev)
	}
	tee.Close()
	got, _, done := tee.ReadAt(0, 0)
	if !done || !reflect.DeepEqual(got, evs) {
		t.Fatal("post-Reset stream differs from the re-recorded sequence")
	}
}
