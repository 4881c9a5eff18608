package telemetry

import (
	"sync"
	"time"
)

// StreamTee is a Recorder that makes a running simulation's event stream
// tailable without perturbing the run. It keeps an in-memory log that
// readers page through by offset (ReadAt/WaitAt — the service's /stream
// endpoint replays any suffix from any offset, so reconnects see no gaps
// and no duplicates).
//
// Record never blocks on a reader and never returns an error: the
// simulation goroutine only takes a short mutex, so the virtual-time
// execution — and therefore the Results and telemetry bytes — are
// bit-identical to an unobserved run.
type StreamTee struct {
	mu     sync.Mutex
	events []Event
	closed bool
	waitCh chan struct{}
}

var _ Recorder = (*StreamTee)(nil)

// NewStreamTee returns an open tee.
func NewStreamTee() *StreamTee { return &StreamTee{} }

// Record implements Recorder: append to the log and wake blocked readers.
func (t *StreamTee) Record(ev Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return
	}
	t.events = append(t.events, ev)
	if t.waitCh != nil {
		close(t.waitCh)
		t.waitCh = nil
	}
}

// Close marks the end of the stream: readers blocked in WaitAt wake and
// observe done. Close is idempotent. Recording after Close is a no-op.
func (t *StreamTee) Close() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return
	}
	t.closed = true
	if t.waitCh != nil {
		close(t.waitCh)
		t.waitCh = nil
	}
}

// Reset truncates the log back to zero events and reopens the stream, used
// when a failed job attempt is retried: the simulation is deterministic, so
// the retry re-records the identical event sequence and a reader holding
// offset N simply waits until the replay passes N again, then continues
// seamlessly.
func (t *StreamTee) Reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.events = t.events[:0]
	t.closed = false
}

// Len returns the number of events currently retained in the log.
func (t *StreamTee) Len() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return uint64(len(t.events))
}

// ReadAt copies up to limit events starting at offset (limit <= 0 means
// all available). next is the offset one past the last returned event —
// pass it back to resume with no gaps and no duplicates. done reports that
// the stream is closed and offset is at or past the end.
func (t *StreamTee) ReadAt(offset uint64, limit int) (evs []Event, next uint64, done bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := uint64(len(t.events))
	if offset >= n {
		return nil, offset, t.closed
	}
	end := n
	if limit > 0 && offset+uint64(limit) < end {
		end = offset + uint64(limit)
	}
	evs = make([]Event, end-offset)
	copy(evs, t.events[offset:end])
	return evs, end, t.closed && end == n
}

// WaitAt blocks until the log holds events at or past offset, the stream
// closes, stop closes, or timeout elapses. It reports whether the caller
// should read immediately (new data or closure); false means the timeout
// or stop fired first — the /stream handler uses that to emit a heartbeat.
func (t *StreamTee) WaitAt(offset uint64, stop <-chan struct{}, timeout time.Duration) bool {
	t.mu.Lock()
	if uint64(len(t.events)) > offset || t.closed {
		t.mu.Unlock()
		return true
	}
	if t.waitCh == nil {
		t.waitCh = make(chan struct{})
	}
	ch := t.waitCh
	t.mu.Unlock()

	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case <-ch:
		return true
	case <-stop:
		return false
	case <-timer.C:
		return false
	}
}
