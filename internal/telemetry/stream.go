package telemetry

import (
	"sync"
	"time"
)

// teeBlock is the StreamTee block size in events (256 KiB of Event on
// amd64): large enough that the block table stays short for a paper-length
// run, small enough that a short run's last partial block wastes little.
const teeBlock = 4096

// StreamTee is a Recorder that makes a running simulation's event stream
// tailable without perturbing the run. It keeps an in-memory log that
// readers page through by offset (ReadAt/WaitAt — the service's /stream
// endpoint replays any suffix from any offset, so reconnects see no gaps
// and no duplicates).
//
// The log is a list of fixed-size blocks. A block, once allocated, is only
// ever appended to up to its capacity and never moved or overwritten, so
// ReadAt hands out views of it instead of copies, and growing the log
// never copies what is already recorded.
//
// Record never blocks on a reader and never returns an error: the
// simulation goroutine only takes a short mutex, so the virtual-time
// execution — and therefore the Results and telemetry bytes — are
// bit-identical to an unobserved run.
type StreamTee struct {
	mu     sync.Mutex
	blocks [][]Event // each of capacity teeBlock; all full but the last
	n      uint64
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
	if t.n%teeBlock == 0 {
		t.blocks = append(t.blocks, make([]Event, 0, teeBlock))
	}
	last := len(t.blocks) - 1
	t.blocks[last] = append(t.blocks[last], ev)
	t.n++
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
// seamlessly. The re-recording goes into new blocks: a view a reader still
// holds keeps the events it was handed.
func (t *StreamTee) Reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.blocks = nil
	t.n = 0
	t.closed = false
}

// Len returns the number of events currently retained in the log.
func (t *StreamTee) Len() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

// ReadAt returns up to limit events starting at offset. With limit > 0 the
// result is a read-only view into one block of the log — it stops at the
// block's end, so a read may return fewer than limit events even when more
// are recorded; the caller must not modify it. limit <= 0 returns every
// recorded event from offset on (copied when it spans blocks). next is
// the offset one past the last returned event — pass it back to resume
// with no gaps and no duplicates. done reports that the stream is closed
// and offset is at or past the end.
func (t *StreamTee) ReadAt(offset uint64, limit int) (evs []Event, next uint64, done bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if offset >= t.n {
		return nil, offset, t.closed
	}
	b := offset / teeBlock
	if limit <= 0 && b < uint64(len(t.blocks))-1 {
		evs = make([]Event, 0, t.n-offset)
		evs = append(evs, t.blocks[b][offset%teeBlock:]...)
		for _, blk := range t.blocks[b+1:] {
			evs = append(evs, blk...)
		}
		return evs, t.n, t.closed
	}
	blk := t.blocks[b]
	i := offset % teeBlock
	end := uint64(len(blk))
	if limit > 0 && i+uint64(limit) < end {
		end = i + uint64(limit)
	}
	next = offset + (end - i)
	return blk[i:end:end], next, t.closed && next == t.n
}

// WaitAt blocks until the log holds events at or past offset, the stream
// closes, stop closes, or timeout elapses. It reports whether the caller
// should read immediately (new data or closure); false means the timeout
// or stop fired first — the /stream handler uses that to emit a heartbeat.
func (t *StreamTee) WaitAt(offset uint64, stop <-chan struct{}, timeout time.Duration) bool {
	t.mu.Lock()
	if t.n > offset || t.closed {
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
