package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"dftmsn/internal/sim"
)

// span is one timed call from the benchmark into a layer. Spans of one job
// share the job's root span as their parent.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Key    string `json:"key,omitempty"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	epoch time.Time
	next  atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// id reserves a span id, so that children can name a parent whose span is
// recorded only when it ends.
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	return t.next.Add(1)
}

func (t *tracer) record(id, parent int64, name, key string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Key: key,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))})
	t.mu.Unlock()
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// kernelLabels are the event labels the kernel ledger reports; "unlabeled"
// stands for events scheduled without a label (MAC timers, traffic, node
// start). Events under any other label count only towards reconciliation.
var kernelLabels = []string{"frame-end", "radio-on", "radio-off", "wheel", "idle-span", "unlabeled"}

const otherLabel = 6

func labelIndex(label string) int {
	switch label {
	case "frame-end":
		return 0
	case "radio-on":
		return 1
	case "radio-off":
		return 2
	case "wheel":
		return 3
	case "idle-span":
		return 4
	case "":
		return 5
	}
	return otherLabel
}

// ledger attributes Sim.Run time to event labels from a post-event hook:
// the time between two hook calls is the later event's self time (its
// dispatch, its callback and one hook call).
type ledger struct {
	epoch  time.Time
	last   time.Duration
	selfNs [otherLabel + 1]int64
	fired  [otherLabel + 1]uint64
}

func newLedger() *ledger { return &ledger{epoch: time.Now()} }

// arm installs the hook on a freshly built run and starts the clock; call
// it right before Sim.Run.
func (l *ledger) arm(s *sim.Scheduler) {
	s.SetEventHook(l.hook)
	l.last = time.Since(l.epoch)
}

func (l *ledger) hook(_ sim.Time, _ uint64, label string) {
	now := time.Since(l.epoch)
	i := labelIndex(label)
	l.selfNs[i] += int64(now - l.last)
	l.fired[i]++
	l.last = now
}

func (l *ledger) total() (ns int64) {
	for _, x := range l.selfNs {
		ns += x
	}
	return ns
}

// hookCost measures the benchmark hook's own cost per call, so that per-
// label self times can be reported net of it.
func hookCost() time.Duration {
	const n = 200_000
	l := newLedger()
	l.last = time.Since(l.epoch)
	start := time.Now()
	for i := 0; i < n; i++ {
		l.hook(0, 0, "wheel")
	}
	return time.Since(start) / n
}
