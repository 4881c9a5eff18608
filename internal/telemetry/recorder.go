package telemetry

// Recorder receives typed simulation events. Implementations must not
// panic; tracing never aborts a run. Recorders used by a single simulation
// are called from one goroutine (the kernel's); the file-backed recorders
// are additionally safe for concurrent use so parallel sweep runs may share
// one for coarse debugging.
type Recorder interface {
	Record(ev Event)
}

// Nop discards all events. It is the default recorder everywhere; the
// Record call is allocation-free (guarded by a benchmark and an allocation
// test), so untraced runs pay nothing for the telemetry layer.
type Nop struct{}

var _ Recorder = Nop{}

// Record implements Recorder by doing nothing.
func (Nop) Record(Event) {}

// Multi fans every event out to several recorders in order.
type Multi []Recorder

var _ Recorder = Multi(nil)

// Record implements Recorder.
func (m Multi) Record(ev Event) {
	for _, r := range m {
		r.Record(ev)
	}
}

// Combine composes recorders, skipping nils: none yields Nop, one is
// returned unwrapped, several become a Multi.
func Combine(recs ...Recorder) Recorder {
	out := make(Multi, 0, len(recs))
	for _, r := range recs {
		if r != nil {
			out = append(out, r)
		}
	}
	switch len(out) {
	case 0:
		return Nop{}
	case 1:
		return out[0]
	default:
		return out
	}
}

// Buffer collects events in memory — for tests and tools that post-process
// a single short run.
type Buffer struct {
	Events []Event
}

var _ Recorder = (*Buffer)(nil)

// Record implements Recorder.
func (b *Buffer) Record(ev Event) { b.Events = append(b.Events, ev) }
