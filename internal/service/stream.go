package service

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"dftmsn/internal/scenario"
	"dftmsn/internal/sweep"
	"dftmsn/internal/telemetry"
)

// streamChunk bounds how many events one write batch carries; small enough
// to keep the first bytes flowing immediately, large enough to amortize the
// syscall when replaying a long backlog.
const streamChunk = 512

// ProgressStatus is the wire form of GET /v1/jobs/{id}/progress: the job's
// lifecycle state plus, for "run" jobs that have started, the kernel's
// latest progress snapshot (virtual clock, horizon fraction, event rate,
// ETA). Jobs served from the cache report done with no snapshot — nothing
// was simulated.
type ProgressStatus struct {
	ID       string             `json:"id"`
	State    string             `json:"state"`
	CacheHit bool               `json:"cache_hit,omitempty"`
	Progress *scenario.Progress `json:"progress,omitempty"`
}

func (s *Server) lookupJob(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

func (s *Server) handleProgress(w http.ResponseWriter, r *http.Request) {
	j := s.lookupJob(r.PathValue("id"))
	if j == nil {
		http.Error(w, "no such job", http.StatusNotFound)
		return
	}
	j.mu.Lock()
	st := ProgressStatus{ID: j.id, State: j.state, CacheHit: j.cacheHit}
	if j.hasProgress {
		p := j.progress
		st.Progress = &p
	}
	j.mu.Unlock()
	s.respond(w, http.StatusOK, st)
}

// handleStream serves GET /v1/jobs/{id}/stream: the job's trace as
// Server-Sent Events, every message id carrying the event's stream offset.
// The stream replays from any offset (?offset= or the standard
// Last-Event-ID header on reconnect) with no gaps and no duplicates. While
// the job is queued or running it is read from the job's tee, and a
// retried attempt re-records the identical deterministic prefix. Once the
// job has finished its tee is gone, and the request re-runs the job's
// config into a tee of its own (rerun). Idle periods carry comment
// heartbeats; the stream ends with an "event: done" terminator naming the
// job's terminal state and event count.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	j := s.lookupJob(r.PathValue("id"))
	if j == nil {
		http.Error(w, "no such job", http.StatusNotFound)
		return
	}
	if !j.req.Stream {
		http.Error(w, `job has no live stream (submit with "stream": true)`, http.StatusNotFound)
		return
	}
	offset, err := streamOffset(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	j.mu.Lock()
	tee, n, recorded := j.tee, j.events, j.recorded
	j.mu.Unlock()
	replay := tee == nil
	if replay {
		if !recorded {
			// A journal from before event counts were journaled.
			http.Error(w, "job's stream length was not recorded", http.StatusNotFound)
			return
		}
		cfg, err := scenario.DecodeConfig(j.req.Config)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		// Re-run only as far as the request can need: a client already
		// at the end gets just the terminator.
		need := n
		if offset >= n {
			need = 0
		}
		tee = s.tees.open()
		ctx, cancel := context.WithCancel(r.Context())
		finished := make(chan struct{})
		go func() {
			defer close(finished)
			s.rerun(ctx, j, cfg, tee, need)
		}()
		defer func() {
			cancel()
			<-finished
		}()
		s.sm.count("stream_replays")
	}
	s.sm.count("stream_requests")
	s.log.Info("stream attached", "job", j.id, "offset", offset, "replay", replay)

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	buf := make([]byte, 0, 8192)
	for {
		evs, next, done := tee.ReadAt(offset, streamChunk)
		if len(evs) > 0 {
			buf = buf[:0]
			for i, ev := range evs {
				buf = telemetry.AppendSSE(buf, offset+uint64(i), ev)
			}
			if _, err := w.Write(buf); err != nil {
				return
			}
			flusher.Flush()
			offset = next
			continue
		}
		if done {
			if !replay {
				n = tee.Len()
			}
			buf = telemetry.AppendSSEDone(buf[:0], j.stateNow(), n)
			w.Write(buf)
			flusher.Flush()
			return
		}
		if !tee.WaitAt(offset, r.Context().Done(), s.opts.StreamHeartbeat) {
			select {
			case <-r.Context().Done():
				s.log.Info("stream client gone", "job", j.id, "offset", offset)
				return
			default:
			}
			if _, err := w.Write(telemetry.AppendSSEHeartbeat(buf[:0])); err != nil {
				return
			}
			flusher.Flush()
		}
	}
}

// rerun re-simulates a finished streamed job into tee for one /stream
// request. A run is a pure function of its config, so the first n events
// the re-run records are the job's stream event for event, whether the
// job ran to its horizon or was cut short by a deadline; the re-run stops
// there, or when ctx ends, and closes tee. Like the job, it holds one slot
// of the core budget while it simulates.
func (s *Server) rerun(ctx context.Context, j *job, cfg scenario.Config, tee *telemetry.StreamTee, n uint64) {
	defer s.tees.close(tee)
	if n == 0 {
		return
	}
	s.budget.Acquire()
	defer s.budget.Release()
	rec := &cappedRecorder{tee: tee, left: n}
	cfg.Recorder = rec
	cfg.Cancel = func() bool { return rec.left == 0 || ctx.Err() != nil }
	err := sweep.Guard(func() error {
		sm, err := scenario.New(cfg)
		if err != nil {
			return err
		}
		_, err = sm.Run()
		return err
	})
	if rec.left != 0 && ctx.Err() == nil {
		s.log.Error("stream re-run ended short", "job", j.id, "events", n-rec.left, "want", n, "error", fmt.Sprint(err))
	}
}

// cappedRecorder forwards the first left events of a re-run to its tee and
// drops the rest; the re-run's cancel probe stops the run once left is 0.
// Record and the probe both run on the simulation goroutine.
type cappedRecorder struct {
	tee  *telemetry.StreamTee
	left uint64
}

func (c *cappedRecorder) Record(ev telemetry.Event) {
	if c.left > 0 {
		c.tee.Record(ev)
		c.left--
	}
}

// dropTee ends a streamed job's tee once execute is done with it: the job
// keeps only the event count, and a later /stream request re-runs the job
// instead. The tee is dropped before it is closed, so a reader that Close
// wakes already finds the job without one; readers still holding it read
// to its end. Close follows the terminal transition, so the done
// terminator always reads the settled state.
func (s *Server) dropTee(j *job) {
	j.mu.Lock()
	tee := j.tee
	if tee != nil {
		j.tee = nil
		j.events, j.recorded = tee.Len(), true
	}
	j.mu.Unlock()
	if tee != nil {
		s.tees.close(tee)
	}
}

// teeSet tracks the stream tees the server holds — queued and running
// streamed jobs' and in-progress re-runs' — for the stream_tee_events
// gauge, which reads 0 on an idle server.
type teeSet struct {
	mu   sync.Mutex
	held map[*telemetry.StreamTee]struct{}
}

// open returns a new tee counted by the set until close.
func (ts *teeSet) open() *telemetry.StreamTee {
	t := telemetry.NewStreamTee()
	ts.mu.Lock()
	if ts.held == nil {
		ts.held = make(map[*telemetry.StreamTee]struct{})
	}
	ts.held[t] = struct{}{}
	ts.mu.Unlock()
	return t
}

// close closes t and stops counting it.
func (ts *teeSet) close(t *telemetry.StreamTee) {
	ts.mu.Lock()
	delete(ts.held, t)
	ts.mu.Unlock()
	t.Close()
}

// events sums the events held in the set's tees.
func (ts *teeSet) events() uint64 {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	var n uint64
	for t := range ts.held {
		n += t.Len()
	}
	return n
}

// streamOffset resolves the client's resume point: an explicit ?offset=
// (the next offset wanted) wins; otherwise the SSE-standard Last-Event-ID
// header (the last id received, so resume at +1); otherwise 0.
func streamOffset(r *http.Request) (uint64, error) {
	if q := r.URL.Query().Get("offset"); q != "" {
		off, err := strconv.ParseUint(q, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("service: bad offset %q", q)
		}
		return off, nil
	}
	if h := r.Header.Get("Last-Event-ID"); h != "" {
		last, err := strconv.ParseUint(h, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("service: bad Last-Event-ID %q", h)
		}
		return last + 1, nil
	}
	return 0, nil
}
