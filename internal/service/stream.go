package service

import (
	"fmt"
	"net/http"
	"strconv"

	"dftmsn/internal/scenario"
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
// Last-Event-ID header on reconnect) with no gaps and no duplicates — the
// tee keeps the whole log, and a retried attempt re-records the identical
// deterministic prefix. Idle periods carry comment heartbeats; the stream
// ends with an "event: done" terminator naming the job's terminal state.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	j := s.lookupJob(r.PathValue("id"))
	if j == nil {
		http.Error(w, "no such job", http.StatusNotFound)
		return
	}
	if j.tee == nil {
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
	s.sm.count("stream_requests")
	s.log.Info("stream attached", "job", j.id, "offset", offset)

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	buf := make([]byte, 0, 8192)
	for {
		evs, next, done := j.tee.ReadAt(offset, streamChunk)
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
			buf = telemetry.AppendSSEDone(buf[:0], j.stateNow(), j.tee.Len())
			w.Write(buf)
			flusher.Flush()
			return
		}
		if !j.tee.WaitAt(offset, r.Context().Done(), s.opts.StreamHeartbeat) {
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
