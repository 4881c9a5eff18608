package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"
)

// Job states as journaled. queued/running/interrupted are resumable: a
// journal whose last word on a job is one of them re-enqueues the job on
// restart. done/cancelled/quarantined are terminal.
const (
	stateQueued      = "queued"
	stateRunning     = "running"
	stateInterrupted = "interrupted" // shutdown or crash cut it short; will resume
	stateDone        = "done"
	stateCancelled   = "cancelled" // deadline expired; partial result reported
	stateQuarantined = "quarantined"
)

// terminalState reports whether a journaled state ends a job's life.
func terminalState(s string) bool {
	return s == stateDone || s == stateCancelled || s == stateQuarantined
}

// journalEntry is one fsync'd line of the job journal: a state transition,
// carrying the submission on "queued", the result payload on "done", and a
// streamed job's event count on its terminal state.
type journalEntry struct {
	Job     string          `json:"job"`
	State   string          `json:"state"`
	Kind    string          `json:"kind,omitempty"`
	Tenant  string          `json:"tenant,omitempty"`
	Key     string          `json:"key,omitempty"`
	Attempt int             `json:"attempt,omitempty"`
	Error   string          `json:"error,omitempty"`
	Cached  bool            `json:"cached,omitempty"`
	Request *Request        `json:"request,omitempty"`
	Payload json.RawMessage `json:"payload,omitempty"`
	Events  *uint64         `json:"events,omitempty"`
}

// journal is the crash-safe write-ahead log of job state transitions:
// append-only JSONL, fsync'd per record, so the set of acknowledged
// transitions survives kill -9. A nil-file journal (no path configured)
// accepts appends and discards them.
type journal struct {
	mu sync.Mutex
	f  *os.File
}

// openJournal opens (or creates) the journal for appending. validEnd is
// the replay's end of intact records: anything past it is the torn tail of
// a write a crash interrupted, and it is cut off (and the cut fsync'd)
// before the first append, so new records never share a line with it.
func openJournal(path string, validEnd int64) (*journal, error) {
	if path == "" {
		return &journal{}, nil
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("service: journal: %w", err)
	}
	fi, err := f.Stat()
	if err == nil && fi.Size() > validEnd {
		if err = f.Truncate(validEnd); err == nil {
			err = f.Sync()
		}
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("service: journal: %w", err)
	}
	return &journal{f: f}, nil
}

// append writes one entry and forces it to stable storage before
// returning, so a transition the server acted on is never lost to a crash.
func (j *journal) append(e journalEntry) error {
	if j.f == nil {
		return nil
	}
	b, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("service: journal: %w", err)
	}
	b = append(b, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.f.Write(b); err != nil {
		return fmt.Errorf("service: journal: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("service: journal: %w", err)
	}
	return nil
}

func (j *journal) close() error {
	if j.f == nil {
		return nil
	}
	return j.f.Close()
}

// replayedJob is one job reconstructed from the journal: its submission,
// its last journaled state, and its payload when terminal.
type replayedJob struct {
	ID      string
	Request Request
	Kind    string
	Tenant  string
	Key     string
	State   string
	Error   string
	Cached  bool
	Payload json.RawMessage
	Events  *uint64
}

// replayJournal reads a journal and folds it into per-job final states, in
// first-submission order, and returns the byte offset just past the last
// intact record. Only newline-terminated lines are records. A trailing
// line that is unterminated or malformed — the crash arriving mid-write —
// is tolerated and ignored; any earlier malformed line is corruption and
// an error. A missing file yields an empty replay.
func replayJournal(path string) (jobs []replayedJob, validEnd int64, err error) {
	if path == "" {
		return nil, 0, nil
	}
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, fmt.Errorf("service: journal: %w", err)
	}
	defer f.Close()

	byID := make(map[string]*replayedJob)
	var order []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<26)
	sc.Split(scanRecords)
	var pendingErr error
	var offset int64
	line := 0
	for sc.Scan() {
		line++
		if pendingErr != nil {
			// The malformed line was not the last one: real corruption.
			return nil, 0, pendingErr
		}
		rec := sc.Bytes()
		offset += int64(len(rec))
		if rec[len(rec)-1] != '\n' {
			// Unterminated, hence the last line: a torn write.
			break
		}
		var e journalEntry
		if err := json.Unmarshal(rec, &e); err != nil {
			pendingErr = fmt.Errorf("service: journal %s line %d: %w", path, line, err)
			continue
		}
		validEnd = offset
		j := byID[e.Job]
		if j == nil {
			j = &replayedJob{ID: e.Job}
			byID[e.Job] = j
			order = append(order, e.Job)
		}
		j.State = e.State
		if e.Kind != "" {
			j.Kind = e.Kind
		}
		if e.Tenant != "" {
			j.Tenant = e.Tenant
		}
		if e.Key != "" {
			j.Key = e.Key
		}
		if e.Request != nil {
			j.Request = *e.Request
		}
		if e.Error != "" {
			j.Error = e.Error
		}
		if e.Cached {
			j.Cached = true
		}
		if len(e.Payload) != 0 {
			j.Payload = append(json.RawMessage(nil), e.Payload...)
		}
		if e.Events != nil {
			j.Events = e.Events
		}
	}
	if err := sc.Err(); err != nil {
		return nil, 0, fmt.Errorf("service: journal %s: %w", path, err)
	}
	jobs = make([]replayedJob, 0, len(order))
	for _, id := range order {
		jobs = append(jobs, *byID[id])
	}
	return jobs, validEnd, nil
}

// scanRecords is a bufio.SplitFunc like bufio.ScanLines, except that each
// token keeps its newline, so the caller can tell a complete record from
// an unterminated tail and count exact byte offsets.
func scanRecords(data []byte, atEOF bool) (int, []byte, error) {
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		return i + 1, data[:i+1], nil
	}
	if atEOF && len(data) > 0 {
		return len(data), data, nil
	}
	return 0, nil, nil
}
