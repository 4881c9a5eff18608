package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"sync"

	"dftmsn/internal/packet"
)

// jsonlHeader is the first line of a JSONL trace-v2 file.
type jsonlHeader struct {
	Schema int    `json:"schema"`
	Format string `json:"format"`
}

const jsonlFormatName = "dftmsn-trace"

// JSONLWriter emits trace-v2 events as one JSON object per line, preceded
// by a schema header line. JSONL is the only trace-v2 file encoding, and
// the SSE stream carries the same lines (AppendJSON). Fields that are zero and carry no information
// for the event type are omitted. It is safe for concurrent use.
//
// The first write error is captured and surfaced by Flush; tracing never
// aborts a run.
type JSONLWriter struct {
	mu     sync.Mutex
	w      *bufio.Writer
	buf    []byte
	n      uint64
	err    error
	header bool
}

var _ Recorder = (*JSONLWriter)(nil)

// NewJSONL wraps w. Call Flush before closing w.
func NewJSONL(w io.Writer) *JSONLWriter {
	return &JSONLWriter{w: bufio.NewWriter(w), buf: make([]byte, 0, 256)}
}

// Record implements Recorder.
func (t *JSONLWriter) Record(ev Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.header {
		t.header = true
		t.write([]byte(fmt.Sprintf("{\"schema\":%d,\"format\":%q}\n", SchemaVersion, jsonlFormatName)))
	}
	t.n++
	b := AppendJSON(t.buf[:0], ev)
	b = append(b, '\n')
	t.buf = b
	t.write(b)
}

// AppendJSON appends the canonical single-line JSON encoding of ev to dst
// and returns the extended slice (no trailing newline). This is the exact
// line format JSONLWriter emits after its header; the SSE stream framing
// reuses it so live and at-rest encodings stay byte-identical.
func AppendJSON(dst []byte, ev Event) []byte {
	b := dst
	b = append(b, `{"t":`...)
	b = strconv.AppendFloat(b, ev.Time, 'f', 6, 64)
	b = append(b, `,"node":`...)
	b = strconv.AppendInt(b, int64(ev.Node), 10)
	b = append(b, `,"ev":"`...)
	b = append(b, ev.Type.String()...)
	b = append(b, '"')
	if ev.Msg != 0 {
		b = append(b, `,"msg":`...)
		b = strconv.AppendUint(b, uint64(ev.Msg), 10)
	}
	if ev.Type.hasPeer() {
		b = append(b, `,"peer":`...)
		b = strconv.AppendInt(b, int64(ev.Peer), 10)
	}
	if ev.FTD != 0 {
		b = append(b, `,"ftd":`...)
		b = strconv.AppendFloat(b, ev.FTD, 'g', -1, 64)
	}
	if ev.Value != 0 {
		b = append(b, `,"val":`...)
		b = strconv.AppendFloat(b, ev.Value, 'g', -1, 64)
	}
	if ev.Count != 0 {
		b = append(b, `,"n":`...)
		b = strconv.AppendInt(b, int64(ev.Count), 10)
	}
	if ev.Aux != 0 {
		b = append(b, `,"aux":`...)
		b = strconv.AppendInt(b, int64(ev.Aux), 10)
	}
	if ev.Kept {
		b = append(b, `,"kept":true`...)
	}
	return append(b, '}')
}

// write appends to the buffered writer, capturing the first error.
func (t *JSONLWriter) write(b []byte) {
	if t.err != nil {
		return
	}
	if _, err := t.w.Write(b); err != nil {
		t.err = err
	}
}

// Events returns the number of events written.
func (t *JSONLWriter) Events() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

// Flush drains buffered output and returns the first error encountered by
// any write since construction.
func (t *JSONLWriter) Flush() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.w.Flush(); t.err == nil && err != nil {
		t.err = err
	}
	return t.err
}

// jsonEvent mirrors the wire object for decoding.
type jsonEvent struct {
	T    float64 `json:"t"`
	Node int32   `json:"node"`
	Ev   string  `json:"ev"`
	Msg  uint64  `json:"msg"`
	Peer int32   `json:"peer"`
	FTD  float64 `json:"ftd"`
	Val  float64 `json:"val"`
	N    int32   `json:"n"`
	Aux  int32   `json:"aux"`
	Kept bool    `json:"kept"`
}

// ReadAll decodes a whole JSONL trace-v2 stream. A stream that does not
// open with the trace-v2 header line is rejected.
func ReadAll(r io.Reader) ([]Event, error) {
	br := bufio.NewReader(r)
	if head, _ := br.Peek(4); len(head) > 0 && head[0] != '{' {
		return nil, fmt.Errorf("telemetry: not a JSONL trace-v2 stream (leading bytes %q)", head)
	}
	sc := bufio.NewScanner(br)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("telemetry: %w", err)
		}
		return nil, fmt.Errorf("telemetry: empty trace file")
	}
	var hdr jsonlHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		return nil, fmt.Errorf("telemetry: header: %w", err)
	}
	if hdr.Format != jsonlFormatName {
		return nil, fmt.Errorf("telemetry: unknown format %q", hdr.Format)
	}
	if hdr.Schema > SchemaVersion {
		return nil, fmt.Errorf("telemetry: schema %d newer than supported %d", hdr.Schema, SchemaVersion)
	}
	var out []Event
	lineNo := 1
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		ev, err := ParseJSONEvent(line)
		if err != nil {
			return nil, fmt.Errorf("telemetry: line %d: %w", lineNo, err)
		}
		out = append(out, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("telemetry: %w", err)
	}
	return out, nil
}

// ReadFile decodes a JSONL trace-v2 file.
func ReadFile(path string) ([]Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadAll(f)
}

// ParseJSONEvent decodes one JSONL event line (the format AppendJSON
// emits). It is the inverse used by both trace-file readers and the SSE
// stream decoder.
func ParseJSONEvent(line []byte) (Event, error) {
	var je jsonEvent
	if err := json.Unmarshal(line, &je); err != nil {
		return Event{}, err
	}
	typ, ok := ParseEventType(je.Ev)
	if !ok {
		return Event{}, fmt.Errorf("unknown event %q", je.Ev)
	}
	return Event{
		Time:  je.T,
		Node:  packet.NodeID(je.Node),
		Type:  typ,
		Msg:   packet.MessageID(je.Msg),
		Peer:  packet.NodeID(je.Peer),
		FTD:   je.FTD,
		Value: je.Val,
		Count: je.N,
		Aux:   je.Aux,
		Kept:  je.Kept,
	}, nil
}
