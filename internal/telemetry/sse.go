package telemetry

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
)

// SSE framing for live event streams.
//
// Each trace event becomes one Server-Sent-Events message whose id field
// carries the event's zero-based stream offset and whose data field is the
// canonical JSONL line (AppendJSON), so the live wire encoding is
// byte-identical to the at-rest trace file modulo framing:
//
//	id: 41
//	data: {"t":12.500000,"node":3,"ev":"tx","msg":7,"n":2}
//
// Heartbeats are comment lines (": hb\n\n") emitted while the stream is
// idle so proxies and clients can distinguish "quiet" from "dead". The
// stream ends with an explicit terminator message:
//
//	event: done
//	data: {"state":"done","events":123}
//
// A client that reconnects passes the next offset it expects (its last id
// + 1) via ?offset= or the standard Last-Event-ID header, and the server
// replays from exactly there: no gaps, no duplicates.

// SSEDoneEvent is the event name of the stream terminator message.
const SSEDoneEvent = "done"

// AppendSSE appends one SSE-framed event message to dst: the id line
// carrying offset, the data line carrying the canonical JSON encoding of
// ev, and the blank separator line.
func AppendSSE(dst []byte, offset uint64, ev Event) []byte {
	dst = append(dst, "id: "...)
	dst = strconv.AppendUint(dst, offset, 10)
	dst = append(dst, "\ndata: "...)
	dst = AppendJSON(dst, ev)
	return append(dst, '\n', '\n')
}

// AppendSSEHeartbeat appends an SSE comment heartbeat.
func AppendSSEHeartbeat(dst []byte) []byte {
	return append(dst, ':', ' ', 'h', 'b', '\n', '\n')
}

// AppendSSEDone appends the stream terminator message. state is the job's
// terminal state; events is the total stream length.
func AppendSSEDone(dst []byte, state string, events uint64) []byte {
	dst = append(dst, "event: "...)
	dst = append(dst, SSEDoneEvent...)
	dst = append(dst, "\ndata: {\"state\":"...)
	dst = strconv.AppendQuote(dst, state)
	dst = append(dst, ",\"events\":"...)
	dst = strconv.AppendUint(dst, events, 10)
	return append(dst, '}', '\n', '\n')
}

// SSEMessage is one decoded Server-Sent-Events message.
type SSEMessage struct {
	HasID bool
	ID    uint64 // stream offset from the id field (when HasID)
	Event string // event field; empty for ordinary event messages
	Data  []byte // raw data payload (JSONL event line for ordinary messages)
}

// SSEReader incrementally decodes an SSE stream as produced by AppendSSE /
// the dftserve /stream endpoint. It tolerates comment lines (heartbeats),
// unknown fields, and multi-line data (joined with \n) per the SSE spec.
type SSEReader struct {
	sc     *bufio.Scanner
	lastID uint64
	anyID  bool
}

// NewSSEReader wraps r. Lines longer than 4 MiB are an error.
func NewSSEReader(r io.Reader) *SSEReader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	return &SSEReader{sc: sc}
}

// LastID returns the most recent id field observed and whether any was.
// After a disconnect, resume from LastID()+1.
func (r *SSEReader) LastID() (uint64, bool) { return r.lastID, r.anyID }

// Next returns the next complete message. It returns io.EOF at a clean end
// of input; a message cut off mid-frame (no blank line yet) is returned as
// a final message before io.EOF, matching how a tail client should treat a
// dropped connection.
func (r *SSEReader) Next() (SSEMessage, error) {
	var msg SSEMessage
	var data [][]byte
	seen := false
	for r.sc.Scan() {
		line := r.sc.Bytes()
		if len(line) == 0 {
			if !seen {
				continue // leading blank lines between messages
			}
			return r.finish(msg, data), nil
		}
		if line[0] == ':' {
			continue // comment / heartbeat
		}
		seen = true
		field, value := splitSSEField(line)
		switch field {
		case "id":
			if id, err := strconv.ParseUint(value, 10, 64); err == nil {
				msg.HasID = true
				msg.ID = id
			}
		case "event":
			msg.Event = value
		case "data":
			data = append(data, append([]byte(nil), value...))
		}
	}
	if err := r.sc.Err(); err != nil {
		return SSEMessage{}, err
	}
	if seen {
		return r.finish(msg, data), nil
	}
	return SSEMessage{}, io.EOF
}

// finish assembles the data lines and records the message id.
func (r *SSEReader) finish(msg SSEMessage, data [][]byte) SSEMessage {
	msg.Data = bytes.Join(data, []byte{'\n'})
	if msg.HasID {
		r.lastID = msg.ID
		r.anyID = true
	}
	return msg
}

// splitSSEField splits "field: value" per the SSE spec (one optional space
// after the colon is eaten; a line without a colon is a field with an
// empty value).
func splitSSEField(line []byte) (field, value string) {
	i := bytes.IndexByte(line, ':')
	if i < 0 {
		return string(line), ""
	}
	v := line[i+1:]
	if len(v) > 0 && v[0] == ' ' {
		v = v[1:]
	}
	return string(line[:i]), string(v)
}

// DecodeSSE reads an entire SSE stream, returning the decoded trace events
// in order, the terminator's data payload (nil if the stream ended without
// one), and the first error. Events with ids are validated to be
// contiguous from the first id seen — a gap or duplicate is an error,
// which is exactly the property the resumable /stream endpoint guarantees.
func DecodeSSE(r io.Reader) (evs []Event, done []byte, err error) {
	sr := NewSSEReader(r)
	var next uint64
	haveNext := false
	for {
		msg, err := sr.Next()
		if err == io.EOF {
			return evs, done, nil
		}
		if err != nil {
			return evs, done, err
		}
		if msg.Event == SSEDoneEvent {
			done = msg.Data
			continue
		}
		if len(msg.Data) == 0 {
			continue
		}
		ev, perr := ParseJSONEvent(msg.Data)
		if perr != nil {
			return evs, done, fmt.Errorf("telemetry: sse data: %w", perr)
		}
		if msg.HasID {
			if haveNext && msg.ID != next {
				return evs, done, fmt.Errorf("telemetry: sse stream gap: id %d, want %d", msg.ID, next)
			}
			next = msg.ID + 1
			haveNext = true
		}
		evs = append(evs, ev)
	}
}
