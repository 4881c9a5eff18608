package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"os"

	"dftmsn/internal/packet"
)

// Format names the on-disk trace-v2 encodings.
type Format string

// The supported encodings.
const (
	FormatJSONL  Format = "jsonl"
	FormatBinary Format = "binary"
)

// ParseFormat resolves a -trace-format flag value.
func ParseFormat(s string) (Format, error) {
	switch Format(s) {
	case FormatJSONL, FormatBinary:
		return Format(s), nil
	default:
		return "", fmt.Errorf("telemetry: unknown trace format %q (want jsonl or binary)", s)
	}
}

// FileWriter is the interface shared by the file-backed recorders.
type FileWriter interface {
	Recorder
	Events() uint64
	Flush() error
}

// NewWriter returns a recorder emitting the given encoding into w.
func NewWriter(w io.Writer, format Format, maxEvents uint64) (FileWriter, error) {
	switch format {
	case FormatJSONL:
		return NewJSONL(w, maxEvents), nil
	case FormatBinary:
		return NewBinary(w, maxEvents), nil
	default:
		return nil, fmt.Errorf("telemetry: unknown trace format %q", format)
	}
}

// DetectFormat sniffs the encoding of a trace-v2 stream without consuming
// it. An error means the stream is neither encoding.
func DetectFormat(r *bufio.Reader) (Format, error) {
	head, err := r.Peek(4)
	if err != nil && len(head) == 0 {
		return "", fmt.Errorf("telemetry: detect format: %w", err)
	}
	if string(head) == binaryMagic {
		return FormatBinary, nil
	}
	if len(head) > 0 && head[0] == '{' {
		return FormatJSONL, nil
	}
	return "", fmt.Errorf("telemetry: not a trace-v2 stream (leading bytes %q)", head)
}

// ReadAll decodes a whole trace-v2 stream, auto-detecting the encoding.
func ReadAll(r io.Reader) ([]Event, error) {
	br := bufio.NewReader(r)
	format, err := DetectFormat(br)
	if err != nil {
		return nil, err
	}
	switch format {
	case FormatBinary:
		return readBinary(br)
	default:
		return readJSONL(br)
	}
}

// ReadFile decodes a trace-v2 file, auto-detecting the encoding.
func ReadFile(path string) ([]Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadAll(f)
}

func nodeID(v int32) packet.NodeID        { return packet.NodeID(v) }
func messageID(v uint64) packet.MessageID { return packet.MessageID(v) }
