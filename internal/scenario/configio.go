package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"dftmsn/internal/core"
)

// configJSON is the JSON document of a Config: the scheme by name first,
// then Config's own tagged fields. Runtime-only fields are tagged "-".
type configJSON struct {
	Scheme string `json:"scheme"`
	*Config
}

// ParseScheme resolves a scheme by its paper name (case-insensitive).
func ParseScheme(name string) (core.Scheme, error) {
	for _, s := range core.AllSchemes() {
		if strings.EqualFold(s.String(), name) {
			return s, nil
		}
	}
	return 0, fmt.Errorf("scenario: unknown scheme %q", name)
}

// LoadConfig reads a JSON configuration. The scheme name is required. The
// document is decoded onto the paper defaults: an absent key keeps its
// default, and a present key is taken literally (an explicit zero included).
// Unknown fields are rejected to catch typos.
func LoadConfig(r io.Reader) (Config, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	// The defaults do not depend on the scheme, which is set after decoding.
	cfg := DefaultConfig(core.SchemeOPT)
	fc := configJSON{Config: &cfg}
	if err := dec.Decode(&fc); err != nil {
		return Config{}, fmt.Errorf("scenario: config: %w", err)
	}
	scheme, err := ParseScheme(fc.Scheme)
	if err != nil {
		return Config{}, err
	}
	cfg.Scheme = scheme
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// SaveConfig writes the serialisable subset of cfg as indented JSON.
func SaveConfig(w io.Writer, cfg Config) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(configJSON{Scheme: cfg.Scheme.String(), Config: &cfg})
}

// EncodeConfig returns the canonical JSON of the serialisable subset of cfg
// — what a snapshot embeds to make itself self-describing.
func EncodeConfig(cfg Config) ([]byte, error) {
	var buf bytes.Buffer
	if err := SaveConfig(&buf, cfg); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeConfig parses a configuration produced by EncodeConfig. Runtime-only
// attachments (recorders, cancellation and progress probes) are not part
// of the encoding; reattach them after decoding.
func DecodeConfig(b []byte) (Config, error) {
	return LoadConfig(bytes.NewReader(b))
}
