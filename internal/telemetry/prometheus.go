package telemetry

import (
	"math"
	"strconv"
)

// Prometheus text exposition (format version 0.0.4) rendering for the
// metrics registry. The registry's histograms store per-bucket counts with
// inclusive upper bounds; the exposition format wants cumulative
// "le"-labelled buckets, so the renderer cumulates on the way out.

// PromLabel is one label pair on a sample.
type PromLabel struct{ Name, Value string }

// promName sanitizes a metric name to the Prometheus charset
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func promName(name string) string {
	ok := true
	for i := 0; i < len(name); i++ {
		c := name[i]
		if c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9' && i > 0) {
			continue
		}
		ok = false
		break
	}
	if ok && len(name) > 0 {
		return name
	}
	b := []byte(name)
	for i, c := range b {
		valid := c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9' && i > 0)
		if !valid {
			b[i] = '_'
		}
	}
	if len(b) == 0 {
		return "_"
	}
	return string(b)
}

// appendPromValue formats v the way Prometheus expects: integral values
// without an exponent, +Inf/-Inf/NaN spelled out.
func appendPromValue(dst []byte, v float64) []byte {
	switch {
	case math.IsInf(v, 1):
		return append(dst, "+Inf"...)
	case math.IsInf(v, -1):
		return append(dst, "-Inf"...)
	case math.IsNaN(v):
		return append(dst, "NaN"...)
	}
	return strconv.AppendFloat(dst, v, 'g', -1, 64)
}

// AppendPromType appends a "# TYPE name kind" header line.
func AppendPromType(dst []byte, name, kind string) []byte {
	dst = append(dst, "# TYPE "...)
	dst = append(dst, promName(name)...)
	dst = append(dst, ' ')
	dst = append(dst, kind...)
	return append(dst, '\n')
}

// AppendPromSample appends one sample line: name{labels} value.
func AppendPromSample(dst []byte, name string, labels []PromLabel, v float64) []byte {
	dst = append(dst, promName(name)...)
	if len(labels) > 0 {
		dst = append(dst, '{')
		for i, l := range labels {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, promName(l.Name)...)
			dst = append(dst, '=')
			dst = strconv.AppendQuote(dst, l.Value)
		}
		dst = append(dst, '}')
	}
	dst = append(dst, ' ')
	dst = appendPromValue(dst, v)
	return append(dst, '\n')
}

// AppendPromHistogram appends a full histogram family: cumulative
// "le"-labelled buckets (ending in +Inf), then _sum and _count. The TYPE
// header is the caller's job (AppendPromType once per family).
func AppendPromHistogram(dst []byte, name string, labels []PromLabel, h *Histogram) []byte {
	var cum uint64
	bucketLabels := make([]PromLabel, len(labels)+1)
	copy(bucketLabels, labels)
	for _, b := range h.Buckets() {
		cum += b.Count
		le := "+Inf"
		if !math.IsInf(b.Upper, 1) {
			le = strconv.FormatFloat(b.Upper, 'g', -1, 64)
		}
		bucketLabels[len(labels)] = PromLabel{Name: "le", Value: le}
		dst = AppendPromSample(dst, name+"_bucket", bucketLabels, float64(cum))
	}
	dst = AppendPromSample(dst, name+"_sum", labels, h.Sum())
	return AppendPromSample(dst, name+"_count", labels, float64(h.Count()))
}
