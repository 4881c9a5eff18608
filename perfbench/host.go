package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuSeconds is the process's user+sys CPU time so far (every goroutine:
// simulation, GC, HTTP server and client). On a paravirtualised kernel
// with steal accounting this excludes time the hypervisor took away.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB reads VmHWM, the process's peak resident set, in MB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// resetPeakRSS restarts VmHWM from the current resident set, so that one
// process running several workloads (the self-test) reports each one's own
// peak. Kernels without clear_refs keep the process-wide peak.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// stealSample is one reading of the aggregate cpu line of /proc/stat.
type stealSample struct{ steal, total uint64 }

func readSteal() stealSample {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return stealSample{}
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return stealSample{}
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return stealSample{}
	}
	var s stealSample
	for i, v := range fields[1:] {
		n, _ := strconv.ParseUint(v, 10, 64)
		if i < 8 { // user..steal; guest time is already inside user
			s.total += n
		}
		if i == 7 {
			s.steal = n
		}
	}
	return s
}

// stealShare is the host-wide share of CPU time the hypervisor stole
// between two samples (0 when /proc/stat is unavailable).
func stealShare(a, b stealSample) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// rtSample holds the Go runtime counters the benchmark reports.
type rtSample struct {
	allocBytes float64 // cumulative heap bytes allocated
	gcCycles   float64
	gcCPU      float64 // cumulative GC CPU seconds
	busyCPU    float64 // cumulative non-idle CPU seconds the runtime saw
	heapBytes  float64 // live + unswept heap objects right now
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/memory/classes/heap/objects:bytes",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return rtSample{
		allocBytes: v(0),
		gcCycles:   v(1),
		gcCPU:      v(2),
		busyCPU:    v(3) - v(4),
		heapBytes:  v(5),
	}
}

// heapSampler tracks the peak Go heap while it runs, sampling every few
// milliseconds; stop returns the peak in MB and waits for the sampler.
type heapSampler struct {
	stop chan struct{}
	done chan float64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan float64, 1)}
	go func() {
		peak := readRuntime().heapBytes
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				h.done <- max(peak, readRuntime().heapBytes) / (1 << 20)
				return
			case <-t.C:
				peak = max(peak, readRuntime().heapBytes)
			}
		}
	}()
	return h
}

func (h *heapSampler) Stop() float64 {
	close(h.stop)
	return <-h.done
}

// provenance names the machine and build every number came from.
type provenance struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOARCH     string `json:"goarch"`
	GoVersion  string `json:"go_version"`
	// Commit is the VCS revision the binary was built from, when the
	// build saw a repository; SourceSHA256 always identifies the code by
	// hashing the module's Go sources in the working directory.
	Commit       string  `json:"commit"`
	SourceSHA256 string  `json:"source_sha256"`
	StealShare   float64 `json:"host_steal_share"`
}

func newProvenance() provenance {
	p := provenance{
		CPUModel:     cpuModel(),
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GOARCH:       runtime.GOARCH,
		GoVersion:    runtime.Version(),
		Commit:       "unknown",
		SourceSHA256: sourceHash("."),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				p.Commit = s.Value
			}
		}
	}
	return p
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceHash digests every .go file and go.mod under root (skipping hidden
// directories such as the build directory), in path order.
func sourceHash(root string) string {
	var paths []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		h.Write([]byte(p))
		h.Write([]byte{0})
		h.Write(b)
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// quantile is the linear-interpolation quantile (q in [0,1]) of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
