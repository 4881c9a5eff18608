package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"dftmsn/internal/scenario"
	"dftmsn/internal/service"
)

const (
	// serveRate is the open-loop arrival rate (requests per second). On
	// the reference machine (2 vCPU Xeon) 8/s keeps the default worker
	// pool 17-23% busy and the p90 latency steady, while 25-30/s
	// saturates both vCPUs; service.worker_busy_share in the traced run
	// reports the share actually reached.
	serveRate = 8.0
	// Request mix: repeats answered from the cache, unique runs polled
	// to completion, and unique runs read over SSE. With these shares
	// p50 falls inside the plain runs and p90 inside the streamed ones.
	repeatShare = 0.25
	streamShare = 0.20
	mixBlock    = 20
	// serveWarmup is how many unique runs the warm-up phase journals;
	// repeats re-ask for them after the restart replayed the journal. It
	// is a whole block, every catalog combination once, so that set-up
	// does the same spread of work for every workload seed.
	serveWarmup = smallCombos
	// pollEvery is the status-poll interval of a plain run.
	pollEvery = 4 * time.Millisecond
	// drainGrace bounds the service's shutdown drain.
	drainGrace = 10 * time.Second
)

type reqKind int

const (
	kindRepeat reqKind = iota
	kindPlain
	kindStream
)

type serveReq struct {
	at   time.Duration // scheduled send, from the start of the timed phase
	j    job
	kind reqKind
}

// servePlan derives the warm-up set and the open-loop schedule from the
// workload seed: serveRate x seconds arrivals spread uniformly at random
// over the run (a Poisson process conditioned on its count), with the
// request kinds dealt in shuffled blocks so each run has the same mix.
// Unique runs are dealt the same way: each block of smallCombos unique
// requests covers every catalog combination once, with one run seed per
// block, so every workload seed asks for the same spread of job sizes.
func servePlan(seed uint64, seconds float64, warmN int) ([]job, []serveReq, error) {
	cat := smallCatalog()
	rng := rand.New(rand.NewPCG(seed, 0x5e7e))
	// The warm-up set is the first warmN runs of the last replica, the same
	// for every workload seed; the timed phase draws from the others.
	warmFrom := (smallReplicas - 1) * smallCombos
	warm := cat[warmFrom : warmFrom+warmN]
	replicas := rng.Perm(smallReplicas - 1)
	// unique is the i-th unique run of block b.
	unique := func(b, i int) job {
		combos := rand.New(rand.NewPCG(seed, uint64(b))).Perm(smallCombos)
		return cat[replicas[b]*smallCombos+combos[i]]
	}
	n := max(1, int(serveRate*seconds+0.5))
	at := make([]float64, n)
	for i := range at {
		at[i] = rng.Float64() * seconds
	}
	sort.Float64s(at)
	var block []reqKind
	for i := 0; i < mixBlock; i++ {
		switch {
		case i < mixBlock*repeatShare:
			block = append(block, kindRepeat)
		case i < mixBlock*(1-streamShare):
			block = append(block, kindPlain)
		default:
			block = append(block, kindStream)
		}
	}
	next := 0
	reqs := make([]serveReq, n)
	for i := range reqs {
		if i%mixBlock == 0 {
			rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		}
		r := serveReq{at: time.Duration(at[i] * float64(time.Second)), kind: block[i%mixBlock]}
		if r.kind == kindRepeat {
			r.j = warm[rng.IntN(len(warm))]
		} else {
			if next >= (smallReplicas-1)*smallCombos {
				return nil, nil, fmt.Errorf("perfbench: serve-mix catalog of %d runs exhausted; shorten --seconds", len(cat))
			}
			r.j = unique(next/smallCombos, next%smallCombos)
			next++
		}
		reqs[i] = r
	}
	return warm, reqs, nil
}

// liveServer is a service behind a loopback listener.
type liveServer struct {
	svc     *service.Server
	http    *http.Server
	served  chan error
	base    string
	journal string
}

func startServer(journal string) (*liveServer, time.Duration, error) {
	t0 := time.Now()
	svc, err := service.New(service.Options{JournalPath: journal})
	if err != nil {
		return nil, 0, err
	}
	replay := time.Since(t0)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Shutdown(0)
		return nil, 0, err
	}
	svc.Start()
	ls := &liveServer{svc: svc, http: &http.Server{Handler: svc.Handler()}, served: make(chan error, 1),
		base: "http://" + ln.Addr().String(), journal: journal}
	go func() { ls.served <- ls.http.Serve(ln) }()
	return ls, replay, nil
}

// stop closes the listener, waits for open requests and the serve loop,
// then drains the service.
func (ls *liveServer) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), drainGrace)
	defer cancel()
	if err := ls.http.Shutdown(ctx); err != nil {
		ls.http.Close()
	}
	<-ls.served
	ls.svc.Shutdown(drainGrace)
}

// client is the load generator's single HTTP client: at most nproc
// connections, and SSE readers limited so one connection stays free for
// submissions and polls.
type client struct {
	hc   *http.Client
	base string
	sse  chan struct{}
	tr   *tracer // spans of traced requests; nil records nothing
}

func newClient(base string, tr *tracer) *client {
	n := runtime.NumCPU()
	t := &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n, DisableCompression: true}
	return &client{hc: &http.Client{Transport: t}, base: base, sse: make(chan struct{}, max(1, n-1)), tr: tr}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// submit POSTs a run request.
func (c *client) submit(j job, stream bool) (int, service.JobStatus, error) {
	body, _ := json.Marshal(service.Request{Kind: "run", Stream: stream, Config: j.config})
	resp, err := c.hc.Post(c.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, service.JobStatus{}, err
	}
	defer resp.Body.Close()
	var st service.JobStatus
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			return resp.StatusCode, st, err
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp.StatusCode, st, nil
}

func (c *client) status(id string) (service.JobStatus, error) {
	var st service.JobStatus
	resp, err := c.hc.Get(c.base + "/v1/jobs/" + id)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return st, fmt.Errorf("status %s: HTTP %d", id, resp.StatusCode)
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	return st, err
}

func terminal(state string) bool {
	switch state {
	case "done", "cancelled", "quarantined", "interrupted":
		return true
	}
	return false
}

// poll waits for a job to reach a terminal state.
func (c *client) poll(id string, tr *tracer, parent int64) (service.JobStatus, error) {
	for {
		t0 := time.Now()
		st, err := c.status(id)
		tr.record(tr.id(), parent, "poll", id, t0, time.Now())
		if err != nil || terminal(st.State) {
			return st, err
		}
		time.Sleep(pollEvery)
	}
}

// stream reads a job's SSE stream up to its done terminator and returns
// the number of events and bytes read before it, and the terminal state.
func (c *client) stream(id string) (events, size int, state string, err error) {
	resp, err := c.hc.Get(c.base + "/v1/jobs/" + id + "/stream")
	if err != nil {
		return 0, 0, "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, 0, "", fmt.Errorf("stream %s: HTTP %d", id, resp.StatusCode)
	}
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	done := false
	for {
		line, err := br.ReadSlice('\n')
		if err != nil {
			if errors.Is(err, io.EOF) {
				err = fmt.Errorf("stream %s: ended before the done terminator", id)
			}
			return events, size, "", err
		}
		switch {
		case done && bytes.HasPrefix(line, []byte("data:")):
			var d struct {
				State string `json:"state"`
			}
			if err := json.Unmarshal(bytes.TrimSpace(line[len("data:"):]), &d); err != nil {
				return events, size, "", fmt.Errorf("stream %s: done terminator: %w", id, err)
			}
			return events, size, d.State, nil
		case bytes.HasPrefix(line, []byte("event: done")):
			done = true
		case bytes.HasPrefix(line, []byte("data:")):
			events++
			size += len(line)
		default:
			size += len(line)
		}
	}
}

func (c *client) ready() bool {
	resp, err := c.hc.Get(c.base + "/readyz")
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// outcome is one request's result as the client saw it.
type outcome struct {
	kind         reqKind
	ok           bool
	refused      bool
	latency      time.Duration // scheduled send to terminal state seen
	late         time.Duration // how late the generator sent it
	submit       time.Duration // POST round trip
	streamDone   time.Duration // SSE open to done terminator
	events, size int
	traced       bool
	payload      json.RawMessage
}

func compact(b []byte) []byte {
	var out bytes.Buffer
	if json.Compact(&out, b) != nil {
		return nil
	}
	return out.Bytes()
}

// serveSession is one set-up service plus what the checks need.
type serveSession struct {
	dir    string
	ls     *liveServer
	first  map[string][]byte // warm-up answers, compacted, by job key
	replay time.Duration
}

func (s *serveSession) close() {
	if s.ls != nil {
		s.ls.stop()
	}
	os.RemoveAll(s.dir)
}

// setupServe runs the warm-up phase on a first service instance (its
// journal records the warm-up runs), then restarts the service on that
// journal and waits for /readyz.
func setupServe(warm []job, exp expectations, rep *report) (*serveSession, error) {
	dir, err := os.MkdirTemp(workDir, "serve-")
	if err != nil {
		return nil, err
	}
	sess := &serveSession{dir: dir}
	journal := filepath.Join(dir, "journal.jsonl")
	if sess.first, err = warmup(journal, warm, exp, rep); err != nil {
		sess.close()
		return nil, err
	}
	if sess.ls, sess.replay, err = startServer(journal); err != nil {
		sess.close()
		return nil, err
	}
	c := newClient(sess.ls.base, nil)
	defer c.close()
	for !c.ready() {
		time.Sleep(time.Millisecond)
	}
	return sess, nil
}

// warmup runs the warm-up jobs on a service journaling to journal, checks
// them, and returns their answers (compacted) by job key.
func warmup(journal string, warm []job, exp expectations, rep *report) (map[string][]byte, error) {
	ls, _, err := startServer(journal)
	if err != nil {
		return nil, err
	}
	defer ls.stop()
	c := newClient(ls.base, nil)
	defer c.close()
	ids := make([]string, len(warm))
	for i, j := range warm {
		code, st, err := c.submit(j, false)
		if err == nil && code != http.StatusAccepted {
			err = fmt.Errorf("perfbench: warm-up submit of %s: HTTP %d", j.key, code)
		}
		if err != nil {
			return nil, err
		}
		ids[i] = st.ID
	}
	first := map[string][]byte{}
	for i, j := range warm {
		st, err := c.poll(ids[i], nil, 0)
		if err != nil {
			return nil, err
		}
		rep.attempt(st.State == "done" && exp.verifyPayload(j.key, st.Result))
		first[j.key] = compact(st.Result)
	}
	return first, nil
}

// do runs one request of the schedule.
func (c *client) do(r serveReq, due time.Time, exp expectations, first map[string][]byte, traced bool) outcome {
	o := outcome{kind: r.kind, late: time.Since(due), traced: traced}
	tr := c.tr
	if !traced {
		tr = nil
	}
	root := tr.id()
	t0 := time.Now()
	code, st, err := c.submit(r.j, r.kind == kindStream)
	o.submit = time.Since(t0)
	tr.record(tr.id(), root, "submit", r.j.key, t0, time.Now())
	defer func() { tr.record(root, 0, "request", r.j.key, due, time.Now()) }()
	if err != nil {
		return o
	}
	if code != http.StatusOK && code != http.StatusAccepted {
		o.refused = true
		o.latency = time.Since(due)
		return o
	}
	switch r.kind {
	case kindRepeat:
		o.latency = time.Since(due)
		o.ok = code == http.StatusOK && st.CacheHit && st.State == "done" &&
			bytes.Equal(compact(st.Result), first[r.j.key]) && exp.verifyPayload(r.j.key, st.Result)
		return o
	case kindStream:
		c.sse <- struct{}{}
		s0 := time.Now()
		o.events, o.size, st.State, err = c.stream(st.ID)
		o.streamDone = time.Since(s0)
		o.latency = time.Since(due)
		<-c.sse
		tr.record(tr.id(), root, "sse", r.j.key, s0, time.Now())
		if err != nil || st.State != "done" {
			return o
		}
		st, err = c.status(st.ID)
	default:
		st, err = c.poll(st.ID, tr, root)
		o.latency = time.Since(due)
	}
	o.ok = err == nil && st.State == "done" && exp.verifyPayload(r.j.key, st.Result)
	o.payload = st.Result
	return o
}

// runServe measures serve-mix: set-up (warm-up phase, restart, journal
// replay, ready) runs setupRepeats times, and setup_s is the median of their
// process CPU seconds; then a separate load-generator
// process replays the open-loop schedule against the last set-up service.
// The generator runs as its own process so that its goroutines do not wait
// behind the service's CPU-bound workers for the Go scheduler; cpu_s,
// alloc_mb_per_job and peak_rss_mb are the service process's own.
func runServe(o runOptions, exp expectations, rep *report) error {
	warm, _, err := servePlan(o.seed, o.seconds, warmupSize(o.short))
	if err != nil {
		return err
	}
	var setups, replays []float64
	var sess *serveSession
	for i := 0; i < o.setupRepeats(); i++ {
		if sess != nil {
			sess.close()
		}
		c0 := cpuSeconds()
		sess, err = setupServe(warm, exp, rep)
		if err != nil {
			return err
		}
		setups = append(setups, cpuSeconds()-c0)
		replays = append(replays, ms(sess.replay))
	}
	defer sess.close()
	rep.e2e("setup_s", median(setups))
	rep.note("setup_cpu_s", setups)
	firstPath := filepath.Join(sess.dir, "first.json")
	if err := writeJSON(firstPath, sess.first); err != nil {
		return err
	}

	var heap *heapSampler
	if o.trace {
		heap = startHeapSampler()
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	args := []string{"--load-gen", sess.ls.base, "--first", firstPath,
		"--seed", strconv.FormatUint(o.seed, 10), "--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"--trace", strconv.Itoa(boolInt(o.trace)), "--short=" + strconv.FormatBool(o.short), "--spans", o.spanPath}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	rt0, c0 := readRuntime(), cpuSeconds()
	out, err := cmd.Output()
	cpu := cpuSeconds() - c0
	rt1 := readRuntime()
	if err != nil {
		return fmt.Errorf("perfbench: load generator: %w", err)
	}
	var lr loadReport
	if err := json.Unmarshal(out, &lr); err != nil {
		return fmt.Errorf("perfbench: load generator output: %w", err)
	}
	rep.attempted += lr.Attempted
	rep.failed += lr.Failed
	rep.samples = lr.Samples
	for k, v := range lr.Layer {
		rep.layer(k, v)
	}
	rep.e2e("cpu_s", cpu)
	rep.e2e("peak_rss_mb", peakRSSMB())
	rep.e2e("alloc_mb_per_job", (rt1.allocBytes-rt0.allocBytes)/float64(lr.Samples)/(1<<20))
	if !o.trace {
		return nil
	}
	c := newClient(sess.ls.base, nil)
	defer c.close()
	prom, err := scrape(c, sess.ls.base+"/metrics")
	if err != nil {
		return err
	}
	rep.layer("service.replay_ms", median(replays))
	rep.layer("service.queue_wait_ms_p50", 1000*prom.histQuantile("dftserve_queue_wait_seconds", 0.5))
	rep.layer("service.queue_wait_ms_p90", 1000*prom.histQuantile("dftserve_queue_wait_seconds", 0.9))
	rep.layer("service.run_ms_p50", 1000*prom.histQuantile("dftserve_job_run_seconds", 0.5))
	rep.layer("service.cache_hit_share", ratio(prom.value("dftserve_cache_served_total"), prom.value("dftserve_jobs_submitted_total")))
	rep.layer("service.worker_busy_share", prom.value("dftserve_job_run_seconds_sum")/(float64(runtime.GOMAXPROCS(0))*lr.Layer["wall_s"]))
	if fi, err := os.Stat(sess.ls.journal); err == nil {
		rep.layer("service.journal_bytes", float64(fi.Size()))
	}
	rep.layer("go.gc_cycles", rt1.gcCycles-rt0.gcCycles)
	rep.layer("go.gc_cpu_share", ratio(rt1.gcCPU-rt0.gcCPU, rt1.busyCPU-rt0.busyCPU))
	rep.layer("go.heap_peak_mb", heap.Stop())
	rep.note("spans", o.spanPath)
	rep.note("trace_overhead", "median latency of traced vs untraced plain runs")
	return nil
}

func warmupSize(short bool) int {
	if short {
		return 4
	}
	return serveWarmup
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// loadReport is what the load generator hands back on its standard output.
type loadReport struct {
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Samples   int                `json:"samples"`
	Layer     map[string]float64 `json:"layer"`
}

// loadGen is the load-generator process: it replays the seed's open-loop
// schedule against base, checks every answer, and prints a loadReport.
func loadGen(base, firstPath string, o runOptions, exp expectations) (loadReport, error) {
	_, reqs, err := servePlan(o.seed, o.seconds, warmupSize(o.short))
	if err != nil {
		return loadReport{}, err
	}
	first := map[string][]byte{}
	b, err := os.ReadFile(firstPath)
	if err != nil {
		return loadReport{}, err
	}
	if err := json.Unmarshal(b, &first); err != nil {
		return loadReport{}, err
	}
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	c := newClient(base, tr)
	defer c.close()

	outs := make([]outcome, len(reqs))
	var wg sync.WaitGroup
	start := time.Now().Add(20 * time.Millisecond)
	for i, r := range reqs {
		due := start.Add(r.at)
		time.Sleep(time.Until(due))
		wg.Add(1)
		go func(i int, r serveReq, due time.Time) {
			defer wg.Done()
			outs[i] = c.do(r, due, exp, first, o.trace && i%2 == 0)
		}(i, r, due)
	}
	wg.Wait()

	rep := newReport()
	var lastDone time.Time
	var lat, late []float64
	for i, out := range outs {
		rep.attempt(out.ok && !out.refused)
		lat = append(lat, ms(out.latency))
		late = append(late, ms(out.late))
		if end := start.Add(reqs[i].at).Add(out.latency); end.After(lastDone) {
			lastDone = end
		}
	}
	rep.layer("wall_s", lastDone.Sub(start.Add(reqs[0].at)).Seconds())
	rep.layer("job_p50_ms", quantile(lat, 0.5))
	rep.layer("job_p90_ms", quantile(lat, 0.9))
	lr := loadReport{Attempted: rep.attempted, Failed: rep.failed, Samples: len(lat), Layer: rep.layerVals}
	if !o.trace {
		return lr, nil
	}

	var submitMs, hitMs, streamMs, tracedPlain, untracedPlain []float64
	var sseEvents, sseBytes float64
	var streams, rejected int
	var counts layerCounts
	for _, out := range outs {
		if out.refused {
			rejected++
		}
		switch out.kind {
		case kindRepeat:
			hitMs = append(hitMs, ms(out.submit))
		case kindStream:
			submitMs = append(submitMs, ms(out.submit))
			streamMs = append(streamMs, ms(out.streamDone))
			sseEvents += float64(out.events)
			sseBytes += float64(out.size)
			streams++
		case kindPlain:
			submitMs = append(submitMs, ms(out.submit))
			if out.traced {
				tracedPlain = append(tracedPlain, ms(out.latency))
			} else {
				untracedPlain = append(untracedPlain, ms(out.latency))
			}
		}
		if out.kind != kindRepeat && len(out.payload) > 0 {
			var res scenario.Result
			if json.Unmarshal(out.payload, &res) == nil {
				counts.add(&res)
			}
		}
	}
	rep.layer("service.submit_ms_p50", quantile(submitMs, 0.5))
	rep.layer("service.submit_ms_p90", quantile(submitMs, 0.9))
	rep.layer("service.hit_ms_p50", quantile(hitMs, 0.5))
	rep.layer("service.rejected", float64(rejected))
	rep.layer("telemetry.sse_events", ratio(sseEvents, float64(streams)))
	rep.layer("telemetry.sse_bytes", ratio(sseBytes, float64(streams)))
	rep.layer("telemetry.stream_done_ms", quantile(streamMs, 0.5))
	rep.layer("loadgen.late_p90_ms", quantile(late, 0.9))
	rep.layer("trace.overhead_share", median(tracedPlain)/median(untracedPlain)-1)
	counts.report(rep)
	return lr, tr.write(o.spanPath)
}

// promText is a parsed Prometheus text exposition: unlabelled samples by
// name, and histogram buckets by family.
type promText struct {
	values  map[string]float64
	buckets map[string][][2]float64 // family -> (le, cumulative count)
}

func scrape(c *client, url string) (promText, error) {
	p := promText{values: map[string]float64{}, buckets: map[string][][2]float64{}}
	resp, err := c.hc.Get(url)
	if err != nil {
		return p, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			continue
		}
		if fam, le, ok := strings.Cut(name, `_bucket{le="`); ok {
			le = strings.TrimSuffix(le, `"}`)
			bound, err := strconv.ParseFloat(le, 64)
			if le == "+Inf" {
				bound, err = math.Inf(1), nil
			}
			if err == nil {
				p.buckets[fam] = append(p.buckets[fam], [2]float64{bound, v})
			}
			continue
		}
		if !strings.Contains(name, "{") {
			p.values[name] = v
		}
	}
	return p, sc.Err()
}

func (p promText) value(name string) float64 { return p.values[name] }

// histQuantile interpolates the q-quantile linearly inside the bucket that
// holds it, as Prometheus' histogram_quantile does.
func (p promText) histQuantile(fam string, q float64) float64 {
	bs := p.buckets[fam]
	if len(bs) == 0 || bs[len(bs)-1][1] == 0 {
		return 0
	}
	rank := q * bs[len(bs)-1][1]
	lo, below := 0.0, 0.0
	for _, b := range bs {
		if b[1] >= rank {
			if math.IsInf(b[0], 1) {
				return lo
			}
			if b[1] == below {
				return b[0]
			}
			return lo + (b[0]-lo)*(rank-below)/(b[1]-below)
		}
		lo, below = b[0], b[1]
	}
	return lo
}
