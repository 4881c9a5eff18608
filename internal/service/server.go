package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dftmsn/internal/chaos"
	"dftmsn/internal/scenario"
	"dftmsn/internal/sim"
	"dftmsn/internal/sweep"
	"dftmsn/internal/telemetry"
)

// maxRequestBytes bounds a submission body; configs are small.
const maxRequestBytes = 4 << 20

// Options configures a Server. The zero value is usable: memory-only (no
// journal), unlimited tenants, no default deadline.
type Options struct {
	// QueueDepth bounds the admission queue (default 64). A full queue
	// rejects submissions with 429 and a Retry-After hint.
	QueueDepth int
	// Workers is the server's core budget (default GOMAXPROCS): the size
	// of the job pool and the cap on simulations in flight across every
	// run, sweep, and chaos job at once.
	Workers int
	// MaxRetries bounds re-execution of a failing job before it is
	// quarantined (default 2; retries only failures and panics, never
	// deadline cancellations).
	MaxRetries int
	// RetryBaseDelay seeds the exponential backoff between retries
	// (default 50ms; each retry doubles it and adds up to 100% jitter).
	RetryBaseDelay time.Duration
	// TenantRatePerSec and TenantBurst shape the per-tenant admission
	// token bucket (rate 0 disables quotas; burst default 8).
	TenantRatePerSec float64
	TenantBurst      int
	// DefaultDeadline applies to jobs that do not set one (0 = none);
	// MaxDeadline caps every job's deadline (0 = no cap).
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration
	// JournalPath is the crash-safe job journal ("" = memory only). On
	// start the journal is replayed: finished results warm the cache and
	// unfinished jobs are re-enqueued.
	JournalPath string
	// StateDir holds chaos-campaign state files so an interrupted
	// campaign resumes from its completed runs instead of restarting
	// ("" = campaigns run without state files).
	StateDir string
	// Logger receives structured operational logs, every line carrying
	// the job id as a correlation attribute (nil discards them).
	Logger *slog.Logger
	// ProgressEvery throttles how often a running job refreshes its
	// progress snapshot (0 = the scenario default, 1s of wall clock).
	ProgressEvery time.Duration
	// StreamHeartbeat is the idle interval between SSE comment
	// heartbeats on /stream (default 15s).
	StreamHeartbeat time.Duration
}

func (o Options) withDefaults() Options {
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.MaxRetries < 0 {
		o.MaxRetries = 0
	}
	if o.RetryBaseDelay <= 0 {
		o.RetryBaseDelay = 50 * time.Millisecond
	}
	if o.TenantBurst <= 0 {
		o.TenantBurst = 8
	}
	if o.Logger == nil {
		o.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if o.StreamHeartbeat <= 0 {
		o.StreamHeartbeat = 15 * time.Second
	}
	return o
}

// job is one unit of service work and its mutable lifecycle state.
type job struct {
	id     string
	req    Request
	cfg    scenario.Config // run/chaos jobs
	kind   string
	tenant string
	key    string

	deadline time.Duration // wall-clock budget; armed when execution starts
	enqueued time.Time     // when it entered the queue (feeds queue_wait_seconds)

	mu    sync.Mutex
	state string
	// tee is the live event stream of a job submitted with "stream":
	// true; readers page it by offset, so reconnects replay any suffix.
	// It lives while the job is queued or running and is dropped when
	// execute returns; events then keeps its final length (recorded says
	// it is known), and /stream serves the job by re-running its config.
	tee         *telemetry.StreamTee
	events      uint64
	recorded    bool
	attempts    int
	errMsg      string
	cacheHit    bool
	payload     json.RawMessage
	progress    scenario.Progress // latest kernel snapshot ("run" jobs)
	hasProgress bool
	interrupted atomic.Bool // shutdown kill fired while it ran
	started     atomic.Int64
}

func (j *job) stateNow() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

func (j *job) storeProgress(p scenario.Progress) {
	j.mu.Lock()
	j.progress = p
	j.hasProgress = true
	j.mu.Unlock()
}

// JobStatus is the wire form of a job's state.
type JobStatus struct {
	ID       string          `json:"id"`
	Kind     string          `json:"kind"`
	Tenant   string          `json:"tenant"`
	Key      string          `json:"key"`
	State    string          `json:"state"`
	Attempts int             `json:"attempts,omitempty"`
	Error    string          `json:"error,omitempty"`
	CacheHit bool            `json:"cache_hit,omitempty"`
	Result   json.RawMessage `json:"result,omitempty"`
}

func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobStatus{
		ID: j.id, Kind: j.kind, Tenant: j.tenant, Key: j.key,
		State: j.state, Attempts: j.attempts, Error: j.errMsg,
		CacheHit: j.cacheHit, Result: j.payload,
	}
}

// Server is the scenario service: admission control in front, the bounded
// worker pool behind, with the journal recording every state transition.
type Server struct {
	opts    Options
	mux     *http.ServeMux
	cache   *Cache
	limiter *tenantLimiter
	journal *journal
	budget  *sweep.CoreBudget

	queue chan *job
	depth atomic.Int64 // queued, not yet picked up

	mu     sync.Mutex
	jobs   map[string]*job
	order  []string
	nextID int

	running  atomic.Int64
	draining atomic.Bool

	sm   *serviceMetrics
	log  *slog.Logger
	tees teeSet

	killCh   chan struct{} // closed when the drain grace expires
	stopCh   chan struct{} // closed to stop the workers
	stopOnce sync.Once
	killOnce sync.Once
	wg       sync.WaitGroup
}

// New builds a Server: it replays the journal (warming the cache and
// collecting unfinished jobs), opens it for appending, and re-enqueues
// everything the last process left behind. Call Start to launch the
// workers and Handler to mount the HTTP API.
func New(opts Options) (*Server, error) {
	opts = opts.withDefaults()
	replayed, validEnd, err := replayJournal(opts.JournalPath)
	if err != nil {
		return nil, err
	}
	jnl, err := openJournal(opts.JournalPath, validEnd)
	if err != nil {
		return nil, err
	}
	s := &Server{
		opts:    opts,
		cache:   NewCache(),
		limiter: newTenantLimiter(opts.TenantRatePerSec, opts.TenantBurst),
		journal: jnl,
		budget:  sweep.NewCoreBudget(opts.Workers),
		jobs:    make(map[string]*job),
		sm:      newServiceMetrics(),
		log:     opts.Logger,
		killCh:  make(chan struct{}),
		stopCh:  make(chan struct{}),
	}

	var resumable []*job
	for _, r := range replayed {
		j := &job{
			id: r.ID, req: r.Request, kind: r.Kind, tenant: r.Tenant,
			key: r.Key, state: r.State, errMsg: r.Error, cacheHit: r.Cached,
			payload: r.Payload,
		}
		if r.Events != nil {
			j.events, j.recorded = *r.Events, true
		}
		if terminalState(r.State) {
			if r.State == stateDone && !r.Cached {
				s.cache.Put(r.Key, r.Payload)
			}
		} else {
			// The last process never finished this job; rebuild its
			// config from the journaled submission and run it again. The
			// work lost to the crash is re-derived deterministically (and
			// chaos campaigns skip their already-recorded runs via their
			// state file), so the eventual verdict is the one an
			// uninterrupted server would have reached.
			req := r.Request
			var cfg scenario.Config
			if req.Kind == "run" || req.Kind == "chaos" {
				c, err := scenario.DecodeConfig(req.Config)
				if err != nil {
					return nil, fmt.Errorf("service: journal replay of job %s: %w", r.ID, err)
				}
				cfg = c
			}
			j.cfg = cfg
			j.state = stateQueued
			j.deadline = deadlineOf(req, opts.DefaultDeadline, opts.MaxDeadline)
			if req.Stream && req.Kind == "run" {
				j.tee = s.tees.open()
			}
			resumable = append(resumable, j)
		}
		s.jobs[j.id] = j
		s.order = append(s.order, j.id)
	}
	s.nextID = len(replayed) + 1

	// Capacity covers the configured depth (with slack for the admission
	// race) plus every resumed job, so re-enqueueing can never block.
	s.queue = make(chan *job, 2*opts.QueueDepth+len(resumable))
	for _, j := range resumable {
		j.enqueued = time.Now()
		s.depth.Add(1)
		s.queue <- j
		s.sm.count("jobs_resumed")
		s.log.Info("job resumed from journal", "job", j.id, "kind", j.kind, "tenant", j.tenant)
	}
	s.buildMux()
	return s, nil
}

// Start launches the worker pool: one worker per budget slot, so run jobs
// alone exactly fill the budget without blocking on it.
func (s *Server) Start() {
	for i := 0; i < s.budget.Total(); i++ {
		s.wg.Add(1)
		go s.worker()
	}
}

// Handler returns the HTTP API.
func (s *Server) Handler() http.Handler { return s.mux }

// Shutdown drains the server: submissions are refused immediately, then
// running and queued work gets up to grace to finish. Past grace every
// running job is cancelled cooperatively at its next event boundary and
// journaled "interrupted" — chaos campaigns checkpoint through their state
// files as they go, so the next process resumes instead of restarting.
func (s *Server) Shutdown(grace time.Duration) {
	s.draining.Store(true)
	deadline := time.Now().Add(grace)
	for time.Now().Before(deadline) {
		if s.depth.Load() == 0 && s.running.Load() == 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	s.killOnce.Do(func() { close(s.killCh) })
	s.stopOnce.Do(func() { close(s.stopCh) })
	s.wg.Wait()
	s.journal.close()
}

func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.stopCh:
			return
		default:
		}
		select {
		case j := <-s.queue:
			s.depth.Add(-1)
			s.execute(j)
		case <-s.stopCh:
			return
		}
	}
}

// probe is the cooperative cancellation hook a job simulates under: the
// shutdown kill switch and the job's wall-clock deadline, whichever fires
// first. It is consulted between events only, so firing it never perturbs
// the completed prefix.
func (s *Server) probe(j *job) func() bool {
	return func() bool {
		select {
		case <-s.killCh:
			j.interrupted.Store(true)
			return true
		default:
		}
		if j.deadline > 0 {
			start := time.Unix(0, j.started.Load())
			return time.Since(start) > j.deadline
		}
		return false
	}
}

// execute runs one job to a terminal state: panic-isolated attempts with
// exponential backoff, deadline cancellation, shutdown interruption, and
// quarantine when the retry budget is spent.
func (s *Server) execute(j *job) {
	s.running.Add(1)
	defer s.running.Add(-1)
	if !j.enqueued.IsZero() {
		s.sm.observeQueueWait(time.Since(j.enqueued))
	}
	j.started.Store(time.Now().UnixNano())
	defer func() {
		s.sm.observeRun(time.Since(time.Unix(0, j.started.Load())))
		s.dropTee(j)
	}()
	for attempt := 1; ; attempt++ {
		s.transition(j, stateRunning, func(e *journalEntry) { e.Attempt = attempt })
		j.mu.Lock()
		j.attempts = attempt
		j.mu.Unlock()

		err := sweep.Guard(func() error { return s.runJob(j) })
		switch {
		case err == nil:
			s.cache.Put(j.key, j.snapshotPayload())
			s.transition(j, stateDone, func(e *journalEntry) { e.Payload = j.snapshotPayload() })
			s.sm.count("jobs_done")
			return
		case errors.Is(err, sim.ErrCancelled):
			if j.interrupted.Load() {
				// Shutdown, not deadline: the journal keeps the job
				// resumable and the next process picks it up.
				s.transition(j, stateInterrupted, func(e *journalEntry) { e.Error = err.Error() })
				s.sm.count("jobs_interrupted")
				return
			}
			s.transition(j, stateCancelled, func(e *journalEntry) {
				e.Error = err.Error()
				e.Payload = j.snapshotPayload() // the partial prefix result
			})
			s.sm.count("jobs_cancelled")
			return
		case attempt > s.opts.MaxRetries:
			s.transition(j, stateQuarantined, func(e *journalEntry) { e.Error = err.Error() })
			s.sm.count("jobs_quarantined")
			return
		}
		s.setError(j, err)
		s.sm.count("retries")
		s.log.Warn("job attempt failed, retrying", "job", j.id, "attempt", attempt, "error", err.Error())
		if !s.backoff(attempt) {
			s.transition(j, stateInterrupted, func(e *journalEntry) { e.Error = "interrupted during retry backoff" })
			s.sm.count("jobs_interrupted")
			return
		}
	}
}

// backoff sleeps the exponential retry delay with full jitter; it returns
// false when the shutdown kill switch fired instead.
func (s *Server) backoff(attempt int) bool {
	d := s.opts.RetryBaseDelay << (attempt - 1)
	d += time.Duration(rand.Int64N(int64(d) + 1))
	select {
	case <-time.After(d):
		return true
	case <-s.killCh:
		return false
	}
}

// runJob executes the job's simulation work. On deadline cancellation the
// partial result is stored before the error propagates.
func (s *Server) runJob(j *job) error {
	probe := s.probe(j)
	switch j.kind {
	case "run":
		cfg := j.cfg
		cfg.Cancel = probe
		cfg.OnProgress = j.storeProgress
		cfg.ProgressEvery = s.opts.ProgressEvery
		// Hold a slot of the shared budget, which sweep and chaos jobs
		// draw from per simulation too.
		s.budget.Acquire()
		defer s.budget.Release()
		j.mu.Lock()
		tee := j.tee
		j.mu.Unlock()
		if tee != nil {
			// A retried attempt re-records the same deterministic event
			// sequence; Reset lets readers holding an offset resume
			// seamlessly once the replay passes them again.
			tee.Reset()
			cfg.Recorder = tee
		}
		sm, err := scenario.New(cfg)
		if err != nil {
			return err
		}
		res, err := sm.Run()
		if err != nil {
			if errors.Is(err, sim.ErrCancelled) {
				j.storePayload(mustJSON(res))
			}
			return err
		}
		j.storePayload(mustJSON(res))
		return nil
	case "sweep":
		build := experiments[j.req.Sweep.Experiment]
		exp, err := build(sweepOptions(j.req.Sweep))
		if err != nil {
			return err
		}
		exp.Cancel = probe
		exp.Budget = s.budget
		table, err := exp.Run(0)
		if err != nil {
			return err
		}
		payload, err := table.JSON()
		if err != nil {
			return err
		}
		j.storePayload(payload)
		return nil
	case "chaos":
		cr := chaosDefaults(j.req.Chaos)
		c := chaos.Campaign{
			Base:                  j.cfg,
			Runs:                  cr.Runs,
			Seed:                  cr.Seed,
			MinDeliveryRatio:      cr.MinDeliveryRatio,
			MaxRecoverySeconds:    cr.MaxRecoverySeconds,
			ShrinkCandidateBudget: time.Duration(cr.ShrinkCandidateBudgetMS) * time.Millisecond,
			ShrinkTotalBudget:     time.Duration(cr.ShrinkTotalBudgetMS) * time.Millisecond,
			Cancel:                probe,
			Budget:                s.budget,
		}
		stateFile := ""
		if s.opts.StateDir != "" {
			stateFile = filepath.Join(s.opts.StateDir, "chaos-"+j.key[:16]+".jsonl")
			c.StateFile = stateFile
			c.Resume = true
		}
		sum, err := c.Run()
		if err != nil {
			if errors.Is(err, sim.ErrCancelled) {
				j.storePayload(mustJSON(sum))
			}
			return err
		}
		j.storePayload(mustJSON(sum))
		if stateFile != "" {
			os.Remove(stateFile) // campaign finished; the cache now owns the verdict
		}
		return nil
	}
	return fmt.Errorf("service: unknown job kind %q", j.kind)
}

func mustJSON(v any) json.RawMessage {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("service: marshal result: %v", err))
	}
	return b
}

func (j *job) storePayload(p json.RawMessage) {
	j.mu.Lock()
	j.payload = p
	j.mu.Unlock()
}

func (j *job) snapshotPayload() json.RawMessage {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.payload
}

func (s *Server) setError(j *job, err error) {
	j.mu.Lock()
	j.errMsg = err.Error()
	j.mu.Unlock()
}

// persist journals e. The journal is the durability story, so a failed
// append fails the server closed: it starts draining (submissions and
// /readyz answer 503) rather than acknowledge state it never persisted.
func (s *Server) persist(e journalEntry) error {
	err := s.journal.append(e)
	if err != nil {
		s.draining.Store(true)
		s.log.Error("journal append failed; draining", "job", e.Job, "state", e.State, "error", err.Error())
	}
	return err
}

// transition journals a job state change (fsync'd before the in-memory
// state flips, write-ahead) and then applies it. When the journal write
// fails the job keeps its last persisted state and carries the error.
func (s *Server) transition(j *job, state string, decorate func(*journalEntry)) {
	e := journalEntry{Job: j.id, State: state}
	if decorate != nil {
		decorate(&e)
	}
	if terminalState(state) {
		// A streamed job's event count outlives its tee: /stream re-runs
		// the job up to it, also after a restart.
		j.mu.Lock()
		if j.tee != nil {
			n := j.tee.Len()
			e.Events = &n
		}
		j.mu.Unlock()
	}
	if err := s.persist(e); err != nil {
		s.setError(j, err)
		return
	}
	j.mu.Lock()
	j.state = state
	if e.Error != "" {
		j.errMsg = e.Error
	}
	j.mu.Unlock()
	s.log.Info("job state", "job", j.id, "state", state, "attempt", e.Attempt, "error", e.Error)
}

// newJob mints a job with a unique, journal-stable ID.
func (s *Server) newJob(req Request, cfg scenario.Config, key string) *job {
	s.mu.Lock()
	id := fmt.Sprintf("j%06d-%s", s.nextID, key[:8])
	s.nextID++
	s.mu.Unlock()
	return &job{
		id: id, req: req, cfg: cfg, kind: req.Kind, tenant: req.Tenant,
		key: key, state: stateQueued,
		deadline: deadlineOf(req, s.opts.DefaultDeadline, s.opts.MaxDeadline),
	}
}

func (s *Server) registerJob(j *job) {
	s.mu.Lock()
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.mu.Unlock()
}

func (s *Server) buildMux() {
	m := http.NewServeMux()
	m.HandleFunc("POST /v1/jobs", s.handleSubmit)
	m.HandleFunc("GET /v1/jobs", s.handleList)
	m.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	m.HandleFunc("GET /v1/jobs/{id}/stream", s.handleStream)
	m.HandleFunc("GET /v1/jobs/{id}/progress", s.handleProgress)
	m.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	m.HandleFunc("GET /readyz", s.handleReady)
	m.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux = m
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	req, cfg, err := DecodeRequest(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	key, err := requestKey(req, cfg)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if ok, retry := s.limiter.admit(req.Tenant); !ok {
		w.Header().Set("Retry-After", fmt.Sprintf("%d", int(retry.Seconds())))
		http.Error(w, "tenant quota exceeded", http.StatusTooManyRequests)
		s.sm.countTenant("rejected_quota", req.Tenant)
		return
	}
	s.sm.countTenant("jobs_submitted", req.Tenant)

	// A repeat of a finished job is served from the content-addressed
	// cache: the job is born done, with zero simulation events. A streamed
	// submission skips the fast path — a live stream only exists if the
	// simulation actually runs (its result still lands in the cache).
	if payload, ok := s.cache.Get(key); ok && !req.Stream {
		j := s.newJob(req, cfg, key)
		j.state = stateDone
		j.cacheHit = true
		j.payload = payload
		if err := s.persist(journalEntry{
			Job: j.id, State: stateDone, Kind: j.kind, Tenant: j.tenant,
			Key: key, Cached: true, // no payload: the original entry owns it
		}); err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		s.registerJob(j)
		s.sm.countTenant("cache_served", req.Tenant)
		s.log.Info("job served from cache", "job", j.id, "kind", j.kind, "tenant", j.tenant, "key", key)
		s.respond(w, http.StatusOK, j.status())
		return
	}

	if s.depth.Add(1) > int64(s.opts.QueueDepth) {
		s.depth.Add(-1)
		w.Header().Set("Retry-After", "1")
		http.Error(w, "queue full", http.StatusTooManyRequests)
		s.sm.count("rejected_queue_full")
		return
	}
	j := s.newJob(req, cfg, key)
	j.enqueued = time.Now()
	// Write-ahead: the submission reaches stable storage before the job
	// is acknowledged or can start, so a crash never leaves a running job
	// the journal has never heard of.
	if err := s.persist(journalEntry{
		Job: j.id, State: stateQueued, Kind: j.kind, Tenant: j.tenant,
		Key: key, Request: &req,
	}); err != nil {
		s.depth.Add(-1)
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	if req.Stream {
		j.tee = s.tees.open()
	}
	s.registerJob(j)
	s.log.Info("job accepted", "job", j.id, "kind", j.kind, "tenant", j.tenant, "key", key, "stream", req.Stream)
	s.queue <- j
	s.respond(w, http.StatusAccepted, j.status())
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if j == nil {
		http.Error(w, "no such job", http.StatusNotFound)
		return
	}
	s.respond(w, http.StatusOK, j.status())
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	out := make([]JobStatus, 0, len(s.order))
	for _, id := range s.order {
		st := s.jobs[id].status()
		st.Result = nil // summaries only; fetch the job for its payload
		out = append(out, st)
	}
	s.mu.Unlock()
	s.respond(w, http.StatusOK, out)
}

func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ready")
}

// handleMetrics serves the Prometheus text exposition: the sharded health
// counters (with per-tenant series on the admission families), queue and
// cache gauges, and the queue-wait / run-duration histograms.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	entries, hits, misses := s.cache.Stats()
	s.sm.render(w, gaugeSnapshot{
		queueDepth:    s.depth.Load(),
		queueCapacity: s.opts.QueueDepth,
		running:       s.running.Load(),
		cacheEntries:  entries,
		cacheHits:     hits,
		cacheMisses:   misses,
		teeEvents:     s.tees.events(),
	}, buildVersion)
}

func (s *Server) respond(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
