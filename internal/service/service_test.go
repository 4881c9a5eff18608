package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"dftmsn/internal/core"
	"dftmsn/internal/scenario"
	"dftmsn/internal/sweep"
)

// poisonExperiment is a sweep whose every run panics — the poison-job
// fixture for the quarantine test.
func poisonExperiment(sweep.Options) (sweep.Experiment, error) {
	return sweep.Experiment{
		Name: "poison", XLabel: "x", Xs: []float64{1}, Runs: 1,
		Variants: []sweep.Variant{{
			Name:  "P",
			Build: func(float64) (scenario.Config, error) { panic("poison build") },
		}},
	}, nil
}

// tinyRunBody is a fast scenario submission (finishes in well under a
// second) for the happy-path tests.
func tinyRunBody(seed uint64) string {
	return fmt.Sprintf(`{"kind":"run","config":{"scheme":"OPT","sensors":6,"sinks":1,"duration_s":120,"arrival_mean_s":30,"seed":%d}}`, seed)
}

// longRunBody is a scenario big enough that a millisecond deadline always
// cancels it long before it finishes.
func longRunBody() string {
	return `{"kind":"run","deadline_ms":1,"config":{"scheme":"OPT","sensors":30,"sinks":2,"duration_s":50000,"arrival_mean_s":30,"seed":5}}`
}

// newTestServer builds, starts, and tears down a server around opts.
func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Shutdown(0)
	})
	return s, ts
}

func submit(t *testing.T, ts *httptest.Server, body string) (int, JobStatus) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, st
}

// awaitTerminal polls a job until it reaches a terminal state.
func awaitTerminal(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if terminalState(st.State) {
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal state", id)
	return JobStatus{}
}

// promValue scrapes /metrics and extracts one unlabelled sample from the
// Prometheus text exposition.
func promValue(t *testing.T, ts *httptest.Server, name string) float64 {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("metric %s: bad value %q", name, rest)
			}
			return v
		}
	}
	t.Fatalf("metric %s not in scrape:\n%s", name, body)
	return 0
}

// TestRunJobEndToEnd submits a run, waits for its result, resubmits the
// identical request, and requires the repeat to be served from the cache —
// same bytes, zero simulation (the job is born done).
func TestRunJobEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	code, st := submit(t, ts, tinyRunBody(1))
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", code)
	}
	first := awaitTerminal(t, ts, st.ID)
	if first.State != stateDone || first.CacheHit {
		t.Fatalf("first run: state %q cacheHit %v, want done/false (err %q)", first.State, first.CacheHit, first.Error)
	}
	var res scenario.Result
	if err := json.Unmarshal(first.Result, &res); err != nil {
		t.Fatal(err)
	}
	if res.Events == 0 || res.Delivery.Generated == 0 {
		t.Fatalf("empty result payload: %+v", res)
	}

	code, repeat := submit(t, ts, tinyRunBody(1))
	if code != http.StatusOK {
		t.Fatalf("cached submit = %d, want 200", code)
	}
	if repeat.State != stateDone || !repeat.CacheHit {
		t.Fatalf("repeat: state %q cacheHit %v, want done/true", repeat.State, repeat.CacheHit)
	}
	if !bytes.Equal(repeat.Result, first.Result) {
		t.Fatal("cached payload differs from the computed one")
	}
	if repeat.Key != first.Key {
		t.Fatalf("keys differ: %s vs %s", repeat.Key, first.Key)
	}

	// A different seed is different content: no hit.
	code, other := submit(t, ts, tinyRunBody(2))
	if code != http.StatusAccepted || other.Key == first.Key {
		t.Fatalf("different seed: code %d key equal=%v", code, other.Key == first.Key)
	}
}

// TestDeadlineCancelsJobWithPartialResult pins the deadline path: the job
// ends "cancelled" (a terminal state, never retried) and still carries the
// partial Result of the event prefix it completed.
func TestDeadlineCancelsJobWithPartialResult(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	code, st := submit(t, ts, longRunBody())
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", code)
	}
	final := awaitTerminal(t, ts, st.ID)
	if final.State != stateCancelled {
		t.Fatalf("state %q, want cancelled (err %q)", final.State, final.Error)
	}
	if !strings.Contains(final.Error, "cancelled") {
		t.Fatalf("error %q does not mention cancellation", final.Error)
	}
	if final.Attempts != 1 {
		t.Fatalf("cancelled job was attempted %d times, want 1 (no retry)", final.Attempts)
	}
	var res scenario.Result
	if err := json.Unmarshal(final.Result, &res); err != nil {
		t.Fatal(err)
	}
	if res.SimSeconds >= 50000 {
		t.Fatalf("cancelled job simulated the whole horizon (%.0f s)", res.SimSeconds)
	}
}

// TestQueueBackpressure fills the admission queue (no workers draining it)
// and requires the overflow submission to bounce with 429 + Retry-After.
func TestQueueBackpressure(t *testing.T) {
	s, err := New(Options{QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	// No Start(): the queue cannot drain.
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if code, _ := submit(t, ts, tinyRunBody(1)); code != http.StatusAccepted {
		t.Fatalf("first submit = %d, want 202", code)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(tinyRunBody(2)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without a Retry-After hint")
	}
}

// TestTenantQuota pins the per-tenant token bucket: burst spends, then 429
// with a Retry-After derived from the refill rate; another tenant is
// unaffected.
func TestTenantQuota(t *testing.T) {
	s, err := New(Options{TenantRatePerSec: 0.001, TenantBurst: 1, QueueDepth: 64})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := func(tenant string, seed int) string {
		return fmt.Sprintf(`{"kind":"run","tenant":%q,"config":{"scheme":"OPT","sensors":6,"sinks":1,"duration_s":120,"seed":%d}}`, tenant, seed)
	}
	if code, _ := submit(t, ts, body("team-a", 1)); code != http.StatusAccepted {
		t.Fatal("first team-a submission rejected")
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body("team-a", 2)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("second team-a submission: %d (Retry-After %q), want 429 with hint",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	if code, _ := submit(t, ts, body("team-b", 3)); code != http.StatusAccepted {
		t.Fatal("team-b throttled by team-a's bucket")
	}
}

// TestBadRequestsRejected walks the validation surface.
func TestBadRequestsRejected(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	for name, body := range map[string]string{
		"unknown kind":      `{"kind":"explode"}`,
		"unknown field":     `{"kind":"run","conf":{}}`,
		"removed field":     `{"kind":"run","shards":2,"config":{"scheme":"OPT"}}`,
		"run without cfg":   `{"kind":"run"}`,
		"bad scheme":        `{"kind":"run","config":{"scheme":"WAT"}}`,
		"unknown cfg field": `{"kind":"run","config":{"scheme":"OPT","sensor":3}}`,
		"unknown sweep":     `{"kind":"sweep","sweep":{"experiment":"fig99"}}`,
		"negative deadline": `{"kind":"run","deadline_ms":-5,"config":{"scheme":"OPT"}}`,
		"not json":          `hello`,
	} {
		if code, _ := submit(t, ts, body); code != http.StatusBadRequest {
			t.Errorf("%s: code %d, want 400", name, code)
		}
	}
}

// TestPanicQuarantine submits a sweep job rigged to panic via a poisoned
// experiment and requires bounded retries then quarantine — the service
// survives, and the next job still runs.
func TestPanicQuarantine(t *testing.T) {
	experiments["poison-test"] = poisonExperiment
	defer delete(experiments, "poison-test")

	s, ts := newTestServer(t, Options{Workers: 1, MaxRetries: 2, RetryBaseDelay: time.Millisecond})
	code, st := submit(t, ts, `{"kind":"sweep","sweep":{"experiment":"poison-test"}}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", code)
	}
	final := awaitTerminal(t, ts, st.ID)
	if final.State != stateQuarantined {
		t.Fatalf("state %q, want quarantined (err %q)", final.State, final.Error)
	}
	if final.Attempts != 3 {
		t.Fatalf("poison job attempted %d times, want 1 + 2 retries", final.Attempts)
	}
	if !strings.Contains(final.Error, "panic") {
		t.Fatalf("error %q does not surface the panic", final.Error)
	}

	// The pool survived the panics: a healthy job still completes.
	code, st = submit(t, ts, tinyRunBody(9))
	if code != http.StatusAccepted {
		t.Fatalf("post-quarantine submit = %d", code)
	}
	if got := awaitTerminal(t, ts, st.ID); got.State != stateDone {
		t.Fatalf("post-quarantine job state %q, want done", got.State)
	}
	if q, r := promValue(t, ts, "dftserve_jobs_quarantined_total"), promValue(t, ts, "dftserve_retries_total"); q != 1 || r != 2 {
		t.Fatalf("metrics: quarantined %v retries %v, want 1 and 2", q, r)
	}
	_ = s
}

// TestHealthAndDrain pins the probe endpoints across a graceful drain.
func TestHealthAndDrain(t *testing.T) {
	s, err := New(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if get("/healthz") != 200 || get("/readyz") != 200 {
		t.Fatal("fresh server not healthy/ready")
	}
	s.Shutdown(time.Second)
	if get("/healthz") != 200 {
		t.Fatal("healthz must stay 200 while the process lives")
	}
	if get("/readyz") != http.StatusServiceUnavailable {
		t.Fatal("readyz must go 503 once draining")
	}
	if code, _ := submit(t, ts, tinyRunBody(1)); code != http.StatusServiceUnavailable {
		t.Fatalf("draining submit = %d, want 503", code)
	}
}

// TestJournalReplayResumesAndWarmsCache is the in-process crash-recovery
// check (the kill -9 version lives in the cmd/dftserve soak test): a job
// journaled "queued" by a dead server is re-enqueued and finished by the
// next one, and the finished payload then serves repeats from the cache
// across yet another restart.
func TestJournalReplayResumesAndWarmsCache(t *testing.T) {
	dir := t.TempDir()
	jp := filepath.Join(dir, "journal.jsonl")

	// First life: accept the job but die (no workers) before running it.
	s1, err := New(Options{JournalPath: jp})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	code, st := submit(t, ts1, tinyRunBody(4))
	ts1.Close()
	s1.journal.close()
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}

	// Second life: the replay re-enqueues and the job completes.
	s2, ts2 := newTestServer(t, Options{JournalPath: jp, Workers: 1})
	final := awaitTerminal(t, ts2, st.ID)
	if final.State != stateDone {
		t.Fatalf("resumed job state %q, want done (err %q)", final.State, final.Error)
	}
	if v := promValue(t, ts2, "dftserve_jobs_resumed_total"); v != 1 {
		t.Fatalf("jobs_resumed = %v, want 1", v)
	}
	s2.Shutdown(5 * time.Second)

	// Third life: the journal warms the cache; the repeat never simulates.
	_, ts3 := newTestServer(t, Options{JournalPath: jp, Workers: 1})
	code, repeat := submit(t, ts3, tinyRunBody(4))
	if code != http.StatusOK || !repeat.CacheHit {
		t.Fatalf("post-restart repeat: code %d cacheHit %v, want 200/true", code, repeat.CacheHit)
	}
	if !bytes.Equal(repeat.Result, final.Result) {
		t.Fatal("cache-served payload differs across restart")
	}
}

// TestInterruptedChaosResumesToIdenticalVerdict drives the acceptance
// claim end to end in-process: a chaos campaign interrupted by shutdown
// resumes on the next server from its state file and reaches a summary
// byte-identical to an uninterrupted campaign's.
func TestInterruptedChaosResumesToIdenticalVerdict(t *testing.T) {
	chaosBody := `{"kind":"chaos","chaos":{"runs":12,"seed":5},"config":{"scheme":"OPT","sensors":12,"sinks":2,"duration_s":400,"arrival_mean_s":40}}`

	// Reference: uninterrupted campaign.
	_, tsRef := newTestServer(t, Options{Workers: 1, StateDir: t.TempDir()})
	code, st := submit(t, tsRef, chaosBody)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	want := awaitTerminal(t, tsRef, st.ID)
	if want.State != stateDone {
		t.Fatalf("reference campaign state %q (err %q)", want.State, want.Error)
	}

	// Interrupted: shut down almost immediately, mid-campaign.
	dir := t.TempDir()
	jp := filepath.Join(dir, "journal.jsonl")
	s1, err := New(Options{Workers: 1, JournalPath: jp, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s1.Start()
	ts1 := httptest.NewServer(s1.Handler())
	code, st = submit(t, ts1, chaosBody)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	time.Sleep(30 * time.Millisecond) // let it get partway
	s1.Shutdown(0)                    // zero grace: kill switch fires at once
	ts1.Close()

	// Resume on a fresh server over the same journal and state dir.
	_, ts2 := newTestServer(t, Options{Workers: 1, JournalPath: jp, StateDir: dir})
	got := awaitTerminal(t, ts2, st.ID)
	if got.State != stateDone {
		t.Fatalf("resumed campaign state %q (err %q)", got.State, got.Error)
	}
	if !bytes.Equal(got.Result, want.Result) {
		t.Fatalf("resumed campaign verdict differs from uninterrupted:\n%s\n---\n%s", got.Result, want.Result)
	}
}

// tinySweep is a four-run sweep small enough for unit tests.
func tinySweep(sweep.Options) (sweep.Experiment, error) {
	return sweep.Experiment{
		Name: "tiny", XLabel: "sinks", Xs: []float64{1, 2}, Runs: 2, BaseSeed: 3,
		Variants: []sweep.Variant{{
			Name: "OPT",
			Build: func(x float64) (scenario.Config, error) {
				cfg := scenario.DefaultConfig(core.SchemeOPT)
				cfg.NumSensors, cfg.NumSinks = 6, int(x)
				cfg.DurationSeconds, cfg.ArrivalMeanSeconds = 120, 30
				return cfg, nil
			},
		}},
	}, nil
}

// TestBudgetCapsSimulationsAcrossJobs runs a sweep job next to run jobs on
// a two-worker server: the sweep's simulations and the run jobs draw from
// one budget, so no more than two kernels are ever in flight.
func TestBudgetCapsSimulationsAcrossJobs(t *testing.T) {
	experiments["tiny-test"] = tinySweep
	defer delete(experiments, "tiny-test")

	s, ts := newTestServer(t, Options{Workers: 2})
	var ids []string
	code, st := submit(t, ts, `{"kind":"sweep","sweep":{"experiment":"tiny-test"}}`)
	if code != http.StatusAccepted {
		t.Fatalf("sweep submit = %d", code)
	}
	ids = append(ids, st.ID)
	for seed := uint64(1); seed <= 3; seed++ {
		code, st := submit(t, ts, tinyRunBody(seed))
		if code != http.StatusAccepted {
			t.Fatalf("run submit = %d", code)
		}
		ids = append(ids, st.ID)
	}
	for _, id := range ids {
		if final := awaitTerminal(t, ts, id); final.State != stateDone {
			t.Fatalf("job %s ended %s: %s", id, final.State, final.Error)
		}
	}
	if total, peak := s.budget.Total(), s.budget.Peak(); total != 2 || peak < 1 || peak > total {
		t.Fatalf("budget total %d peak %d, want peak within [1, 2]", total, peak)
	}
}

// TestJournalFailureFailsClosed breaks the journal under a live server: a
// job whose transitions can no longer be persisted must keep its last
// persisted state and carry the error, and the server must stop admitting
// work rather than acknowledge state it never wrote.
func TestJournalFailureFailsClosed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.jsonl")
	s, err := New(Options{Workers: 1, JournalPath: path})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Shutdown(0)
	})
	code, st := submit(t, ts, tinyRunBody(11))
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", code)
	}

	// The submission is on disk; every later write fails.
	s.journal.mu.Lock()
	s.journal.f.Close()
	s.journal.mu.Unlock()
	s.Start()

	s.mu.Lock()
	j := s.jobs[st.ID]
	s.mu.Unlock()
	deadline := time.Now().Add(30 * time.Second)
	for s.running.Load() != 0 || s.depth.Load() != 0 || j.status().Error == "" {
		if time.Now().After(deadline) {
			t.Fatal("job never settled")
		}
		time.Sleep(5 * time.Millisecond)
	}
	got := j.status()
	if got.State != stateQueued || !strings.Contains(got.Error, "journal") {
		t.Fatalf("job state %q error %q, want queued with a journal error", got.State, got.Error)
	}
	replayed, _, err := replayJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(replayed) != 1 || replayed[0].State != got.State {
		t.Fatalf("journal holds %+v, want the one job at the state clients see (%s)", replayed, got.State)
	}

	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz = %d, want 503", resp.StatusCode)
	}
	if code, _ := submit(t, ts, tinyRunBody(12)); code != http.StatusServiceUnavailable {
		t.Fatalf("submit after journal failure = %d, want 503", code)
	}
}

// TestJournalTornTailIsTruncated restarts on a journal whose last write was
// torn by a crash. The next server must cut the fragment off before it
// appends: otherwise its first acknowledged transition shares a line with
// the fragment and is silently lost on the following replay, and the one
// after that turns the fragment into mid-file corruption that refuses to
// start.
func TestJournalTornTailIsTruncated(t *testing.T) {
	jp := filepath.Join(t.TempDir(), "journal.jsonl")
	intact := `{"job":"a","state":"cancelled"}` + "\n"
	if err := os.WriteFile(jp, []byte(intact+`{"job":"a","sta`), 0o644); err != nil {
		t.Fatal(err)
	}
	restart := func() *Server {
		t.Helper()
		s, err := New(Options{JournalPath: jp})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	s := restart()
	if b, err := os.ReadFile(jp); err != nil || string(b) != intact {
		t.Fatalf("journal after restart = %q (%v), want the torn tail cut off", b, err)
	}
	if err := s.journal.append(journalEntry{Job: "b", State: stateCancelled}); err != nil {
		t.Fatal(err)
	}
	s.journal.close()

	s = restart()
	if j := s.jobs["b"]; j == nil || j.state != stateCancelled {
		t.Fatalf("acknowledged transition of job b lost across restart: %+v", j)
	}
	if err := s.journal.append(journalEntry{Job: "c", State: stateCancelled}); err != nil {
		t.Fatal(err)
	}
	s.journal.close()

	s = restart()
	defer s.journal.close()
	if fmt.Sprint(s.order) != "[a b c]" {
		t.Fatalf("replayed jobs %v, want [a b c]", s.order)
	}
}

// TestJournalCorruptMiddleLineRefusesStart: only the final line can be a
// torn write. A malformed line with intact records after it is corruption,
// and the server must refuse to start rather than truncate history.
func TestJournalCorruptMiddleLineRefusesStart(t *testing.T) {
	jp := filepath.Join(t.TempDir(), "journal.jsonl")
	body := `{"job":"a","state":"cancelled"}` + "\n" + `{"job":"b","sta` + "\n" + `{"job":"c","state":"cancelled"}` + "\n"
	if err := os.WriteFile(jp, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Options{JournalPath: jp}); err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("New on a corrupt journal: err = %v, want a line 2 error", err)
	}
	if b, err := os.ReadFile(jp); err != nil || string(b) != body {
		t.Fatalf("refused start rewrote the journal: %q (%v)", b, err)
	}
}
