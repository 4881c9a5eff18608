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
	"runtime"
	"strings"
	"testing"
	"time"

	"dftmsn/internal/scenario"
	"dftmsn/internal/telemetry"
)

// streamRunBody is tinyRunBody with the live stream armed.
func streamRunBody(seed uint64) string {
	return fmt.Sprintf(`{"kind":"run","stream":true,"config":{"scheme":"OPT","sensors":6,"sinks":1,"duration_s":120,"arrival_mean_s":30,"seed":%d}}`, seed)
}

// referenceEvents runs the same scenario directly and returns its recorded
// event stream — what /stream must deliver byte-for-byte.
func referenceEvents(t *testing.T, seed uint64) []telemetry.Event {
	t.Helper()
	cfgJSON := fmt.Sprintf(`{"scheme":"OPT","sensors":6,"sinks":1,"duration_s":120,"arrival_mean_s":30,"seed":%d}`, seed)
	cfg, err := scenario.LoadConfig(strings.NewReader(cfgJSON))
	if err != nil {
		t.Fatal(err)
	}
	buf := &telemetry.Buffer{}
	cfg.Recorder = buf
	sm, err := scenario.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sm.Run(); err != nil {
		t.Fatal(err)
	}
	return buf.Events
}

// jsonlBytes renders events to canonical JSONL trace bytes. Stream
// comparisons happen at this level: the SSE data lines are the canonical
// encoding (Time at fixed six decimals), so decoded events match the
// reference modulo that deliberate rounding — the bytes are the contract.
func jsonlBytes(evs []telemetry.Event) []byte {
	var out []byte
	for _, ev := range evs {
		out = telemetry.AppendJSON(out, ev)
		out = append(out, '\n')
	}
	return out
}

// fetchStream decodes one /stream response to completion.
func fetchStream(t *testing.T, url string, header http.Header) ([]telemetry.Event, []byte) {
	t.Helper()
	req, err := http.NewRequest("GET", url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, vs := range header {
		for _, v := range vs {
			req.Header.Add(k, v)
		}
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream GET = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream Content-Type %q", ct)
	}
	evs, done, err := telemetry.DecodeSSE(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return evs, done
}

// TestStreamEndpointReplayAndResume is the acceptance check for the live
// stream: a streamed run's SSE feed carries exactly the events a direct
// run records, replays in full from offset 0, and resumes from any offset
// (?offset= or Last-Event-ID) with no gaps and no duplicates — DecodeSSE
// verifies id contiguity as it reads.
//
// The live read ends only after the job finished, so every later read is
// served by re-running the job: the server holds no tee for a finished
// job, and the re-runs must be byte-equal to the live stream.
func TestStreamEndpointReplayAndResume(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, StreamHeartbeat: 20 * time.Millisecond})
	code, st := submit(t, ts, streamRunBody(77))
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", code)
	}
	want := referenceEvents(t, 77)

	// Tail the live run from offset 0 straight through the done terminator.
	full, done := fetchStream(t, ts.URL+"/v1/jobs/"+st.ID+"/stream", nil)
	if done == nil {
		t.Fatal("stream ended without a done terminator")
	}
	if !strings.Contains(string(done), `"state":"done"`) {
		t.Fatalf("done terminator %s, want state done", done)
	}
	if !bytes.Equal(jsonlBytes(full), jsonlBytes(want)) {
		t.Fatalf("streamed %d events differ from the direct run's %d", len(full), len(want))
	}
	assertNoTee(t, s, st.ID)
	replaysBefore := promValue(t, ts, "dftserve_stream_replays_total")

	// Reconnect mid-stream: an offset replays exactly the suffix.
	k := len(full) / 2
	suffix, done2 := fetchStream(t, fmt.Sprintf("%s/v1/jobs/%s/stream?offset=%d", ts.URL, st.ID, k), nil)
	if done2 == nil {
		t.Fatal("resumed stream ended without a done terminator")
	}
	if !bytes.Equal(jsonlBytes(suffix), jsonlBytes(want[k:])) {
		t.Fatalf("offset %d resume: %d events, want %d", k, len(suffix), len(want)-k)
	}

	// The standard Last-Event-ID header resumes at the next event.
	h := http.Header{}
	h.Set("Last-Event-ID", fmt.Sprintf("%d", k-1))
	viaHeader, _ := fetchStream(t, ts.URL+"/v1/jobs/"+st.ID+"/stream", h)
	if !bytes.Equal(jsonlBytes(viaHeader), jsonlBytes(want[k:])) {
		t.Fatalf("Last-Event-ID resume: %d events, want %d", len(viaHeader), len(want)-k)
	}

	// A full replay after completion is still the whole identical stream.
	replay, _ := fetchStream(t, ts.URL+"/v1/jobs/"+st.ID+"/stream?offset=0", nil)
	if !bytes.Equal(jsonlBytes(replay), jsonlBytes(want)) {
		t.Fatal("post-completion replay from offset 0 differs")
	}
	// A client already at the end gets only the terminator, with the
	// job's count.
	atEnd, done3 := fetchStream(t, fmt.Sprintf("%s/v1/jobs/%s/stream?offset=%d", ts.URL, st.ID, len(want)), nil)
	if state, n := doneState(t, done3); len(atEnd) != 0 || state != stateDone || n != uint64(len(want)) {
		t.Fatalf("read at the end: %d events, terminator %s; want 0 events, done with %d", len(atEnd), done3, len(want))
	}
	if got := promValue(t, ts, "dftserve_stream_replays_total") - replaysBefore; got != 4 {
		t.Fatalf("stream_replays rose by %v over four post-completion reads, want 4", got)
	}
	assertNoTee(t, s, st.ID)
	if v := promValue(t, ts, "dftserve_stream_tee_events"); v != 0 {
		t.Fatalf("stream_tee_events = %v on an idle server, want 0", v)
	}
}

// assertNoTee fails unless the server has dropped the job's tee.
func assertNoTee(t *testing.T, s *Server, id string) {
	t.Helper()
	j := s.lookupJob(id)
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.tee != nil || !j.recorded {
		t.Fatalf("finished job %s: tee held %v, event count recorded %v", id, j.tee != nil, j.recorded)
	}
}

// doneState decodes a done terminator's payload.
func doneState(t *testing.T, done []byte) (state string, events uint64) {
	t.Helper()
	var d struct {
		State  string `json:"state"`
		Events uint64 `json:"events"`
	}
	if err := json.Unmarshal(done, &d); err != nil {
		t.Fatalf("done terminator %q: %v", done, err)
	}
	return d.State, d.Events
}

// TestStreamReplayOfCancelledJob re-runs a streamed job a deadline cut
// short: the replay stops at the job's recorded event count, matches the
// direct run's prefix of that length and the live stream, and its done
// terminator carries state cancelled.
func TestStreamReplayOfCancelledJob(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	const cfgJSON = `{"scheme":"OPT","sensors":30,"sinks":2,"duration_s":50000,"arrival_mean_s":30,"seed":5}`
	code, st := submit(t, ts, `{"kind":"run","stream":true,"deadline_ms":40,"config":`+cfgJSON+`}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", code)
	}
	url := ts.URL + "/v1/jobs/" + st.ID + "/stream"
	live, liveDone := fetchStream(t, url, nil)
	if final := awaitTerminal(t, ts, st.ID); final.State != stateCancelled {
		t.Fatalf("state %q, want cancelled", final.State)
	}
	assertNoTee(t, s, st.ID)
	replay, done := fetchStream(t, url, nil)
	state, n := doneState(t, done)
	if state != stateCancelled || n != uint64(len(replay)) || n == 0 {
		t.Fatalf("replay terminator %s for %d events, want cancelled with the count", done, len(replay))
	}
	if liveState, liveN := doneState(t, liveDone); liveState != stateCancelled || liveN != n {
		t.Fatalf("live terminator %s, replay's %s", liveDone, done)
	}
	if !bytes.Equal(jsonlBytes(replay), jsonlBytes(live)) {
		t.Fatalf("replay of %d events differs from the live stream of %d", len(replay), len(live))
	}

	// The direct run's first n events, cut off by the same kind of probe.
	cfg, err := scenario.LoadConfig(strings.NewReader(cfgJSON))
	if err != nil {
		t.Fatal(err)
	}
	buf := &telemetry.Buffer{}
	cfg.Recorder = buf
	cfg.Cancel = func() bool { return uint64(len(buf.Events)) >= n }
	sm, err := scenario.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sm.Run()
	if uint64(len(buf.Events)) < n {
		t.Fatalf("direct run recorded %d events, replay %d", len(buf.Events), n)
	}
	if !bytes.Equal(jsonlBytes(replay), jsonlBytes(buf.Events[:n])) {
		t.Fatal("replay differs from the direct run's prefix")
	}
}

// TestStreamServedAfterJournalRestart: a streamed job that finished in one
// process serves its whole stream from the next, which replays the journal
// and re-runs the job.
func TestStreamServedAfterJournalRestart(t *testing.T) {
	jp := filepath.Join(t.TempDir(), "journal.jsonl")
	s1, ts1 := newTestServer(t, Options{JournalPath: jp, Workers: 1})
	code, st := submit(t, ts1, streamRunBody(78))
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	awaitTerminal(t, ts1, st.ID)
	s1.Shutdown(5 * time.Second)
	ts1.Close()

	_, ts2 := newTestServer(t, Options{JournalPath: jp, Workers: 1})
	evs, done := fetchStream(t, ts2.URL+"/v1/jobs/"+st.ID+"/stream", nil)
	want := referenceEvents(t, 78)
	if state, n := doneState(t, done); state != stateDone || n != uint64(len(want)) {
		t.Fatalf("terminator %s, want done with %d events", done, len(want))
	}
	if !bytes.Equal(jsonlBytes(evs), jsonlBytes(want)) {
		t.Fatalf("post-restart stream of %d events differs from the direct run's %d", len(evs), len(want))
	}
	if v := promValue(t, ts2, "dftserve_stream_replays_total"); v != 1 {
		t.Fatalf("stream_replays = %v, want 1", v)
	}
}

// TestStreamedJobsLeaveHeapFlat is the bounded-state gate: once streamed
// jobs finish, the server keeps their status and payload but not their
// event logs, so the in-use heap after 100 jobs exceeds the heap after 20
// by no more than a small per-job allowance. A retained log of these jobs'
// few thousand events would cost each about 0.25 MB.
func TestStreamedJobsLeaveHeapFlat(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2, QueueDepth: 100})
	serve := func(from, n int) {
		ids := make([]string, 0, n)
		for i := from; i < from+n; i++ {
			body := fmt.Sprintf(`{"kind":"run","stream":true,"config":{"scheme":"OPT","sensors":10,"sinks":1,"duration_s":600,"arrival_mean_s":20,"seed":%d}}`, 1000+i)
			code, st := submit(t, ts, body)
			if code != http.StatusAccepted {
				t.Fatalf("submit = %d", code)
			}
			ids = append(ids, st.ID)
		}
		for _, id := range ids {
			awaitTerminal(t, ts, id)
		}
	}
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	serve(0, 20)
	h20 := heap()
	serve(20, 80)
	h100 := heap()
	perJob := (float64(h100) - float64(h20)) / 80
	t.Logf("heap after 20 jobs %.1f MB, after 100 %.1f MB: %.0f KB per job", float64(h20)/1e6, float64(h100)/1e6, perJob/1e3)
	if perJob > 64e3 {
		t.Fatalf("in-use heap grows %.0f KB per finished streamed job, want at most 64 KB", perJob/1e3)
	}
}

// TestStreamValidation walks the stream surface's error paths.
func TestStreamValidation(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})

	// stream on a non-run kind is rejected at submission.
	if code, _ := submit(t, ts, `{"kind":"sweep","stream":true,"sweep":{"experiment":"fig2"}}`); code != http.StatusBadRequest {
		t.Fatalf("streamed sweep submit = %d, want 400", code)
	}

	// An unstreamed job has no stream to tail.
	code, st := submit(t, ts, tinyRunBody(31))
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	awaitTerminal(t, ts, st.ID)
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unstreamed job stream GET = %d, want 404", resp.StatusCode)
	}

	// Unknown job and bad offsets.
	for path, wantCode := range map[string]int{
		"/v1/jobs/nope/stream": http.StatusNotFound,
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != wantCode {
			t.Fatalf("%s = %d, want %d", path, resp.StatusCode, wantCode)
		}
	}
	code2, st2 := submit(t, ts, streamRunBody(32))
	if code2 != http.StatusAccepted {
		t.Fatalf("submit = %d", code2)
	}
	resp, err = http.Get(ts.URL + "/v1/jobs/" + st2.ID + "/stream?offset=banana")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad offset GET = %d, want 400", resp.StatusCode)
	}
}

// TestStreamedRepeatBypassesCacheButStillCaches pins the cache interplay: a
// streamed repeat of a cached job actually simulates (a live stream needs a
// live run), while its result still lands in — and unstreamed repeats still
// come from — the content-addressed cache.
func TestStreamedRepeatBypassesCacheButStillCaches(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	code, st := submit(t, ts, tinyRunBody(55))
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	first := awaitTerminal(t, ts, st.ID)

	code, st2 := submit(t, ts, streamRunBody(55))
	if code != http.StatusAccepted {
		t.Fatalf("streamed repeat = %d, want 202 (must not be served from cache)", code)
	}
	second := awaitTerminal(t, ts, st2.ID)
	if second.CacheHit {
		t.Fatal("streamed repeat reported a cache hit")
	}
	if string(second.Result) != string(first.Result) {
		t.Fatal("streamed repeat computed a different result")
	}

	code, st3 := submit(t, ts, tinyRunBody(55))
	if code != http.StatusOK || !st3.CacheHit {
		t.Fatalf("unstreamed repeat: code %d cacheHit %v, want 200/true", code, st3.CacheHit)
	}
}

// TestProgressEndpoint pins GET /v1/jobs/{id}/progress: a finished run
// reports its terminal kernel snapshot (done, the full horizon), a
// cache-served job reports done with no snapshot.
func TestProgressEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, ProgressEvery: time.Millisecond})
	code, st := submit(t, ts, tinyRunBody(61))
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	awaitTerminal(t, ts, st.ID)

	var ps ProgressStatus
	getJSON(t, ts.URL+"/v1/jobs/"+st.ID+"/progress", &ps)
	if ps.State != stateDone || ps.Progress == nil {
		t.Fatalf("progress after completion: %+v", ps)
	}
	if !ps.Progress.Done || ps.Progress.Fraction != 1 || ps.Progress.VirtualSeconds != 120 {
		t.Fatalf("terminal snapshot %+v, want Done at the 120 s horizon", ps.Progress)
	}
	if ps.Progress.Events == 0 {
		t.Fatal("terminal snapshot counts zero events")
	}

	// The cached repeat never simulated: done, no snapshot.
	code, rep := submit(t, ts, tinyRunBody(61))
	if code != http.StatusOK {
		t.Fatalf("repeat = %d", code)
	}
	var cached ProgressStatus
	getJSON(t, ts.URL+"/v1/jobs/"+rep.ID+"/progress", &cached)
	if cached.State != stateDone || !cached.CacheHit || cached.Progress != nil {
		t.Fatalf("cached job progress: %+v", cached)
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/nope/progress")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job progress = %d, want 404", resp.StatusCode)
	}
}

// TestMetricsPrometheusGolden pins the /metrics exposition format. The
// server is driven through a deterministic admission-only sequence (no
// worker ever starts, so no wall-clock histogram observation can vary) and
// the scrape must match the golden byte-for-byte: TYPE headers, _total
// suffixes, per-tenant labels, cumulative le buckets. Regenerate with
//
//	go test ./internal/service -run MetricsPrometheusGolden -update
func TestMetricsPrometheusGolden(t *testing.T) {
	savedVersion := buildVersion
	buildVersion = "golden-test-build"
	defer func() { buildVersion = savedVersion }()

	s, err := New(Options{QueueDepth: 4, TenantRatePerSec: 0.0001, TenantBurst: 1})
	if err != nil {
		t.Fatal(err)
	}
	// No Start(): admission only, nothing runs, nothing measures wall clock.
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if code, _ := submit(t, ts, `{"kind":"run","tenant":"team-a","config":{"scheme":"OPT","sensors":6,"sinks":1,"duration_s":120,"seed":1}}`); code != http.StatusAccepted {
		t.Fatal("seed submission rejected")
	}
	// Same tenant again: the 1-token bucket rejects it (tenant-labelled).
	submit(t, ts, `{"kind":"run","tenant":"team-a","config":{"scheme":"OPT","sensors":6,"sinks":1,"duration_s":120,"seed":2}}`)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("scrape Content-Type %q", ct)
	}
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join("testdata", "metrics.golden")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create the golden file)", err)
	}
	if string(got) != string(want) {
		t.Fatalf("/metrics exposition drifted from %s; if intentional, rerun with\n"+
			"  go test ./internal/service -run MetricsPrometheusGolden -update\ngot:\n%s", path, got)
	}
}

// getJSON fetches url and decodes the JSON body into v.
func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}
