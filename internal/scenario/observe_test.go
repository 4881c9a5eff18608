package scenario

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"dftmsn/internal/core"
	"dftmsn/internal/sim"
	"dftmsn/internal/telemetry"
)

// encodeJSONL renders an event stream to canonical JSONL trace bytes, the
// "telemetry bytes" the observability differential pins.
func encodeJSONL(t *testing.T, evs []telemetry.Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := telemetry.NewJSONL(&buf, 0)
	for _, ev := range evs {
		w.Record(ev)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// readAll pages through tee with ReadAt/WaitAt from offset 0 until the
// stream reports done, the way the service's /stream handler does, and
// returns every event it read.
func readAll(tee *telemetry.StreamTee) []telemetry.Event {
	var got []telemetry.Event
	var off uint64
	for {
		page, next, done := tee.ReadAt(off, 128)
		got = append(got, page...)
		off = next
		if done {
			return got
		}
		if len(page) == 0 {
			tee.WaitAt(off, nil, 10*time.Millisecond)
		}
	}
}

// TestObservedRunMatchesUnobserved is the observability tentpole's
// differential gate: a run with the progress probe armed (throttle forced
// to fire at every probe) and a StreamTee in the recorder chain, paged by
// a concurrent ReadAt reader, must produce a bit-identical Result and
// byte-identical telemetry vs. a plain unobserved run, across the full
// 10-config elision matrix. Observability may cost wall clock; it may not
// perturb virtual time.
func TestObservedRunMatchesUnobserved(t *testing.T) {
	for name, cfg := range elisionConfigs() {
		name, cfg := name, cfg
		t.Run(name, func(t *testing.T) {
			t.Parallel()

			runPlain := func() (Result, []telemetry.Event) {
				c := cfg
				buf := &telemetry.Buffer{}
				c.Recorder = buf
				s, err := New(c)
				if err != nil {
					t.Fatal(err)
				}
				res, err := s.Run()
				if err != nil {
					t.Fatal(err)
				}
				return res, buf.Events
			}

			runObserved := func() (Result, []telemetry.Event, []telemetry.Event, int) {
				c := cfg
				buf := &telemetry.Buffer{}
				tee := telemetry.NewStreamTee()
				c.Recorder = telemetry.Multi{buf, tee}
				progressCalls := 0
				c.OnProgress = func(Progress) { progressCalls++ }
				c.ProgressEvery = time.Nanosecond // fire at every kernel probe
				read := make(chan []telemetry.Event, 1)
				go func() { read <- readAll(tee) }()
				s, err := New(c)
				if err != nil {
					tee.Close()
					t.Fatal(err)
				}
				res, err := s.Run()
				tee.Close()
				streamed := <-read
				if err != nil {
					t.Fatal(err)
				}
				return res, buf.Events, streamed, progressCalls
			}

			plainRes, plainEvents := runPlain()
			obsRes, obsEvents, streamed, progressCalls := runObserved()

			if !reflect.DeepEqual(plainRes, obsRes) {
				t.Fatalf("Results diverge between observed and unobserved runs:\nplain:    %+v\nobserved: %+v", plainRes, obsRes)
			}
			if progressCalls == 0 {
				t.Fatal("progress probe never fired")
			}
			if a, b := encodeJSONL(t, plainEvents), encodeJSONL(t, obsEvents); !bytes.Equal(a, b) {
				t.Fatal("telemetry bytes diverge between observed and unobserved runs")
			}
			// The concurrent reader saw the same stream again, with no gaps
			// and no duplicates.
			if !reflect.DeepEqual(streamed, plainEvents) {
				t.Fatalf("stream reader got %d events, the recorded stream has %d (or they differ)",
					len(streamed), len(plainEvents))
			}
		})
	}
}

// TestStreamReadersMidRunNoPerturb is the race-detector satellite: readers
// that start paging through the log mid-run, read for a while, stop, and
// start again must never perturb the Result or the event stream, and every
// page they read must match the final log at its offset. Run under -race
// in CI.
func TestStreamReadersMidRunNoPerturb(t *testing.T) {
	cfg := DefaultConfig(core.SchemeOPT)
	cfg.NumSensors = 25
	cfg.NumSinks = 2
	cfg.DurationSeconds = 800
	cfg.ArrivalMeanSeconds = 60
	cfg.Seed = 21

	ref := cfg
	refBuf := &telemetry.Buffer{}
	ref.Recorder = refBuf
	s, err := New(ref)
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}

	obs := cfg
	tee := telemetry.NewStreamTee()
	obsBuf := &telemetry.Buffer{}
	obs.Recorder = telemetry.Multi{obsBuf, tee}
	obs.OnProgress = func(Progress) {}
	obs.ProgressEvery = time.Nanosecond
	s2, err := New(obs)
	if err != nil {
		t.Fatal(err)
	}

	// Each reader session joins at the log's current end (or at 0 on every
	// other session), pages a handful of times, and records what it read.
	type session struct {
		from uint64
		evs  []telemetry.Event
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	sessions := make([][]session, 3)
	for i := range sessions {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				var off uint64
				if n%2 == 1 {
					off = tee.Len()
				}
				sess := session{from: off}
				for page := 0; page < 8; page++ {
					evs, next, _ := tee.ReadAt(off, 64)
					sess.evs = append(sess.evs, evs...)
					off = next
					tee.WaitAt(off, stop, time.Millisecond)
				}
				sessions[i] = append(sessions[i], sess)
			}
		}()
	}

	got, err := s2.Run()
	close(stop)
	wg.Wait()
	tee.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("concurrent stream readers perturbed the Result")
	}
	if !reflect.DeepEqual(refBuf.Events, obsBuf.Events) {
		t.Fatal("concurrent stream readers perturbed the event stream")
	}
	log, _, _ := tee.ReadAt(0, 0)
	read := 0
	for _, reader := range sessions {
		for _, sess := range reader {
			end := sess.from + uint64(len(sess.evs))
			if end > uint64(len(log)) || (len(sess.evs) > 0 && !reflect.DeepEqual(sess.evs, log[sess.from:end])) {
				t.Fatalf("a reader session from offset %d read %d events that differ from the log",
					sess.from, len(sess.evs))
			}
			read += len(sess.evs)
		}
	}
	if read == 0 {
		t.Fatal("no reader session read any event mid-run")
	}
}

// TestProgressReporting checks the Progress feed itself: snapshots are
// monotone in virtual time and events, rates and fractions are sane, and
// the final Done snapshot of a completed run reads Fraction 1 at the
// horizon.
func TestProgressReporting(t *testing.T) {
	cfg := DefaultConfig(core.SchemeOPT)
	cfg.NumSensors = 20
	cfg.DurationSeconds = 600
	cfg.Seed = 5
	var got []Progress
	cfg.OnProgress = func(p Progress) { got = append(got, p) }
	cfg.ProgressEvery = time.Nanosecond
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) < 2 {
		t.Fatalf("only %d progress snapshots", len(got))
	}
	for i, p := range got {
		if p.HorizonSeconds != 600 {
			t.Fatalf("snapshot %d horizon %v", i, p.HorizonSeconds)
		}
		if p.Fraction < 0 || p.Fraction > 1 || math.IsNaN(p.Fraction) {
			t.Fatalf("snapshot %d fraction %v", i, p.Fraction)
		}
		if i > 0 {
			prev := got[i-1]
			if p.VirtualSeconds < prev.VirtualSeconds || p.Events < prev.Events {
				t.Fatalf("snapshot %d regressed: %+v after %+v", i, p, prev)
			}
		}
	}
	last := got[len(got)-1]
	if !last.Done || last.Fraction != 1 || last.VirtualSeconds != 600 {
		t.Fatalf("final snapshot %+v, want Done at the horizon", last)
	}
	for _, p := range got[:len(got)-1] {
		if p.Done {
			t.Fatal("non-final snapshot marked Done")
		}
	}
}

// TestProgressOnCancelledRun checks that a cancelled run still delivers a
// terminal snapshot, with the partial fraction it reached.
func TestProgressOnCancelledRun(t *testing.T) {
	cfg := DefaultConfig(core.SchemeOPT)
	cfg.NumSensors = 20
	cfg.DurationSeconds = 60_000
	cfg.Seed = 5
	var last Progress
	cfg.OnProgress = func(p Progress) { last = p }
	cfg.ProgressEvery = time.Nanosecond
	calls := 0
	cfg.Cancel = func() bool { calls++; return calls > 50 }
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); !errors.Is(err, sim.ErrCancelled) {
		t.Fatalf("Run = %v, want ErrCancelled", err)
	}
	if !last.Done {
		t.Fatal("cancelled run delivered no terminal snapshot")
	}
	if last.Fraction <= 0 || last.Fraction >= 1 {
		t.Fatalf("cancelled run fraction %v, want partial (0, 1)", last.Fraction)
	}
}
