package sweep

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

func TestCoreBudgetAccounting(t *testing.T) {
	if d := NewCoreBudget(0); d.Total() < 1 {
		t.Fatalf("zero-value budget: total %d", d.Total())
	}
	b := NewCoreBudget(2)
	if b.Total() != 2 {
		t.Fatalf("Total = %d, want 2", b.Total())
	}
	b.Acquire()
	b.Acquire()

	// Full budget: a further Acquire must block until a Release frees a slot.
	got := make(chan struct{})
	go func() {
		b.Acquire()
		close(got)
	}()
	select {
	case <-got:
		t.Fatal("Acquire returned from a full budget")
	case <-time.After(50 * time.Millisecond):
	}
	b.Release()
	select {
	case <-got:
	case <-time.After(2 * time.Second):
		t.Fatal("Acquire still blocked after Release")
	}
	b.Release()
	b.Release()
	if b.Peak() != 2 {
		t.Fatalf("Peak = %d, want 2", b.Peak())
	}
	assertDrained(t, b)

	// Over-release is a loud bug, not silent capacity inflation.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("over-release did not panic")
			}
		}()
		b.Release()
	}()
}

// assertDrained fails unless every slot of b is free: it takes all of them
// without blocking, then hands them back.
func assertDrained(t *testing.T, b *CoreBudget) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		for i := 0; i < b.Total(); i++ {
			b.Acquire()
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("budget leaked: slots still held")
	}
	for i := 0; i < b.Total(); i++ {
		b.Release()
	}
}

// TestCoreBudgetExperimentDifferential is the CoreBudget acceptance pin: a
// sweep run under a 2-slot budget must produce bit-identical per-point
// results to the plain sequential sweep, and the budget must show it was
// never oversubscribed and fully returned.
func TestCoreBudgetExperimentDifferential(t *testing.T) {
	seq, err := tinyExperiment().Run(1)
	if err != nil {
		t.Fatal(err)
	}
	e := tinyExperiment()
	e.Budget = NewCoreBudget(2)
	bud, err := e.Run(0) // 0 workers: sized from the budget
	if err != nil {
		t.Fatal(err)
	}
	sj, err := seq.JSON()
	if err != nil {
		t.Fatal(err)
	}
	bj, err := bud.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustCanon(t, sj), mustCanon(t, bj)) {
		t.Fatalf("budgeted sweep diverged from sequential:\nseq: %s\nbud: %s", sj, bj)
	}
	if got := e.Budget.Peak(); got > e.Budget.Total() || got < 1 {
		t.Fatalf("budget peak %d, want within [1, %d]", got, e.Budget.Total())
	}
	assertDrained(t, e.Budget)
}

// mustCanon re-marshals JSON so formatting differences can't mask or fake a
// divergence.
func mustCanon(t *testing.T, raw []byte) []byte {
	t.Helper()
	var v any
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return out
}
