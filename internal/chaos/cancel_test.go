package chaos

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dftmsn/internal/sim"
)

// failingCampaign is a small campaign guaranteed to fail: no delivery ratio
// reaches the impossible 1.1 bound, so every run breaches it and shrinking
// always has a failure to minimize.
func failingCampaign() Campaign {
	return Campaign{Base: smallBase(), Runs: 3, Seed: 3, MinDeliveryRatio: 1.1}
}

// TestCampaignCancelBeforeAnyRun checks that an already-fired probe stops
// the campaign before it simulates or persists anything.
func TestCampaignCancelBeforeAnyRun(t *testing.T) {
	state := filepath.Join(t.TempDir(), "campaign.jsonl")
	c := Campaign{Base: smallBase(), Runs: 5, Seed: 11, StateFile: state,
		Cancel: func() bool { return true }}
	sum, err := c.Run()
	if !errors.Is(err, sim.ErrCancelled) {
		t.Fatalf("Run = %v, want an error wrapping sim.ErrCancelled", err)
	}
	if sum.Checks != 0 {
		t.Fatalf("cancelled campaign did %d invariant checks, want 0", sum.Checks)
	}
	data, rerr := os.ReadFile(state)
	if rerr != nil {
		t.Fatal(rerr)
	}
	// Header only: no run record may reach the state file, so a resume
	// re-executes everything and reaches uninterrupted verdicts.
	if lines := strings.Count(strings.TrimSpace(string(data)), "\n"); lines != 0 {
		t.Fatalf("state file has %d run records after full cancellation, want 0:\n%s", lines+1, data)
	}
}

// TestCancelledCampaignResumesToSameVerdicts is the crash-safety claim for
// cancellation: cancel a campaign partway, resume it from the state file,
// and the verdicts must match an uninterrupted campaign's exactly.
func TestCancelledCampaignResumesToSameVerdicts(t *testing.T) {
	base := Campaign{Base: smallBase(), Runs: 6, Seed: 5, Workers: 1}
	want, err := base.Run()
	if err != nil {
		t.Fatal(err)
	}

	state := filepath.Join(t.TempDir(), "campaign.jsonl")
	interrupted := base
	interrupted.StateFile = state
	calls := 0
	interrupted.Cancel = func() bool { calls++; return calls > 3 }
	if _, err := interrupted.Run(); !errors.Is(err, sim.ErrCancelled) {
		t.Fatalf("interrupted Run = %v, want sim.ErrCancelled", err)
	}

	resumed := base
	resumed.StateFile = state
	resumed.Resume = true
	got, err := resumed.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got.Checks != want.Checks || got.MeanDeliveryRatio != want.MeanDeliveryRatio ||
		got.CopiesLost != want.CopiesLost || got.FailureCount != want.FailureCount {
		t.Fatalf("resumed campaign differs from uninterrupted:\n%s---\n%s", got.Format(), want.Format())
	}
}

// TestShrinkTotalBudgetTruncates pins that an expired total budget stops
// the minimization immediately and surfaces as FailureReport.Truncated and
// in the text report.
func TestShrinkTotalBudgetTruncates(t *testing.T) {
	c := failingCampaign()
	c.ShrinkTotalBudget = time.Nanosecond
	sum, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	m := sum.Minimized
	if m == nil {
		t.Fatal("no minimized report despite a guaranteed failure")
	}
	if !m.Truncated {
		t.Fatal("expired total budget did not mark the shrink truncated")
	}
	if m.ShrinkRuns != 0 {
		t.Fatalf("expired total budget still ran %d candidates, want 0", m.ShrinkRuns)
	}
	// The untouched plan must still be reported, with its full clause set.
	if m.Clauses != ClauseCount(m.Failure.Plan) {
		t.Fatalf("truncated shrink reports %d clauses, want the original %d",
			m.Clauses, ClauseCount(m.Failure.Plan))
	}
	if !strings.Contains(sum.Format(), "shrink truncated") {
		t.Fatalf("report does not surface the truncation:\n%s", sum.Format())
	}
}

// TestShrinkCandidateBudgetTruncates pins the per-candidate bound: with a
// vanishing budget every candidate is cancelled mid-run, every clause is
// conservatively kept, and the shrink is marked truncated.
func TestShrinkCandidateBudgetTruncates(t *testing.T) {
	c := failingCampaign()
	c.ShrinkCandidateBudget = time.Nanosecond
	sum, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	m := sum.Minimized
	if m == nil {
		t.Fatal("no minimized report despite a guaranteed failure")
	}
	if !m.Truncated {
		t.Fatal("over-budget candidates did not mark the shrink truncated")
	}
	if m.Clauses != ClauseCount(m.Failure.Plan) {
		t.Fatalf("cancelled candidates dropped clauses: %d kept of %d",
			m.Clauses, ClauseCount(m.Failure.Plan))
	}
}

// TestShrinkUnbudgetedNotTruncated guards the zero value: no budgets, no
// truncation flag.
func TestShrinkUnbudgetedNotTruncated(t *testing.T) {
	sum, err := failingCampaign().Run()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Minimized == nil || sum.Minimized.Truncated {
		t.Fatalf("unbudgeted shrink reported truncated: %+v", sum.Minimized)
	}
}
