package chaos

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dftmsn/internal/core"
	"dftmsn/internal/faults"
	"dftmsn/internal/scenario"
	"dftmsn/internal/simrand"
	"dftmsn/internal/sweep"
)

// smallBase is a scenario small enough for a many-run campaign in a test.
func smallBase() scenario.Config {
	cfg := scenario.DefaultConfig(core.SchemeOPT)
	cfg.NumSensors = 12
	cfg.NumSinks = 2
	cfg.DurationSeconds = 400
	cfg.ArrivalMeanSeconds = 40
	return cfg
}

func TestRandomPlanIsValidAndDeterministic(t *testing.T) {
	sawChurn, sawOutage, sawBurst, sawKill := false, false, false, false
	for i := 0; i < 50; i++ {
		rng := simrand.New(9).Split("plan").Split(string(rune('a' + i%26))).Split(string(rune('0' + i/26)))
		p := RandomPlan(rng, 400, 2)
		if err := (&p).Validate(400, 2); err != nil {
			t.Fatalf("plan %d invalid: %v", i, err)
		}
		sawChurn = sawChurn || p.Churn != nil
		sawOutage = sawOutage || len(p.SinkOutages) > 0
		sawBurst = sawBurst || p.Burst != nil
		sawKill = sawKill || len(p.Kills) > 0
	}
	if !sawChurn || !sawOutage || !sawBurst || !sawKill {
		t.Errorf("50 plans never exercised some fault class: churn=%v outage=%v burst=%v kill=%v",
			sawChurn, sawOutage, sawBurst, sawKill)
	}
	// Same stream, same plan.
	a := RandomPlan(simrand.New(3).Split("x"), 400, 2)
	b := RandomPlan(simrand.New(3).Split("x"), 400, 2)
	if ClauseCount(a) != ClauseCount(b) {
		t.Fatal("same-seed plans differ")
	}
}

func TestCleanCampaignPasses(t *testing.T) {
	c := Campaign{Base: smallBase(), Runs: 25, Seed: 11}
	sum, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !sum.Clean() {
		t.Fatalf("campaign failed:\n%s", sum.Format())
	}
	if sum.Checks == 0 {
		t.Fatal("invariant engine did no work")
	}
	if sum.Crashes == 0 || sum.SinkOutages == 0 {
		t.Errorf("fault plans inert: %d crashes, %d outages", sum.Crashes, sum.SinkOutages)
	}
	if !strings.Contains(sum.Format(), "PASS") {
		t.Errorf("summary verdict:\n%s", sum.Format())
	}
}

func TestCampaignIsReproducible(t *testing.T) {
	c := Campaign{Base: smallBase(), Runs: 8, Seed: 5}
	a, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if a.Checks != b.Checks || a.MeanDeliveryRatio != b.MeanDeliveryRatio || a.CopiesLost != b.CopiesLost {
		t.Fatalf("same-seed campaigns differ:\n%s---\n%s", a.Format(), b.Format())
	}
}

// TestCampaignBudgetMatchesSequential pins the CoreBudget threading: a
// campaign whose every run holds a slot of a shared 2-slot budget must
// reach verdicts bit-identical to the unbudgeted sequential campaign, with
// the budget's peak inside the cap.
func TestCampaignBudgetMatchesSequential(t *testing.T) {
	c := Campaign{Base: smallBase(), Runs: 8, Seed: 5, Workers: 1}
	seq, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	c.Budget = sweep.NewCoreBudget(2)
	bud, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, bud) {
		t.Fatalf("budgeted campaign diverged:\n%s---\n%s", seq.Format(), bud.Format())
	}
	if got := c.Budget.Peak(); got > 2 || got < 1 {
		t.Fatalf("budget peak %d, want within [1, 2]", got)
	}
}

// TestBrokenBuildIsCaughtAndMinimized is the acceptance check for the
// chaos harness: a build that skips the Eq. 3 sender-FTD update must be
// caught by the invariant engine and shrunk to a reproducer with at most
// two fault clauses (the breach does not need faults at all, so greedy
// clause removal should strip the plan to nearly nothing).
func TestBrokenBuildIsCaughtAndMinimized(t *testing.T) {
	base := smallBase()
	base.InjectSkipSenderFTD = true
	c := Campaign{Base: base, Runs: 6, Seed: 3}
	sum, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Clean() {
		t.Fatal("Eq. 3 mutation not caught")
	}
	if sum.Minimized == nil {
		t.Fatal("no minimized reproducer")
	}
	m := sum.Minimized
	if m.Kind != "invariant" || !strings.Contains(m.Reason, "ftd-sender") {
		t.Errorf("failure kind %q reason %q, want an ftd-sender invariant breach", m.Kind, m.Reason)
	}
	if m.Clauses > 2 {
		t.Errorf("minimized reproducer has %d fault clauses, want <= 2:\n%+v", m.Clauses, m.Minimized)
	}
	for _, want := range []string{"dftsim", "-seed", "-invariants", "-inject-skip-sender-ftd", "-telemetry"} {
		if !strings.Contains(m.Command, want) {
			t.Errorf("reproducer command missing %q: %s", want, m.Command)
		}
	}
	// The command must replay the failure: rerun the minimized plan under
	// the recorded seed and expect the same verdict. (withDefaults arms
	// the invariant engine the same way Run does.)
	c = c.withDefaults()
	res, err := c.runOnce(m.Seed, m.Minimized, nil)
	if err != nil {
		t.Fatal(err)
	}
	if kind, _, failed := c.judge(res, nil, m.Minimized); !failed || kind != "invariant" {
		t.Errorf("minimized reproducer does not reproduce (failed=%v kind=%q)", failed, kind)
	}
}

func TestDeliveryBoundFailsRuns(t *testing.T) {
	// An impossible bound turns every run into a failure and exercises the
	// bound path end to end, including shrinking.
	c := Campaign{Base: smallBase(), Runs: 4, Seed: 2, MinDeliveryRatio: 1.1}
	sum, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if sum.FailureCount != 4 {
		t.Fatalf("%d of 4 runs failed, want all", sum.FailureCount)
	}
	if sum.Minimized == nil || sum.Minimized.Kind != "bound" {
		t.Fatalf("minimized = %+v", sum.Minimized)
	}
	if !strings.Contains(sum.Format(), "FAIL") {
		t.Errorf("summary verdict:\n%s", sum.Format())
	}
}

func TestShrinkFindsMinimalClauseSubset(t *testing.T) {
	// A synthetic judge-by-plan campaign is impractical; instead check the
	// clause plumbing: decompose, rebuild, count.
	p := faults.Plan{
		Churn:       &faults.Churn{MTBFSeconds: 100, MTTRSeconds: 20},
		SinkOutages: []faults.Outage{{Sink: 0, StartSeconds: 10, DurationSeconds: 5}},
		Burst:       &faults.Burst{BadLossProb: 0.5, MeanGoodSeconds: 10, MeanBadSeconds: 5},
		Kills:       []faults.Kill{{AtSeconds: 50, Fraction: 0.1}},
	}
	if ClauseCount(p) != 4 {
		t.Fatalf("ClauseCount = %d, want 4", ClauseCount(p))
	}
	cs := clausesOf(p)
	rebuilt := buildPlan(p, cs)
	if ClauseCount(rebuilt) != 4 {
		t.Fatalf("rebuild lost clauses: %+v", rebuilt)
	}
	only := buildPlan(p, cs[1:2])
	if only.Churn != nil || len(only.SinkOutages) != 1 || only.Burst != nil || len(only.Kills) != 0 {
		t.Fatalf("subset rebuild wrong: %+v", only)
	}
}

// lateFaultPlan is a plan whose first discrete fault is late enough for a
// warm checkpoint to pay off (burst loss may start immediately; it is baked
// into the checkpoint).
func lateFaultPlan() faults.Plan {
	return faults.Plan{
		Churn:       &faults.Churn{StartSeconds: 250, MTBFSeconds: 150, MTTRSeconds: 30, Fraction: 0.3},
		SinkOutages: []faults.Outage{{Sink: 0, StartSeconds: 280, DurationSeconds: 60}},
		Kills:       []faults.Kill{{AtSeconds: 300, Fraction: 0.2}},
		Burst:       &faults.Burst{GoodLossProb: 0.01, BadLossProb: 0.5, MeanGoodSeconds: 40, MeanBadSeconds: 10},
	}
}

// TestShrinkCandidatesAreBitIdenticalWarmOrCold pins the shrink reuse
// contract: every clause-subset candidate run from the warm checkpoint must
// produce exactly the Result a cold from-scratch run produces — including
// subsets the checkpoint cannot serve (dropped burst clause), which must
// silently fall back to cold runs.
func TestShrinkCandidatesAreBitIdenticalWarmOrCold(t *testing.T) {
	c := Campaign{Base: smallBase(), MinDeliveryRatio: 1.1}.withDefaults()
	f := Failure{Seed: 77, Plan: lateFaultPlan(), Kind: "bound"}
	var stats ShrinkStats
	warm := c.warmCheckpoint(f, &stats, nil)
	if warm == nil {
		t.Fatal("no warm checkpoint for a late-fault plan")
	}
	if ff, _ := (&f.Plan).FirstFaultSeconds(); warm.time >= ff {
		t.Fatalf("checkpoint at %v s is not before the first fault at %v s", warm.time, ff)
	}
	cs := clausesOf(f.Plan)
	candidates := [][]clause{cs, cs[:0], cs[0:1], cs[1:3], cs[2:4]}
	sawWarm, sawCold := false, false
	for i, keep := range candidates {
		plan := buildPlan(f.Plan, keep)
		before := stats.Reused
		warmRes, warmErr := c.runCandidate(f.Seed, plan, warm, &stats, nil)
		coldRes, coldErr := c.runOnce(f.Seed, plan, nil)
		if (warmErr == nil) != (coldErr == nil) {
			t.Fatalf("candidate %d: warm err %v, cold err %v", i, warmErr, coldErr)
		}
		if !reflect.DeepEqual(warmRes, coldRes) {
			t.Errorf("candidate %d (%d clauses) diverges between warm and cold runs", i, len(keep))
		}
		if stats.Reused > before {
			sawWarm = true
		} else {
			sawCold = true
		}
	}
	if !sawWarm || !sawCold {
		t.Fatalf("candidate set did not exercise both paths: warm=%v cold=%v", sawWarm, sawCold)
	}
}

// TestShrinkWarmCheckpointSavesVirtualTime is the efficiency acceptance
// check: with the warm checkpoint, a shrink re-simulates strictly less
// virtual time than candidates × horizon, and reaches the same minimized
// plan a cold shrink does.
func TestShrinkWarmCheckpointSavesVirtualTime(t *testing.T) {
	c := Campaign{Base: smallBase(), MinDeliveryRatio: 1.1}.withDefaults()
	f := Failure{Seed: 77, Plan: lateFaultPlan(), Kind: "bound"}
	warmRep := c.shrink(f)
	if warmRep.Shrink.Candidates != warmRep.ShrinkRuns || warmRep.Shrink.Candidates == 0 {
		t.Fatalf("candidate accounting off: %+v vs %d reruns", warmRep.Shrink, warmRep.ShrinkRuns)
	}
	if warmRep.Shrink.Reused == 0 {
		t.Fatal("no candidate was warm-restored")
	}
	budget := float64(warmRep.Shrink.Candidates) * c.Base.DurationSeconds
	if warmRep.Shrink.VirtualSeconds >= budget {
		t.Fatalf("shrink re-simulated %.0f virtual s, not below the %.0f s cold budget",
			warmRep.Shrink.VirtualSeconds, budget)
	}

	cold := c
	cold.noWarmShrink = true
	coldRep := cold.shrink(f)
	if coldRep.Shrink.Reused != 0 {
		t.Fatalf("cold shrink reused the checkpoint: %+v", coldRep.Shrink)
	}
	if !reflect.DeepEqual(warmRep.Minimized, coldRep.Minimized) ||
		warmRep.Clauses != coldRep.Clauses || warmRep.ShrinkRuns != coldRep.ShrinkRuns {
		t.Fatalf("warm and cold shrinking disagree:\nwarm: %+v (%d clauses, %d runs)\ncold: %+v (%d clauses, %d runs)",
			warmRep.Minimized, warmRep.Clauses, warmRep.ShrinkRuns,
			coldRep.Minimized, coldRep.Clauses, coldRep.ShrinkRuns)
	}
}

// TestCampaignStateResume pins the checkpointed-campaign contract: a
// campaign interrupted partway resumes from its state file to the exact
// verdicts of an uninterrupted run, and a fully recorded campaign resumes
// without re-running anything.
func TestCampaignStateResume(t *testing.T) {
	sf := filepath.Join(t.TempDir(), "state.jsonl")
	c := Campaign{Base: smallBase(), Runs: 10, Seed: 11, StateFile: sf}
	full, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(sf)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(blob), "\n"), "\n")
	if len(lines) != 1+c.Runs {
		t.Fatalf("state file has %d lines, want header + %d records", len(lines), c.Runs)
	}

	// Simulate an interruption: keep the header and the first four records.
	if err := os.WriteFile(sf, []byte(strings.Join(lines[:5], "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	c.Resume = true
	resumed, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(full, resumed) {
		t.Fatalf("resumed campaign verdict differs:\nfull:    %+v\nresumed: %+v", full, resumed)
	}

	// The file is complete again; a further resume must re-run nothing —
	// observable as the state file not growing.
	before, err := os.ReadFile(sf)
	if err != nil {
		t.Fatal(err)
	}
	again, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(sf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(full, again) {
		t.Fatal("fully resumed campaign verdict differs")
	}
	if len(after) != len(before) {
		t.Fatalf("fully resumed campaign appended %d bytes — it re-ran recorded work", len(after)-len(before))
	}

	// A state file from a different campaign must be rejected.
	other := c
	other.Seed = 999
	if _, err := other.Run(); err == nil {
		t.Fatal("foreign state file accepted")
	}
}

// TestCampaignResumeReachesFailingVerdicts covers resume across a failing
// campaign: verdicts, failure digest and the minimized reproducer must
// match the uninterrupted run's.
func TestCampaignResumeReachesFailingVerdicts(t *testing.T) {
	sf := filepath.Join(t.TempDir(), "state.jsonl")
	c := Campaign{Base: smallBase(), Runs: 6, Seed: 3, MinDeliveryRatio: 1.1, StateFile: sf}
	full, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if full.Clean() || full.Minimized == nil {
		t.Fatalf("impossible bound produced a clean campaign: %+v", full)
	}
	blob, err := os.ReadFile(sf)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(blob), "\n"), "\n")
	if err := os.WriteFile(sf, []byte(strings.Join(lines[:3], "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	c.Resume = true
	resumed, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(full, resumed) {
		t.Fatalf("resumed failing campaign differs:\nfull:    %s\nresumed: %s", full.Format(), resumed.Format())
	}
}

// TestWorkerPanicIsRecordedNotFatal injects a panic into one campaign
// worker: the campaign must finish, judge the other runs normally, and
// surface the panicked run in the failure digest with its seed and plan.
func TestWorkerPanicIsRecordedNotFatal(t *testing.T) {
	c := Campaign{Base: smallBase(), Runs: 6, Seed: 5}
	c.testHookBeforeRun = func(i int) {
		if i == 3 {
			panic("injected worker panic")
		}
	}
	sum, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Runs != 6 {
		t.Fatalf("campaign ran %d of 6", sum.Runs)
	}
	if sum.FailureCount != 1 {
		t.Fatalf("%d failures, want exactly the panicked run:\n%s", sum.FailureCount, sum.Format())
	}
	f := sum.Failures[0]
	if f.RunIndex != 3 || f.Kind != "panic" || !strings.Contains(f.Reason, "injected worker panic") {
		t.Fatalf("panicked run misrecorded: %+v", f)
	}
	if f.Seed == 0 {
		t.Fatal("panicked run lost its seed")
	}
	if !strings.Contains(sum.Format(), "panic") {
		t.Errorf("digest does not show the panic:\n%s", sum.Format())
	}
}
