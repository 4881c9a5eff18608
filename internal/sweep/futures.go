package sweep

import (
	"errors"
	"fmt"

	"dftmsn/internal/faults"
	"dftmsn/internal/scenario"
	"dftmsn/internal/snapshot"
)

// FaultFuture is the outcome of one candidate fault plan evaluated against a
// shared warm checkpoint: "what would happen to this network if THIS set of
// faults hit it" for many candidate futures without re-simulating the common
// fault-free past.
type FaultFuture struct {
	// Plan is the candidate fault plan (nil for a fault-free future).
	Plan *faults.Plan
	// Result is the full-run result under the plan; bit-identical to a
	// from-scratch run of the base config with the plan substituted.
	Result scenario.Result
	// Warm reports whether the run was served from the shared checkpoint
	// (false when the plan forced a cold from-scratch run, e.g. a plan that
	// changes the burst-loss clause or acts before the checkpoint).
	Warm bool
	// Err is the evaluation error, nil on success.
	Err error
}

// EvalFaultFutures evaluates candidate fault plans against the base scenario
// on the worker pool, warm-forking each from a single checkpoint taken at
// checkpointAt seconds (quiescent instant at or after it). Plans must keep
// the base's burst-loss clause and must not act at or before the checkpoint;
// a plan that violates either falls back to a cold from-scratch run, flagged
// Warm=false, so the returned results are always the true full-run outcomes.
//
// The checkpoint is serialized once and decoded per worker, so parallel
// restores share no mutable state.
func EvalFaultFutures(base scenario.Config, checkpointAt float64, plans []*faults.Plan, workers int) ([]FaultFuture, error) {
	if len(plans) == 0 {
		return nil, errors.New("sweep: no fault futures to evaluate")
	}
	if checkpointAt < 0 || checkpointAt >= base.DurationSeconds {
		return nil, fmt.Errorf("sweep: checkpoint instant %v s outside the %v s run", checkpointAt, base.DurationSeconds)
	}
	s, err := scenario.New(base)
	if err != nil {
		return nil, fmt.Errorf("sweep: %w", err)
	}
	snap, err := s.CheckpointAt(checkpointAt)
	if err != nil {
		return nil, fmt.Errorf("sweep: %w", err)
	}
	blob, err := snapshot.EncodeBytes(snap)
	if err != nil {
		return nil, fmt.Errorf("sweep: %w", err)
	}

	futures := make([]FaultFuture, len(plans))
	errs := ParallelErrors(len(plans), workers, func(i int) error {
		futures[i] = evalOneFuture(base, blob, plans[i])
		return futures[i].Err
	})
	for i, err := range errs {
		if err != nil && futures[i].Err == nil {
			futures[i] = FaultFuture{Plan: plans[i], Err: err} // recovered panic
		}
	}
	return futures, nil
}

// evalOneFuture runs one candidate plan, warm when the checkpoint admits it
// and cold otherwise.
func evalOneFuture(base scenario.Config, blob []byte, plan *faults.Plan) FaultFuture {
	f := FaultFuture{Plan: plan}
	if snap, err := snapshot.DecodeBytes(blob); err == nil {
		if s, err := scenario.RestoreForPlan(snap, plan); err == nil {
			f.Result, f.Err = s.Run()
			f.Warm = true
			return f
		}
	}
	cfg := base
	cfg.Faults = plan
	s, err := scenario.New(cfg)
	if err != nil {
		f.Err = err
		return f
	}
	f.Result, f.Err = s.Run()
	return f
}
