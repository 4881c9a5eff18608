package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"dftmsn/internal/scenario"
	"dftmsn/internal/sweep"
)

// Request is one job submission. Exactly one payload matches Kind: "run"
// and "chaos" carry a scenario config (the same JSON schema dftsim's
// -config flag accepts), "sweep" names a predefined experiment.
type Request struct {
	// Kind selects the job type: "run", "sweep", or "chaos".
	Kind string `json:"kind"`
	// Tenant names the admission-quota bucket ("anonymous" when empty).
	Tenant string `json:"tenant,omitempty"`
	// DeadlineMS bounds the job's execution wall-clock in milliseconds
	// (0 inherits the server default). An expired deadline cancels the job
	// cooperatively at an event boundary; a cancelled run still reports
	// the partial Result of the prefix it completed.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Stream opts a "run" job into live observation: its trace-v2 event
	// stream becomes tailable at GET /v1/jobs/{id}/stream while it runs.
	// Like the deadline and tenant it is operational, not content — it
	// never feeds the cache key — but a streamed submission bypasses the
	// cache fast path, since a live stream requires actually simulating.
	Stream bool `json:"stream,omitempty"`
	// Config is the scenario configuration for "run" and "chaos" jobs.
	Config json.RawMessage `json:"config,omitempty"`
	// Sweep parameterizes a "sweep" job.
	Sweep *SweepRequest `json:"sweep,omitempty"`
	// Chaos parameterizes a "chaos" job.
	Chaos *ChaosRequest `json:"chaos,omitempty"`
}

// SweepRequest selects and scales one predefined sweep experiment.
type SweepRequest struct {
	// Experiment names the sweep: fig2, density, speed, ablation,
	// lifetime, faults, churn, loss, or extensions.
	Experiment string `json:"experiment"`
	// Paper runs at the paper's full scale instead of the quick preset.
	Paper bool `json:"paper,omitempty"`
	// DurationSeconds, Runs, Sensors, and BaseSeed override the preset
	// when nonzero.
	DurationSeconds float64 `json:"duration_s,omitempty"`
	Runs            int     `json:"runs,omitempty"`
	Sensors         int     `json:"sensors,omitempty"`
	BaseSeed        uint64  `json:"base_seed,omitempty"`
}

// ChaosRequest parameterizes a chaos campaign over the request's Config.
type ChaosRequest struct {
	// Runs is the number of randomized fault-plan runs (default 200).
	Runs int `json:"runs,omitempty"`
	// Seed is the campaign master seed (default 1).
	Seed uint64 `json:"seed,omitempty"`
	// MinDeliveryRatio and MaxRecoverySeconds are the resilience bounds.
	MinDeliveryRatio   float64 `json:"min_ratio,omitempty"`
	MaxRecoverySeconds float64 `json:"max_recovery_s,omitempty"`
	// ShrinkCandidateBudgetMS and ShrinkTotalBudgetMS bound minimization
	// wall-clock (milliseconds, 0 disables).
	ShrinkCandidateBudgetMS int64 `json:"shrink_candidate_budget_ms,omitempty"`
	ShrinkTotalBudgetMS     int64 `json:"shrink_total_budget_ms,omitempty"`
}

// experiments maps request names to the predefined sweep constructors.
var experiments = map[string]func(sweep.Options) (sweep.Experiment, error){
	"fig2":       sweep.Fig2,
	"density":    sweep.Density,
	"speed":      sweep.Speed,
	"ablation":   sweep.Ablation,
	"lifetime":   sweep.Lifetime,
	"faults":     sweep.Faults,
	"churn":      sweep.Churn,
	"loss":       sweep.Loss,
	"extensions": sweep.Extensions,
}

// DecodeRequest parses and validates one submission. Unknown fields are
// rejected at both levels (the envelope and the embedded scenario config)
// to catch typos before they silently change what gets simulated. For
// "run" and "chaos" it returns the fully defaulted scenario config.
func DecodeRequest(r io.Reader) (Request, scenario.Config, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var req Request
	if err := dec.Decode(&req); err != nil {
		return Request{}, scenario.Config{}, fmt.Errorf("service: request: %w", err)
	}
	if req.Tenant == "" {
		req.Tenant = "anonymous"
	}
	if req.DeadlineMS < 0 {
		return Request{}, scenario.Config{}, fmt.Errorf("service: negative deadline_ms %d", req.DeadlineMS)
	}
	if req.Stream && req.Kind != "run" {
		return Request{}, scenario.Config{}, fmt.Errorf("service: only run jobs can stream (kind %q)", req.Kind)
	}
	switch req.Kind {
	case "run", "chaos":
		if len(req.Config) == 0 {
			return Request{}, scenario.Config{}, fmt.Errorf("service: %q job needs a config", req.Kind)
		}
		if req.Kind == "run" && (req.Sweep != nil || req.Chaos != nil) {
			return Request{}, scenario.Config{}, fmt.Errorf("service: run job carries sweep/chaos parameters")
		}
		if req.Kind == "chaos" && req.Sweep != nil {
			return Request{}, scenario.Config{}, fmt.Errorf("service: chaos job carries sweep parameters")
		}
		cfg, err := scenario.LoadConfig(bytes.NewReader(req.Config))
		if err != nil {
			return Request{}, scenario.Config{}, err
		}
		return req, cfg, nil
	case "sweep":
		if req.Sweep == nil {
			return Request{}, scenario.Config{}, fmt.Errorf("service: sweep job needs sweep parameters")
		}
		if len(req.Config) != 0 || req.Chaos != nil {
			return Request{}, scenario.Config{}, fmt.Errorf("service: sweep job carries config/chaos parameters")
		}
		if _, ok := experiments[req.Sweep.Experiment]; !ok {
			return Request{}, scenario.Config{}, fmt.Errorf("service: unknown experiment %q", req.Sweep.Experiment)
		}
		return req, scenario.Config{}, nil
	default:
		return Request{}, scenario.Config{}, fmt.Errorf("service: unknown job kind %q", req.Kind)
	}
}

// sweepOptions resolves a SweepRequest to concrete sweep options.
func sweepOptions(sr *SweepRequest) sweep.Options {
	o := sweep.QuickOptions()
	if sr.Paper {
		o = sweep.PaperOptions()
	}
	if sr.DurationSeconds > 0 {
		o.DurationSeconds = sr.DurationSeconds
	}
	if sr.Runs > 0 {
		o.Runs = sr.Runs
	}
	if sr.Sensors > 0 {
		o.Sensors = sr.Sensors
	}
	if sr.BaseSeed != 0 {
		o.BaseSeed = sr.BaseSeed
	}
	return o
}

// chaosDefaults resolves a nil-able ChaosRequest to its defaulted value.
func chaosDefaults(cr *ChaosRequest) ChaosRequest {
	var c ChaosRequest
	if cr != nil {
		c = *cr
	}
	if c.Runs <= 0 {
		c.Runs = 200
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// requestKey computes the content address of a request's result. For runs
// the identity is the canonical config encoding plus seed (CacheKey); for
// sweeps and chaos it is the fully defaulted parameter set plus — for
// chaos — the canonical base config, so two spellings of the same job
// (explicit defaults vs. omitted fields) share one key. The deadline and
// tenant are operational, not content, and never feed the key.
func requestKey(req Request, cfg scenario.Config) (string, error) {
	switch req.Kind {
	case "run":
		return CacheKey(cfg)
	case "sweep":
		o := sweepOptions(req.Sweep)
		ident := fmt.Sprintf("experiment=%s duration=%g runs=%d sensors=%d seed=%d",
			req.Sweep.Experiment, o.DurationSeconds, o.Runs, o.Sensors, o.BaseSeed)
		return keyOf("sweep", []byte(ident)), nil
	case "chaos":
		blob, err := scenario.EncodeConfig(cfg)
		if err != nil {
			return "", err
		}
		c := chaosDefaults(req.Chaos)
		ident := fmt.Sprintf("runs=%d seed=%d min_ratio=%g max_recovery=%g cand_ms=%d total_ms=%d",
			c.Runs, c.Seed, c.MinDeliveryRatio, c.MaxRecoverySeconds,
			c.ShrinkCandidateBudgetMS, c.ShrinkTotalBudgetMS)
		return keyOf("chaos", blob, []byte(ident)), nil
	}
	return "", fmt.Errorf("service: unknown job kind %q", req.Kind)
}

// deadlineOf resolves the request deadline against the server defaults.
func deadlineOf(req Request, def, max time.Duration) time.Duration {
	d := time.Duration(req.DeadlineMS) * time.Millisecond
	if d == 0 {
		d = def
	}
	if max > 0 && (d == 0 || d > max) {
		d = max
	}
	return d
}
