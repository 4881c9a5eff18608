package main

import (
	"fmt"
	"math/rand/v2"

	"dftmsn/internal/core"
	"dftmsn/internal/scenario"
	"dftmsn/internal/sweep"
)

// job is one simulation input: a JSON scenario config in the schema that
// `dftsim -config` and dftserve accept, plus the key of its expected hash.
type job struct {
	key    string
	class  string // scheme name, for per-scheme layer timings
	config []byte
	nodes  int // sensors + sinks, for per-node memory
}

func mustJob(key string, cfg scenario.Config) job {
	b, err := scenario.EncodeConfig(cfg)
	if err != nil {
		panic(fmt.Sprintf("perfbench: encode %s: %v", key, err))
	}
	return job{key: key, class: cfg.Scheme.String(), config: b, nodes: cfg.NumSensors + cfg.NumSinks}
}

// Every job a workload can run comes from a fixed catalog, so that its
// expected hash is stored with the benchmark; the workload seed only picks
// and orders catalog entries.

const (
	// fig2Horizon shortens the paper's 25 000 s so one pass of the sweep
	// (20 points x fig2SeedsPerPass seeds) takes a few seconds.
	fig2Horizon      = 150
	fig2SeedPool     = 16
	fig2SeedsPerPass = 2

	scaleSensors     = 10000
	scaleHorizon     = 120
	scaleSeedPool    = 24
	scaleJobsPerPass = 4

	smallCombos   = 2 * 5 * 5
	smallReplicas = 32
)

// fig2Catalog is every point of sweep.Fig2 (100 sensors, paper defaults)
// at the shortened horizon, for each run seed of the pool.
func fig2Catalog() []job {
	exp, err := sweep.Fig2(sweep.Options{DurationSeconds: fig2Horizon, Runs: 1, Sensors: 100, BaseSeed: 1})
	if err != nil {
		panic(err)
	}
	var out []job
	for seed := uint64(1); seed <= fig2SeedPool; seed++ {
		for _, v := range exp.Variants {
			for _, x := range exp.Xs {
				cfg, err := v.Build(x)
				if err != nil {
					panic(err)
				}
				cfg.Seed = seed
				out = append(out, mustJob(fmt.Sprintf("fig2/%s/sinks%d/seed%d", v.Name, int(x), seed), cfg))
			}
		}
	}
	return out
}

// fig2Pass is the workload's fixed job list for a workload seed: all 20
// points of Fig. 2 for fig2SeedsPerPass distinct run seeds.
func fig2Pass(cat []job, seed uint64) []job {
	per := len(cat) / fig2SeedPool
	picks := rand.New(rand.NewPCG(seed, 0xf162)).Perm(fig2SeedPool)[:fig2SeedsPerPass]
	var out []job
	for _, p := range picks {
		out = append(out, cat[p*per:(p+1)*per]...)
	}
	return out
}

// scaleConfig is the low-duty 10k point: paper density (one node per
// 225 m², 30 m zones), 100 sinks, sparse traffic and a sleep controller
// tuned for long idle stretches (TMin 5 s, L = 12).
func scaleConfig(seed uint64) scenario.Config {
	cfg := scenario.DefaultConfig(core.SchemeOPT)
	cfg.NumSensors = scaleSensors
	cfg.NumSinks = scaleSensors / 100
	cfg.ZonesPerSide = 50 // (edge/30)² = n·225/900 zones
	cfg.FieldSize = 30 * 50
	cfg.DurationSeconds = scaleHorizon
	cfg.ArrivalMeanSeconds = 300
	p := core.DefaultParams(core.SchemeOPT)
	p.Sleep.TMin = 5
	p.Sleep.L = 12
	cfg.Params = &p
	cfg.Seed = seed
	return cfg
}

func scaleCatalog() []job {
	out := make([]job, 0, scaleSeedPool)
	for seed := uint64(1); seed <= scaleSeedPool; seed++ {
		out = append(out, mustJob(fmt.Sprintf("scale10k/seed%d", seed), scaleConfig(seed)))
	}
	return out
}

// scalePass is the fixed job list for a workload seed: scaleJobsPerPass
// distinct run seeds, so the seed changes from job to job.
func scalePass(cat []job, seed uint64) []job {
	var out []job
	for _, p := range rand.New(rand.NewPCG(seed, 0x10c)).Perm(len(cat))[:scaleJobsPerPass] {
		out = append(out, cat[p])
	}
	return out
}

// smallCatalog is the serve-mix input space: every combination of scheme
// (OPT, ZBR), sensors (30–50) and horizon (400–800 s), once per run seed of
// the pool. It is ordered replica by replica, so entry r*smallCombos+c is
// combination c with run seed r+1.
func smallCatalog() []job {
	out := make([]job, 0, smallReplicas*smallCombos)
	for r := 0; r < smallReplicas; r++ {
		for _, scheme := range []core.Scheme{core.SchemeOPT, core.SchemeZBR} {
			for sensors := 30; sensors <= 50; sensors += 5 {
				for horizon := 400; horizon <= 800; horizon += 100 {
					cfg := scenario.DefaultConfig(scheme)
					cfg.NumSensors = sensors
					cfg.DurationSeconds = float64(horizon)
					cfg.Seed = uint64(r + 1)
					key := fmt.Sprintf("small/%s/n%d/h%d/seed%d", scheme, sensors, horizon, r+1)
					out = append(out, mustJob(key, cfg))
				}
			}
		}
	}
	return out
}

// allCatalogJobs lists every job any workload seed can produce.
func allCatalogJobs() []job {
	var out []job
	out = append(out, fig2Catalog()...)
	out = append(out, scaleCatalog()...)
	out = append(out, smallCatalog()...)
	return out
}
