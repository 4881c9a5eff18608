package main

import (
	"encoding/json"
	"fmt"
	"time"

	"dftmsn/internal/packet"
	"dftmsn/internal/scenario"
)

// simWorkload describes a workload of back-to-back simulation jobs: a
// fixed job list (one pass) repeated while the run's time lasts.
type simWorkload struct {
	pass []job
	// warmup is the untimed job set-up runs after generating configs.
	warmup job
}

// oneClass reports whether every job of the pass is of one class. Only
// then are job percentiles reported: in a mix of classes they would land
// in the gap between them.
func oneClass(pass []job) bool {
	for _, j := range pass {
		if j.class != pass[0].class {
			return false
		}
	}
	return true
}

// jobTiming is what one job cost, split at the layer boundaries.
type jobTiming struct {
	class               string
	newD, runD, digestD time.Duration
	newAllocBytes       float64
	nodes               int
	fired               uint64
	ok                  bool
}

// layerCounts sums the exact per-layer outcomes of a pass from its Results.
type layerCounts struct {
	framesSent, collisions    uint64
	rts, cts, data, ack       uint64
	dropsFull, dropsThreshold uint64
	sleeps                    uint64
	dutySum, ratioSum         float64
	fired, elided             uint64
	jobs                      int
}

func (c *layerCounts) add(r *scenario.Result) {
	for _, n := range r.Channel.FramesSent {
		c.framesSent += n
	}
	c.collisions += r.Channel.Collisions
	c.rts += r.Channel.FramesSent[packet.KindRTS]
	c.cts += r.Channel.FramesSent[packet.KindCTS]
	c.data += r.Channel.FramesSent[packet.KindData]
	c.ack += r.Channel.FramesSent[packet.KindAck]
	c.dropsFull += r.DropsFull
	c.dropsThreshold += r.DropsThreshold
	c.sleeps += r.Sleeps
	c.dutySum += r.AvgDutyCycle
	c.ratioSum += r.Delivery.DeliveryRatio
	c.fired += r.Events
	c.elided += r.EventsElided
	c.jobs++
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func (c *layerCounts) report(rep *report) {
	rep.layer("radio.frames_sent", float64(c.framesSent))
	rep.layer("radio.collisions", float64(c.collisions))
	rep.layer("mac.cts_per_rts", ratio(float64(c.cts), float64(c.rts)))
	rep.layer("mac.ack_per_data", ratio(float64(c.ack), float64(c.data)))
	rep.layer("buffer.drops_full", float64(c.dropsFull))
	rep.layer("buffer.drops_threshold", float64(c.dropsThreshold))
	rep.layer("core.sleeps", float64(c.sleeps))
	rep.layer("core.duty_cycle", ratio(c.dutySum, float64(c.jobs)))
	rep.layer("routing.delivery_ratio", ratio(c.ratioSum, float64(c.jobs)))
	rep.layer("sim.events_fired", float64(c.fired))
	rep.layer("sim.events_elided", float64(c.elided))
	rep.layer("sim.elided_share", ratio(float64(c.elided), float64(c.fired+c.elided)))
}

// runSimJob is one job: decode the config and build the run (New), run it
// (Run), then encode the Result as JSON and hash its projection (digest).
// With a ledger, the post-event hook attributes Run time to event labels.
func runSimJob(j job, exp expectations, led *ledger, tr *tracer, counts *layerCounts) (jobTiming, error) {
	root := tr.id()
	t0 := time.Now()
	a0 := readRuntime().allocBytes
	cfg, err := scenario.DecodeConfig(j.config)
	if err != nil {
		return jobTiming{}, fmt.Errorf("%s: %w", j.key, err)
	}
	s, err := scenario.New(cfg)
	if err != nil {
		return jobTiming{}, fmt.Errorf("%s: %w", j.key, err)
	}
	a1 := readRuntime().allocBytes
	if led != nil {
		led.arm(s.Scheduler())
	}
	t1 := time.Now()
	res, err := s.Run()
	t2 := time.Now()
	if err != nil {
		return jobTiming{}, fmt.Errorf("%s: %w", j.key, err)
	}
	if _, err := json.Marshal(res); err != nil {
		return jobTiming{}, fmt.Errorf("%s: digest: %w", j.key, err)
	}
	ok := exp.verify(j.key, &res)
	t3 := time.Now()
	tr.record(tr.id(), root, "scenario.New", j.key, t0, t1)
	tr.record(tr.id(), root, "Sim.Run", j.key, t1, t2)
	tr.record(tr.id(), root, "digest", j.key, t2, t3)
	tr.record(root, 0, "job", j.key, t0, t3)
	if counts != nil {
		counts.add(&res)
	}
	return jobTiming{
		class: j.class, newD: t1.Sub(t0), runD: t2.Sub(t1), digestD: t3.Sub(t2),
		newAllocBytes: a1 - a0, nodes: j.nodes,
		fired: res.Events, ok: ok,
	}, nil
}

// runSims measures a simulation workload. Set-up (config generation plus
// one untimed warm-up job) runs setupRepeats times; setup_s is the median
// of their process CPU seconds, which leave out most host steal. The timed
// phase then repeats the pass until the next one would overrun the run's
// seconds. Traced runs alternate untraced and traced passes: end-to-end-style
// figures come from the untraced ones, the kernel ledger and spans from
// the traced ones, and their ratio is the tracing overhead.
func runSims(w func() simWorkload, o runOptions, exp expectations, rep *report) error {
	var setups []float64
	var wl simWorkload
	for i := 0; i < o.setupRepeats(); i++ {
		c0 := cpuSeconds()
		wl = w()
		jt, err := runSimJob(wl.warmup, exp, nil, nil, nil)
		if err != nil {
			return err
		}
		rep.attempt(jt.ok)
		setups = append(setups, cpuSeconds()-c0)
	}
	rep.e2e("setup_s", median(setups))
	rep.note("setup_cpu_s", setups)

	var tr *tracer
	var led *ledger
	var hook time.Duration
	if o.trace {
		tr = newTracer()
		led = newLedger()
		hook = hookCost()
	}
	var (
		passWall, tracedWall []float64
		// jobWall[k] and jobCPU[k] hold job k's wall and CPU seconds in
		// each untraced pass.
		jobWall      = make([][]float64, len(wl.pass))
		jobCPU       = make([][]float64, len(wl.pass))
		jobs         []jobTiming // untraced jobs, for the layer timings
		counts       layerCounts
		tracedSelf   []float64 // per traced pass: ledger total / Run time
		selfByLabel  = make([][]float64, len(kernelLabels))
		firedByLabel [otherLabel + 1]uint64
		tracedPasses int
		allocBytes   float64
	)
	var heap *heapSampler
	if o.trace {
		heap = startHeapSampler()
	}
	rt0 := readRuntime()
	start := time.Now()
	for pass := 0; ; pass++ {
		traced := o.trace && pass%2 == 1
		if pass >= o.minPasses() {
			est := max(median(passWall), median(tracedWall))
			if time.Since(start).Seconds()+est > o.seconds {
				break
			}
		}
		var pl *ledger
		var ptr *tracer
		if traced {
			pl, ptr = led, tr
			*pl = ledger{epoch: led.epoch}
		}
		p0, a0 := time.Now(), readRuntime().allocBytes
		var runNs int64
		for k, j := range wl.pass {
			var cnt *layerCounts
			if traced && tracedPasses == 0 {
				cnt = &counts
			}
			t0, c0 := time.Now(), cpuSeconds()
			jt, err := runSimJob(j, exp, pl, ptr, cnt)
			if err != nil {
				return err
			}
			rep.attempt(jt.ok)
			runNs += int64(jt.runD)
			if !traced {
				jobWall[k] = append(jobWall[k], time.Since(t0).Seconds())
				jobCPU[k] = append(jobCPU[k], cpuSeconds()-c0)
				jobs = append(jobs, jt)
			}
		}
		wall := time.Since(p0).Seconds()
		if traced {
			tracedWall = append(tracedWall, wall)
			for i := range kernelLabels {
				self := float64(pl.selfNs[i]) - float64(hook)*float64(pl.fired[i])
				selfByLabel[i] = append(selfByLabel[i], self/1e6)
			}
			selfNs := pl.total()
			tracedSelf = append(tracedSelf, float64(selfNs)/float64(runNs))
			for i := range firedByLabel {
				firedByLabel[i] += pl.fired[i]
			}
			tracedPasses++
			continue
		}
		passWall = append(passWall, wall)
		allocBytes += readRuntime().allocBytes - a0
	}
	rt1 := readRuntime()

	// A pass's figures are rebuilt from each job's median over the passes,
	// so a burst of host noise that hits one job in one pass is filtered
	// out per job rather than moving the whole pass.
	var wall, cpu float64
	var lat []float64
	for k := range wl.pass {
		wall += median(jobWall[k])
		cpu += median(jobCPU[k])
		for _, x := range jobWall[k] {
			lat = append(lat, 1000*x)
		}
	}
	rep.layer("wall_s", wall)
	rep.e2e("cpu_s", cpu)
	rep.e2e("peak_rss_mb", peakRSSMB())
	rep.e2e("alloc_mb_per_job", allocBytes/float64(len(jobs))/(1<<20))
	if oneClass(wl.pass) {
		rep.layer("job_p50_ms", quantile(lat, 0.5))
		rep.layer("job_p90_ms", quantile(lat, 0.9))
	}
	rep.samples = len(lat)
	rep.passes = len(passWall)
	rep.note("pass_wall_s", passWall)

	if !o.trace {
		return nil
	}
	var newMs, newKB, runMs, digestMs []float64
	var runNsAll int64
	var firedAll uint64
	byScheme := map[string][]float64{}
	for _, j := range jobs {
		newMs = append(newMs, ms(j.newD))
		newKB = append(newKB, j.newAllocBytes/1024/float64(j.nodes))
		runMs = append(runMs, ms(j.runD))
		digestMs = append(digestMs, ms(j.digestD))
		byScheme[j.class] = append(byScheme[j.class], ms(j.runD))
		runNsAll += int64(j.runD)
		firedAll += j.fired
	}
	rep.layer("scenario.new_ms", median(newMs))
	rep.layer("scenario.new_kb_per_node", median(newKB))
	rep.layer("scenario.run_ms", median(runMs))
	rep.layer("scenario.digest_ms", median(digestMs))
	rep.layer("sim.ns_per_event", ratio(float64(runNsAll), float64(firedAll)))
	for scheme, xs := range byScheme {
		rep.layer("routing.run_ms."+scheme, median(xs))
	}
	counts.report(rep)
	for i, l := range kernelLabels {
		rep.layer("sim.self_ms."+l, median(selfByLabel[i]))
		rep.layer("sim.fired."+l, float64(firedByLabel[i])/float64(tracedPasses))
	}
	var allFired uint64
	for _, f := range firedByLabel {
		allFired += f
	}
	hookMs := float64(hook) * float64(allFired) / float64(tracedPasses) / 1e6
	rep.layer("sim.hook_overhead_ms", hookMs)
	rep.layer("sim.reconcile_share", median(tracedSelf))
	rep.layer("trace.overhead_share", median(tracedWall)/median(passWall)-1)
	rep.layer("go.gc_cycles", rt1.gcCycles-rt0.gcCycles)
	rep.layer("go.gc_cpu_share", ratio(rt1.gcCPU-rt0.gcCPU, rt1.busyCPU-rt0.busyCPU))
	rep.layer("go.heap_peak_mb", heap.Stop())
	if err := tr.write(o.spanPath); err != nil {
		return err
	}
	rep.note("spans", o.spanPath)
	rep.note("reconcile_tolerance", reconcileTolerance)
	share := median(tracedSelf)
	rep.note("reconciled", share <= 1+reconcileTolerance && share >= 1-reconcileTolerance)
	return nil
}

// reconcileTolerance is how far the per-label self times plus hook
// overhead may fall short of the Sim.Run spans they partition: the
// remainder is Run's own set-up and finalisation outside any event.
const reconcileTolerance = 0.05
