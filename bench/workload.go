package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"github.com/fxrz-go/fxrz/internal/obs"
)

// runConfig is one invocation: which workload, from which seed, for how long.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	sc       scale
	fault    string // failure-path self-test: flip-blob, region-mismatch or force-429
	workDir  string // where model files go; inside the checkout
}

// result is one run of one workload.
type result struct {
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Trace     bool             `json:"trace"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
	Samples   map[string]int   `json:"samples"`
	OpHash    string           `json:"op_hash"`
	Errors    []string         `json:"errors,omitempty"`
}

// build sets one workload up. Library workloads differ only in their worker
// budget; serve workloads run nproc clients against servers with an nproc
// worker budget, generator and server sharing the process.
func build(cfg runConfig) (instance, error) {
	nproc := runtime.GOMAXPROCS(0)
	switch cfg.workload {
	case "lib_large_w1":
		return newLibInstance(cfg.sc, cfg.seed, 1, cfg.fault)
	case "lib_large_par":
		return newLibInstance(cfg.sc, cfg.seed, nproc, cfg.fault)
	case "serve_small_mix":
		return newSmallMix(cfg.sc, cfg.seed, nproc, cfg.fault, cfg.workDir)
	case "serve_batch_shard":
		return newBatchShard(cfg.sc, cfg.seed, nproc, cfg.fault, cfg.workDir)
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(names, ", "))
}

// finish turns an outcome into the common part of a result. A run is correct
// only if no op failed and every planned pack tuple actually ran.
func finish(cfg runConfig, info *setupInfo, o *outcome) result {
	r := result{
		Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace,
		Attempted: o.attempted, Failed: o.failed, Errors: o.errs,
		Metrics: map[string]value{}, Samples: map[string]int{},
		OpHash: fmt.Sprintf("%016x", info.hash),
	}
	for k, name := range opNames {
		r.Samples[name] = len(o.all(opKind(k)))
	}
	for key := range info.ratioErr {
		if !o.packed[key] {
			r.Failed++
			r.Errors = append(r.Errors, "pack tuple "+key+" never ran")
		}
	}
	r.Correct = r.Failed == 0 && r.Attempted > 0
	return r
}

// maxSetupReps caps the set-ups of a run. Set-up repeats scale.setupReps
// times, then until scale.setupBudget has been spent or this cap is reached:
// a workload that sets up in a quarter of a second gets nine samples for its
// median where a slow one gets three.
const maxSetupReps = 9

// runEndToEnd measures a workload with obs recording off and no spans.
// Set-up runs several times from scratch: setup_s is the median over those;
// train_ms adds up each model's fastest fxrz.Train over them (best-of-N like
// every other timing, see outcome.go); and two set-ups of one seed must plan
// the same ops and produce the same reference outputs or the run stops.
func runEndToEnd(cfg runConfig) (result, error) {
	var inst instance
	var setups, trains []float64 // trains: per model, its fastest Train so far
	began := time.Now()
	for rep := 0; rep < cfg.sc.setupReps || (rep < maxSetupReps && time.Since(began) < cfg.sc.setupBudget); rep++ {
		var prev *setupInfo
		if inst != nil {
			prev = inst.info()
			inst.close()
		}
		t0 := time.Now()
		next, err := build(cfg)
		if err != nil {
			return result{}, err
		}
		inst = next
		setups = append(setups, time.Since(t0).Seconds())
		for i, t := range inst.info().trainMS {
			if i == len(trains) {
				trains = append(trains, t)
			}
			trains[i] = min(trains[i], t)
		}
		if prev != nil && prev.hash != inst.info().hash {
			inst.close()
			return result{}, fmt.Errorf("%s: two set-ups of seed %d disagree (op hash %016x then %016x): training or a reference output is not deterministic",
				cfg.workload, cfg.seed, prev.hash, inst.info().hash)
		}
	}
	defer inst.close()
	debug.FreeOSMemory() // the discarded set-ups are not the measured phase's memory

	rss := watchRSS()
	o := inst.run(cfg.seconds, nil)
	peak := rss.stop()
	info := inst.info()
	r := finish(cfg, info, o)
	put := func(name string, v float64) {
		for _, d := range endToEnd {
			if d.Name == name {
				r.Metrics[name] = value{v, d.Unit}
			}
		}
	}
	put("setup_s", median(setups))
	var train float64
	for _, t := range trains {
		train += t
	}
	put("train_ms", train)
	for k, name := range opNames {
		put(name+"_p50_ms", o.p50(opKind(k)))
	}
	put("ops_per_s", o.opsPerSecond())
	var errs []float64
	for key, e := range info.ratioErr {
		if o.packed[key] {
			errs = append(errs, e)
		}
	}
	put("ratio_err_mean", mean(errs))
	put("rss_peak_mib", peak)
	return r, nil
}

// traceShare is how much of -seconds each of the two phases of a traced run
// (untraced, then traced) measures for.
const traceShare = 0.25

// runTraced produces the per-layer metrics. It measures the workload twice
// for a quarter of the time — obs off and no spans, then obs on with
// benchmark-side spans — so the difference is the tracing overhead; replays a
// few requests layer by layer; and runs the fixed-input layer pass.
func runTraced(cfg runConfig) (result, []span, error) {
	inst, err := build(cfg)
	if err != nil {
		return result{}, nil, err
	}
	defer inst.close()
	info := inst.info()
	phase := cfg.seconds * traceShare

	plain := inst.run(phase, nil)

	obs.Enable()
	obs.Reset()
	tr := newTracer()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	o := inst.run(phase, tr)
	runtime.ReadMemStats(&m1)
	snap := obs.TakeSnapshot()
	obs.Disable()

	r := finish(cfg, info, o)
	r.Attempted += plain.attempted
	r.Failed += plain.failed
	r.Correct = r.Correct && plain.failed == 0

	selfUS, err := inst.replay(tr)
	if err != nil {
		r.Correct = false
		r.Failed++
		r.Errors = append(r.Errors, err.Error())
	}
	m, err := layerPass(cfg.sc, cfg.workDir)
	if err != nil {
		return r, nil, err
	}

	m["serve.self_us"] = selfUS
	m["datagen.gen_s"] = info.genS
	if info.estimates > 0 {
		m["core.extrapolating_frac"] = float64(info.extrapolating) / float64(info.estimates)
	}
	var errs []float64
	for _, e := range info.ratioErr {
		errs = append(errs, e)
	}
	m["core.ratio_err_p90"], _ = percentile(errs, 0.90)
	if traced := o.meanRate(); traced > 0 {
		// Time per op traced over time per op untraced, minus one. Whole-phase
		// rates: the phases are too short for a median over windows.
		m["obs.trace_overhead_frac"] = plain.meanRate()/traced - 1
	}

	// What the program's own counters saw during the traced phase.
	sum := func(prefix string) float64 {
		var s int64
		for name, v := range snap.Counters {
			if strings.HasPrefix(name, prefix) {
				s += v
			}
		}
		return float64(s)
	}
	m["qos.admitted"] = sum("qos/admitted/")
	m["qos.borrowed"] = sum("qos/borrowed/")
	m["qos.shed"] = sum("qos/shed/")
	m["serve.shed"] = sum("serve/rejected/overload")
	m["ratelimit.refused"] = sum("serve/rejected/ratelimit")
	m["shard.forwarded_items"] = sum("shard/forwarded")
	m["shard.local_items"] = sum("shard/local_items")
	m["shard.retries"] = sum("shard/retry")
	m["shard.peer_err"] = sum("shard/peer_err")
	m["pool.tasks"] = sum("pool/tasks")
	m["pool.runs"] = sum("pool/runs")
	// Calls that really spread one field over several goroutines: zero on
	// lib_large_w1 or the plain baseline is not plain.
	m["pool.fanout_calls"] = sum("zfp/par_encodes") + sum("zfp/par_decodes") + sum("sz/wavefronts")
	if hit, miss := sum("entropy/scratch_hit"), sum("entropy/scratch_miss"); hit+miss > 0 {
		m["entropy.scratch_hit_frac"] = hit / (hit + miss)
	}
	var codecMS, fwdMS float64
	var fwdN int64
	for name, s := range snap.Spans {
		switch {
		case strings.HasPrefix(name, "compress/"), strings.HasPrefix(name, "decompress/"):
			codecMS += s.TotalMS
		case strings.HasPrefix(name, "shard/peer/"):
			fwdMS += s.TotalMS
			fwdN += s.Count
		}
	}
	if fwdN > 0 {
		m["shard.forward_mean_ms"] = fwdMS / float64(fwdN)
	}
	var waitMS, worst float64
	for k := range opNames {
		for _, d := range o.all(opKind(k)) {
			waitMS += d
			worst = max(worst, d)
		}
	}
	if waitMS > 0 {
		// Codec busy time per unit of time callers spent waiting. Above 1 on a
		// batch workload: the fan-out runs several codecs inside one wait.
		m["compress.time_frac"] = codecMS / waitMS
	}
	if done := float64(o.attempted - o.failed); done > 0 {
		m["go.alloc_bytes_per_op"] = float64(m1.TotalAlloc-m0.TotalAlloc) / done
		m["go.allocs_per_op"] = float64(m1.Mallocs-m0.Mallocs) / done
		if strings.HasPrefix(cfg.workload, "serve_") {
			m["serve.alloc_bytes_per_req"] = m["go.alloc_bytes_per_op"]
		}
	}
	m["go.gc_pause_ms"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6
	if strings.HasPrefix(cfg.workload, "serve_") {
		// The p90 is best-of-passes like the end-to-end timings; p99 and max
		// are over every sample of the phase, interference and all. A p99
		// with fewer than ten samples beyond it is one slow request, not a
		// percentile: it is refused and reads 0.
		for _, k := range []opKind{opEstimate, opPack, opUnpack} {
			m["serve."+opNames[k]+"_p90_ms"] = o.p90(k)
			if p99, enough := percentile(o.all(k), 0.99); enough {
				m["serve."+opNames[k]+"_p99_ms"] = p99
			}
		}
		m["serve.max_ms"] = worst
	}

	// Every per-layer metric is reported on every workload; a layer the
	// workload never entered reads 0.
	for _, d := range perLayer {
		r.Metrics[d.Name] = value{m[d.Name], d.Unit}
	}
	var unknown []string
	for name := range m {
		if _, ok := r.Metrics[name]; !ok {
			unknown = append(unknown, name)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return r, nil, fmt.Errorf("layer metrics missing from the catalog: %s", strings.Join(unknown, ", "))
	}
	return r, tr.spans, nil
}
