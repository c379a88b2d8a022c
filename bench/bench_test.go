package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestMedianAndQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got := median(ten); got != 5.5 {
		t.Errorf("median(1..10) = %v, want 5.5", got)
	}
	if q1, q3 := quartiles(ten); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
	if q1, q3 := quartiles([]float64{3, 1, 4, 2, 5}); q1 != 1.5 || q3 != 4.5 {
		t.Errorf("quartiles(1..5) = %v, %v, want 1.5, 4.5", q1, q3)
	}
	if got := median([]float64{7, 1, 3}); got != 3 {
		t.Errorf("median(7,1,3) = %v, want 3", got)
	}
	if got := spread(ten); math.Abs(got-1.0) > 1e-12 { // (8.25-2.75)/5.5
		t.Errorf("spread(1..10) = %v, want 1", got)
	}
	if q1, q3 := quartiles([]float64{4}); q1 != 4 || q3 != 4 {
		t.Errorf("quartiles of one value = %v, %v, want the value", q1, q3)
	}
}

func TestPercentileRefusesThinTails(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: percentile must sort
		}
		return xs
	}
	if v, enough := percentile(seq(100), 0.90); v != 90 || !enough {
		t.Errorf("p90 of 1..100 = %v, enough=%v; want 90 with exactly ten samples beyond", v, enough)
	}
	if v, enough := percentile(seq(99), 0.90); v != 90 || enough {
		t.Errorf("p90 of 1..99 = %v, enough=%v; want 90 refused: nine samples beyond", v, enough)
	}
	if _, enough := percentile(seq(500), 0.99); enough {
		t.Error("p99 of 500 samples has five beyond it and must be refused")
	}
	if _, enough := percentile(nil, 0.9); enough {
		t.Error("an empty sample supports no percentile")
	}
}

// passOf builds a pass with the given pack times.
func passOf(caller int, wall float64, packs ...float64) *pass {
	p := &pass{caller: caller, wall: time.Duration(wall * float64(time.Second))}
	p.calls[opPack] = packs
	return p
}

func TestTimingMetricsComeFromTheFastestPasses(t *testing.T) {
	o := newOutcome()
	o.passes = []*pass{
		passOf(0, 2.0, 3, 30, 3, 30), // a pass the neighbours slowed
		passOf(0, 1.0, 1, 9, 1, 9),   // the quiet pass
		passOf(1, 4.0, 2, 18, 2, 18),
	}
	// Serve workloads: the quiet pass's median.
	if got := o.p50(opPack); got != 5 {
		t.Errorf("p50 = %v, want 5 (median of the fastest pass)", got)
	}
	// Lib workloads: two call populations, 1 ms and 9 ms; the mean does not
	// sit on the edge between the modes.
	o.mean = true
	if got := o.p50(opPack); got != 5 {
		t.Errorf("mean-based p50 = %v, want 5", got)
	}
	if got := o.p50(opRegion); got != 0 {
		t.Errorf("p50 of an op that never ran = %v, want 0", got)
	}
	// Each caller's best rate adds up: 4 ops in 1 s and 4 ops in 4 s.
	if got := o.opsPerSecond(); got != 5 {
		t.Errorf("ops_per_s = %v, want 5", got)
	}
	// A p90 is within one pass too: the lowest over the passes.
	if got := o.p90(opPack); got != 9 {
		t.Errorf("p90 = %v, want 9 (the quiet pass's own)", got)
	}
}

func TestFailedOpsGiveNoLatencySample(t *testing.T) {
	o, p := newOutcome(), &pass{}
	o.record(p, opUnpack, 1e6, nil)
	o.record(p, opUnpack, 1, errors.New("wrong bytes"))
	if o.attempted != 2 || o.failed != 1 || len(p.calls[opUnpack]) != 1 {
		t.Errorf("attempted %d failed %d samples %d, want 2 1 1", o.attempted, o.failed, len(p.calls[opUnpack]))
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestCatalogMatchesJSON keeps BENCHMARK.json and the compiled-in catalog in
// step, and both inside the limits the acceptance driver refuses a file for.
func TestCatalogMatchesJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Fatalf("BENCHMARK.json is %d bytes, limit 64 KiB", len(raw))
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatalf("BENCHMARK.json must have exactly the contract's keys: %v", err)
	}
	if !reflect.DeepEqual(spec.Paths, []string{"bench"}) || spec.RunSeconds != defaultSeconds {
		t.Errorf("paths %v run_seconds %d, want [bench] %d", spec.Paths, spec.RunSeconds, defaultSeconds)
	}
	if want := []string{"bash", "bench/run.sh"}; !reflect.DeepEqual(spec.Command, want) {
		t.Errorf("command %v, want %v", spec.Command, want)
	}
	seen := map[string]bool{}
	check := func(name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("name %q breaks the naming rule", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	if len(spec.Workloads) != len(workloads) || len(spec.Workloads) < 2 || len(spec.Workloads) > 8 {
		t.Fatalf("%d workloads in JSON, %d in the catalog", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		check(w.Name)
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: JSON %q/%q, catalog %q/%q", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) || len(endToEnd) > 16 {
		t.Fatalf("%d end-to-end metrics in JSON, %d in the catalog", len(spec.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, m := range spec.EndToEnd {
		check(m.Name)
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end %d: JSON %+v, catalog %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("setup_s (s, lower) must be an end-to-end metric")
	}
	if len(spec.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics in JSON, %d in the catalog", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		check(m.Name)
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer %d: JSON %+v, catalog %+v", i, m, d)
		}
	}
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q breaks the unit rule", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better %q", d.Name, d.Better)
		}
	}
}

func smokeConfig(t *testing.T, workload string, seed int64, trace bool) runConfig {
	return runConfig{
		workload: workload, seed: seed, seconds: 0.15, trace: trace,
		sc: smokeScale(), workDir: t.TempDir(),
	}
}

func TestSeedFixesTheOpSequence(t *testing.T) {
	for _, w := range workloads {
		hash := func(seed int64) uint64 {
			inst, err := build(smokeConfig(t, w.Name, seed, false))
			if err != nil {
				t.Fatalf("%s seed %d: %v", w.Name, seed, err)
			}
			defer inst.close()
			return inst.info().hash
		}
		a, b, c := hash(7), hash(7), hash(8)
		if a != b {
			t.Errorf("%s: seed 7 planned two different op sequences (%x, %x)", w.Name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 planned the same op sequence (%x)", w.Name, a)
		}
	}
}

// TestSmokeAllWorkloads drives every workload end to end on tiny fields:
// set-up, the closed loop with verification of every output, the shard ring,
// and the traced run with its decomposed replay and layer pass.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			r, _, err := runOne(smokeConfig(t, w.Name, 1, false))
			if err != nil {
				t.Fatal(err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d errors=%v", r.Correct, r.Attempted, r.Failed, r.Errors)
			}
			for _, d := range endToEnd {
				if v, ok := r.Metrics[d.Name]; !ok || !(v.Value > 0) || v.Unit != d.Unit {
					t.Errorf("%s = %+v (present %v): every end-to-end metric must be reported and never 0", d.Name, v, ok)
				}
			}
			if len(r.Metrics) != len(endToEnd) {
				t.Errorf("%d metrics reported, want exactly the %d end-to-end ones", len(r.Metrics), len(endToEnd))
			}

			tr, spans, err := runOne(smokeConfig(t, w.Name, 1, true))
			if err != nil {
				t.Fatal(err)
			}
			if !tr.Correct {
				t.Fatalf("traced run incorrect: %v", tr.Errors)
			}
			if len(tr.Metrics) != len(perLayer) {
				t.Errorf("%d metrics reported, want exactly the %d per-layer ones", len(tr.Metrics), len(perLayer))
			}
			for _, d := range perLayer {
				if _, ok := tr.Metrics[d.Name]; !ok {
					t.Errorf("traced run does not report %s", d.Name)
				}
			}
			if len(spans) == 0 {
				t.Error("traced run recorded no spans")
			}
			children := 0
			for _, s := range spans {
				if s.End < s.Start {
					t.Fatalf("span %+v ends before it starts", s)
				}
				if s.Parent != 0 {
					children++
				}
			}
			if children == 0 {
				t.Error("the decomposed replay recorded no child spans")
			}
			val := func(name string) float64 { return tr.Metrics[name].Value }
			switch w.Name {
			case "lib_large_w1":
				if val("pool.fanout_calls") != 0 || val("qos.admitted") != 0 || val("shard.forwarded_items") != 0 {
					t.Errorf("the plain baseline fanned out or served: fanout %v admitted %v forwarded %v",
						val("pool.fanout_calls"), val("qos.admitted"), val("shard.forwarded_items"))
				}
			case "serve_small_mix":
				if val("qos.admitted") == 0 || val("shard.forwarded_items") != 0 || val("ratelimit.refused") != 0 {
					t.Errorf("admitted %v forwarded %v refused %v", val("qos.admitted"), val("shard.forwarded_items"), val("ratelimit.refused"))
				}
			case "serve_batch_shard":
				if val("shard.forwarded_items") == 0 || val("shard.forwarded_items") != val("shard.local_items") {
					t.Errorf("every batch must split evenly across the ring: forwarded %v local %v",
						val("shard.forwarded_items"), val("shard.local_items"))
				}
			}
		})
	}
}

// TestBrokenOutputFailsTheRun is the failure-path self-test: the benchmark
// must not be able to report a speed-up from broken output.
func TestBrokenOutputFailsTheRun(t *testing.T) {
	for _, c := range []struct{ workload, fault string }{
		{"lib_large_w1", "flip-blob"},
		{"lib_large_par", "region-mismatch"},
		{"serve_small_mix", "flip-blob"},
		{"serve_small_mix", "region-mismatch"},
		{"serve_small_mix", "force-429"},
		{"serve_batch_shard", "flip-blob"},
	} {
		t.Run(c.workload+"/"+c.fault, func(t *testing.T) {
			var stdout bytes.Buffer
			err := run([]string{"-workload", c.workload, "-smoke", "-seconds", "0.1",
				"-fault", c.fault, "-workdir", t.TempDir()}, &stdout, io.Discard)
			if !errors.Is(err, errIncorrect) {
				t.Fatalf("run returned %v, want errIncorrect (a non-zero exit)", err)
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var last struct {
				Correct           bool
				Attempted, Failed int
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatal(err)
			}
			if last.Correct || last.Failed == 0 || last.Failed > last.Attempted {
				t.Errorf("result line %+v: the fault must show as counted failed ops", last)
			}
		})
	}
}

func TestResultLineAndFileRoundTrip(t *testing.T) {
	out := filepath.Join(t.TempDir(), "r.json")
	var stdout bytes.Buffer
	if err := run([]string{"--workload", "lib_large_w1", "--seed", "3", "--seconds", "0.1", "--trace", "0",
		"-smoke", "-out", out, "-workdir", t.TempDir()}, &stdout, io.Discard); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last stdout line is not one JSON object: %v", err)
	}
	var keys []string
	for k := range last {
		keys = append(keys, k)
	}
	if len(keys) != 4 || last["correct"] == nil || last["attempted"] == nil || last["failed"] == nil || last["metrics"] == nil {
		t.Errorf("result line has keys %v, want exactly correct, attempted, failed, metrics", keys)
	}
	for _, l := range lines[:len(lines)-1] {
		if f := strings.Fields(l); len(f) != 4 || f[0] != "lib_large_w1" {
			t.Errorf("line %q is not `workload metric value unit`", l)
		}
	}

	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var f resultFile
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	again, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(append(again, '\n'), raw) {
		t.Error("result file does not survive a decode/encode round trip")
	}
	if f.Schema != schema || len(f.Sets) != 1 || f.Sets[0][0].Seed != 3 || f.Box.NProc < 1 {
		t.Errorf("unexpected file contents: %+v", f)
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, pack []float64) string {
		f := resultFile{Schema: schema}
		for _, v := range pack {
			f.Sets = append(f.Sets, []result{{
				Workload: "lib_large_w1", Correct: true, Attempted: 10,
				Metrics: map[string]value{"pack_p50_ms": {v, "ms"}, "ops_per_s": {1000 / v, "1/s"}},
			}})
		}
		b, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	// The cases scale with the catalog's bound, so retuning a bound does not
	// silently turn "worse" into "ok".
	var b float64
	for _, d := range endToEnd {
		if d.Name == "pack_p50_ms" {
			b = d.Bound
		}
	}
	scaled := func(factors ...float64) []float64 {
		for i := range factors {
			factors[i] *= 10
		}
		return factors
	}
	steady := write("steady.json", scaled(1, 1.01, 0.99, 1, 1.005))
	same := write("same.json", scaled(1+b/5, 1+b/5, 1+b/4, 1+b/5, 1+b/6))
	slow := write("slow.json", scaled(1+1.6*b, 1+1.6*b, 1+1.5*b, 1+1.7*b, 1+1.6*b))
	noisy := write("noisy.json", scaled(1-2*b, 1+2*b, 1, 1-2.4*b, 1+2.4*b))

	var out bytes.Buffer
	if err := compare(steady, same, &out); err != nil {
		t.Errorf("a change of a fifth of the bound must pass: %v\n%s", err, out.String())
	}
	out.Reset()
	if err := compare(steady, slow, &out); err == nil || !strings.Contains(out.String(), "worse") {
		t.Errorf("a slowdown of 1.6 bounds must be reported worse and fail: %v\n%s", err, out.String())
	}
	if !regexp.MustCompile(`ops_per_s .* worse`).MatchString(out.String()) {
		t.Errorf("a higher-is-better metric that fell by more than its bound must be worse too:\n%s", out.String())
	}
	out.Reset()
	if err := compare(noisy, slow, &out); err != nil || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("a parent whose own spread exceeds the bound resolves nothing: %v\n%s", err, out.String())
	}
}
