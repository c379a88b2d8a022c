// Command benchguard keeps the recorded benchmark baselines machine-readable
// and honest across PRs. It validates any number of BENCH_*.json files
// (schema is detected from content) and fails when a file is missing, is not
// valid JSON, has dropped a load-bearing field, or — for kernel baselines —
// no longer meets the speedup floors the fast paths were merged under.
//
//	benchguard BENCH_train.json BENCH_kernels.json
//
// With -deltas it instead reads `go test -bench` output on stdin, pairs each
// kernel's before/after variants, prints the old-vs-new table, and (with
// -baseline) fails when a measured speedup has regressed more than 10%
// against the recorded one. Speedups are ratios measured within a single run
// on a single machine, so the comparison is meaningful even when the box
// differs from the one that recorded the baseline.
//
//	go test -run '^$' -bench BenchmarkKernel ./... | benchguard -deltas -baseline BENCH_kernels.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// trainBaseline mirrors the schema of BENCH_train.json.
type trainBaseline struct {
	Benchmark string        `json:"benchmark"`
	Date      string        `json:"date"`
	Field     string        `json:"field"`
	Results   []trainResult `json:"results"`
}

type trainResult struct {
	Workers int     `json:"workers"`
	NsPerOp float64 `json:"ns_per_op"`
	SweepS  float64 `json:"sweep_s"`
}

// compressBaseline mirrors the schema of BENCH_compress.json: per-codec
// pack/unpack ns/elem at worker widths 1, 2 and 4, recorded with the runner
// that measured them. Parallel speedups — unlike the kernel before/after
// ratios — are only meaningful on multi-core machines, so the 1.5× pack
// floor is enforced only when the recording runner had >= 4 cores; a
// single-core recording must carry an explanatory note and is instead held
// to a bounded-overhead gate (width 4 within 1.5× of width 1).
type compressBaseline struct {
	Benchmark string          `json:"benchmark"`
	Date      string          `json:"date"`
	Field     string          `json:"field"`
	Runner    compressRunner  `json:"runner"`
	Codecs    []compressEntry `json:"codecs"`
}

type compressRunner struct {
	CPU   string `json:"cpu"`
	Cores int    `json:"cores"`
	Note  string `json:"note"`
}

type compressEntry struct {
	Name      string           `json:"name"`
	Results   []compressResult `json:"results"`
	SpeedupW4 float64          `json:"speedup_w4"`
}

type compressResult struct {
	Workers   int     `json:"workers"`
	NsPerElem float64 `json:"ns_per_elem"`
}

// requiredCodecs is the roster a compress baseline must cover, and
// compressWidths the worker widths each entry must record.
var requiredCodecs = []string{"sz_pack", "sz_unpack", "zfp_pack", "zfp_unpack"}
var compressWidths = []int{1, 2, 4}

const (
	// packSpeedupFloor is the ISSUE-mandated pack speedup at width 4 on a
	// >= 256³ field, enforceable only on multi-core recorders.
	packSpeedupFloor = 1.5
	// parallelOverheadCap bounds how much slower width 4 may run than width
	// 1 on any recorder: fan-out bookkeeping must stay cheap even when no
	// cores are available to exploit it.
	parallelOverheadCap = 1.5
	// multiCoreMin is the core count from which wall-clock speedups are
	// considered measurable.
	multiCoreMin = 4
)

// serveBaseline mirrors the schema of BENCH_serve.json: per-endpoint ns per
// request through the library directly and through a full HTTP round trip,
// with their ratio recorded as the serving overhead. Like the kernel
// before/after ratios — and unlike the parallel wall-clock speedups — the
// overhead is measured within one run on one machine, so it gates anywhere.
type serveBaseline struct {
	Benchmark string            `json:"benchmark"`
	Date      string            `json:"date"`
	Runner    compressRunner    `json:"runner"`
	Endpoints []serveEntry      `json:"endpoints"`
	Batch     []serveBatchEntry `json:"batch"`
}

type serveEntry struct {
	Name           string  `json:"name"`
	Bench          string  `json:"bench"`
	NsPerReqDirect float64 `json:"ns_per_req_direct"`
	NsPerReqHTTP   float64 `json:"ns_per_req_http"`
	Overhead       float64 `json:"overhead"`
}

// serveBatchEntry records one /v1/*-many amortization curve: per-item ns at
// each batch size (whole-batch ns/op divided by the /bN subname), the b1/b16
// per-item ratio, and the floor that ratio was merged under. Per-item cost
// must also fall (within slack) as the batch grows — a curve that bends back
// up means the batch path serializes work the single path did not.
type serveBatchEntry struct {
	Name              string             `json:"name"`
	Bench             string             `json:"bench"`
	Results           []serveBatchResult `json:"results"`
	AmortizationB16   float64            `json:"amortization_b16"`
	AmortizationFloor float64            `json:"amortization_floor"`
}

type serveBatchResult struct {
	Batch     int     `json:"batch"`
	NsPerItem float64 `json:"ns_per_item"`
}

// serveOverheadCaps bounds how much a request may cost through the HTTP
// layer relative to the direct library call: the server must stay a wrapper,
// not a tax. The caps leave headroom over the recorded overheads (which are
// inflated by the benchmark's deliberately small fixture field — the ~200us
// fixed per-request cost shrinks relative to real field sizes).
var serveOverheadCaps = map[string]float64{
	"estimate": 8.0,
	"pack":     2.0,
	"unpack":   4.0,
}

// requiredEndpoints is the roster a serve baseline must cover, and
// requiredBatchEndpoints the amortization curves it must record.
var requiredEndpoints = []string{"estimate", "pack", "unpack"}
var requiredBatchEndpoints = []string{"estimate", "pack", "unpack"}

// serveBatchSizes is the fixed batch-size ladder every curve must record.
var serveBatchSizes = []int{1, 4, 16, 64}

const (
	// batchEstimateAmortFloor is the merge-time guarantee of the batch
	// endpoints: per-item cost of the features-mode estimate at batch 16
	// must be at least 3x below batch 1, or batching is not amortizing the
	// per-request overhead it exists to amortize.
	batchEstimateAmortFloor = 3.0
	// batchMonotonicitySlack is how much a per-item cost may rise from one
	// batch size to the next before the curve counts as regressing. The
	// tolerance is wide because large-body curves (unpack at batch 16 moves
	// ~300KB requests and ~900KB responses over loopback) pick up 10-20% of
	// socket-scheduling noise on small fixtures; a batch path that actually
	// serialized work the single path did not would overshoot this by far.
	batchMonotonicitySlack = 1.25
)

// roiBaseline mirrors the schema of BENCH_roi.json: per-codec ns to decode a
// fixed subvolume out of an indexed stream versus a full decode through the
// same entry point, with the within-run ratio recorded as the region speedup.
// Like the serve overheads, the ratio is measured within one run on one
// machine, so it gates anywhere.
type roiBaseline struct {
	Benchmark string         `json:"benchmark"`
	Date      string         `json:"date"`
	Runner    compressRunner `json:"runner"`
	Regions   []roiEntry     `json:"regions"`
}

type roiEntry struct {
	Name              string  `json:"name"`
	Bench             string  `json:"bench"`
	NsFull            float64 `json:"ns_full"`
	NsRegion          float64 `json:"ns_region"`
	Speedup           float64 `json:"speedup"`
	VolumeFrac        float64 `json:"volume_frac"`
	SpeedupFloor      float64 `json:"speedup_floor"`
	IndexOverheadFrac float64 `json:"index_overhead_frac"`
	IndexOverheadCap  float64 `json:"index_overhead_cap"`
}

// requiredRegions is the roster a roi baseline must cover, and the headline
// entries' merge-time guarantees: the zfp eighth-volume decode must be >= 4x
// faster than a full decode while its index stays within 1% of the blob, and
// the sz eighth-volume decode must stay >= 2x. Both are measured against a
// plain full Decompress of the same stream. sz's floor sits lower (~2.6x
// recorded) because half of its eighth-volume decode is entropy-decoding the
// two covering slabs — half the stream — which no reconstruction kernel can
// shrink.
var requiredRegions = []string{"zfp_eighth", "sz_eighth"}

const (
	roiHeadline             = "zfp_eighth"
	roiHeadlineSpeedupFloor = 4.0
	roiHeadlineOverheadCap  = 0.01
	roiSZRegion             = "sz_eighth"
	roiSZSpeedupFloor       = 2.0
	roiSZOverheadCap        = 0.01
)

// entropyBaseline mirrors the schema of BENCH_entropy.json: the whole-stream
// serial Huffman decode versus the chunked container's parallel decode at
// worker widths 1, 2 and 4 on a >= 1M-symbol quantization-code-like stream.
// Width speedups are wall-clock and core-bound (BENCH_compress.json
// convention: the w4 floor gates only on >= multiCoreMin-core recorders, and
// a small recorder must carry an explanatory runner.note), but two bounds
// hold on any machine: chunked decode at width 1 must stay within
// parallelOverheadCap of the whole-stream decode, and the chunk table must
// cost at most blob_overhead_cap of the legacy container size.
type entropyBaseline struct {
	Benchmark string         `json:"benchmark"`
	Date      string         `json:"date"`
	Runner    compressRunner `json:"runner"`
	Entropy   []entropyEntry `json:"entropy"`
}

type entropyEntry struct {
	Name             string           `json:"name"`
	Bench            string           `json:"bench"`
	NsSerial         float64          `json:"ns_serial"`
	Results          []compressResult `json:"results"`
	SpeedupW4        float64          `json:"speedup_w4"`
	BlobOverheadFrac float64          `json:"blob_overhead_frac"`
	BlobOverheadCap  float64          `json:"blob_overhead_cap"`
}

// requiredEntropy is the roster an entropy baseline must cover, and
// entropyW4Floor the ISSUE-mandated chunked-decode speedup over the serial
// whole-stream decode at width 4 on a multi-core recorder.
var requiredEntropy = []string{"huffman_chunked"}

const (
	entropyW4Floor         = 2.0
	entropyBlobOverheadCap = 0.01
)

// kernelBaseline mirrors the schema of BENCH_kernels.json.
type kernelBaseline struct {
	Benchmark string         `json:"benchmark"`
	Date      string         `json:"date"`
	Kernels   []kernelResult `json:"kernels"`
}

type kernelResult struct {
	Name         string  `json:"name"`
	Bench        string  `json:"bench"`
	NsPerElemOld float64 `json:"ns_per_elem_before"`
	NsPerElemNew float64 `json:"ns_per_elem_after"`
	Speedup      float64 `json:"speedup"`
}

// speedupFloors are the merge-time guarantees of the kernel fast paths: a
// kernel whose ISSUE mandated a floor keeps it, and nothing is
// allowed to have regressed past 0.9× (a fast path slower than the generic
// code it replaced would be a bug, not noise).
var speedupFloors = map[string]float64{
	"sz_quantize_3d": 1.5,
	"huffman_decode": 1.3,
	"lz_compress":    2.0,
	"ca_scan":        2.0,
}

const minSpeedup = 0.9

// requiredKernels is the fixed roster a kernel baseline must cover.
var requiredKernels = []string{"sz_quantize_3d", "zfp_encode_ints", "huffman_decode", "ca_scan", "lz_compress"}

// knownSchemas names every baseline shape benchguard validates, keyed by the
// top-level field whose presence selects it. The unknown-schema error prints
// this so a misspelled or half-written baseline says what would have matched.
var knownSchemas = []struct{ key, desc string }{
	{"shard", "sharded-serving comparison baseline (BENCH_shard.json)"},
	{"load", "fxrzload mixed-load baseline (BENCH_load.json)"},
	{"entropy", "chunked-entropy decode baseline (BENCH_entropy.json)"},
	{"regions", "region-decode baseline (BENCH_roi.json)"},
	{"endpoints", "serving-overhead baseline (BENCH_serve.json)"},
	{"codecs", "parallel-compress baseline (BENCH_compress.json)"},
	{"kernels", "kernel fast-path baseline (BENCH_kernels.json)"},
	{"results", "training-sweep baseline (BENCH_train.json)"},
}

// validate checks one recorded baseline blob, dispatching on its schema.
// A load baseline also carries an "endpoints" array, so "load" is probed
// first.
func validate(raw []byte) error {
	var probe struct {
		Results   []json.RawMessage `json:"results"`
		Kernels   []json.RawMessage `json:"kernels"`
		Codecs    []json.RawMessage `json:"codecs"`
		Endpoints []json.RawMessage `json:"endpoints"`
		Regions   []json.RawMessage `json:"regions"`
		Entropy   []json.RawMessage `json:"entropy"`
		Load      json.RawMessage   `json:"load"`
		Shard     json.RawMessage   `json:"shard"`
	}
	if err := json.Unmarshal(raw, &probe); err != nil {
		return fmt.Errorf("not valid JSON: %w", err)
	}
	switch {
	case probe.Shard != nil:
		return validateShard(raw)
	case probe.Load != nil:
		return validateLoad(raw)
	case probe.Entropy != nil:
		return validateEntropy(raw)
	case probe.Regions != nil:
		return validateRoi(raw)
	case probe.Endpoints != nil:
		return validateServe(raw)
	case probe.Codecs != nil:
		return validateCompress(raw)
	case probe.Kernels != nil:
		return validateKernels(raw)
	case probe.Results != nil:
		return validateTrain(raw)
	default:
		var sb strings.Builder
		sb.WriteString("unknown schema: no recognized top-level field present; known schemas are")
		for _, s := range knownSchemas {
			fmt.Fprintf(&sb, "\n  %q -> %s", s.key, s.desc)
		}
		return fmt.Errorf("%s", sb.String())
	}
}

// loadBaseline mirrors the schema of BENCH_load.json, recorded by
// cmd/fxrzload: a mixed estimate/unpack/pack workload's totals plus
// per-endpoint latency percentiles. The p99 caps and the shed cap are
// recorded into the file by the run that measured it, so the gate travels
// with the measurement; like the compress baseline, a small recorder
// (< multiCoreMin cores) must carry an explanatory runner.note because
// absolute latencies there are indicative only.
type loadBaseline struct {
	Benchmark string         `json:"benchmark"`
	Date      string         `json:"date"`
	Runner    compressRunner `json:"runner"`
	Load      loadSummary    `json:"load"`
	Endpoints []loadEntry    `json:"endpoints"`
}

type loadSummary struct {
	Concurrency int     `json:"concurrency"`
	DurationS   float64 `json:"duration_s"`
	Mix         string  `json:"mix"`
	RegionFrac  float64 `json:"region_frac"`
	Requests    int     `json:"requests"`
	OK          int     `json:"ok"`
	Shed        int     `json:"shed"`
	Errors      int     `json:"errors"`
	ShedFrac    float64 `json:"shed_frac"`
	ShedCap     float64 `json:"shed_cap"`
	RPS         float64 `json:"rps"`
}

type loadEntry struct {
	Name     string  `json:"name"`
	Requests int     `json:"requests"`
	OK       int     `json:"ok"`
	Shed     int     `json:"shed"`
	Errors   int     `json:"errors"`
	P50MS    float64 `json:"p50_ms"`
	P90MS    float64 `json:"p90_ms"`
	P99MS    float64 `json:"p99_ms"`
	MaxMS    float64 `json:"max_ms"`
	P99CapMS float64 `json:"p99_cap_ms"`
}

// requiredLoadEndpoints is the roster a load baseline must cover — the full
// mix, or the QoS interaction between the classes went unmeasured.
var requiredLoadEndpoints = []string{"estimate", "unpack", "pack"}

func validateLoad(raw []byte) error {
	var b loadBaseline
	if err := json.Unmarshal(raw, &b); err != nil {
		return fmt.Errorf("not valid JSON: %w", err)
	}
	if err := validateCommon(b.Benchmark, b.Date); err != nil {
		return err
	}
	if b.Runner.Cores <= 0 {
		return fmt.Errorf("runner.cores must be > 0, got %d", b.Runner.Cores)
	}
	if b.Runner.Cores < multiCoreMin && b.Runner.Note == "" {
		return fmt.Errorf("runner has %d cores (< %d): a runner.note qualifying the latency percentiles is required",
			b.Runner.Cores, multiCoreMin)
	}
	l := b.Load
	if l.Concurrency <= 0 {
		return fmt.Errorf("load.concurrency must be > 0, got %d", l.Concurrency)
	}
	if !(l.DurationS > 0) {
		return fmt.Errorf("load.duration_s must be > 0, got %v", l.DurationS)
	}
	if l.Mix == "" {
		return fmt.Errorf("missing required field %q", "load.mix")
	}
	if l.RegionFrac < 0 || l.RegionFrac > 1 {
		return fmt.Errorf("load.region_frac must be in [0, 1], got %v", l.RegionFrac)
	}
	if l.Requests <= 0 {
		return fmt.Errorf("load.requests must be > 0, got %d", l.Requests)
	}
	if l.OK <= 0 {
		return fmt.Errorf("load.ok must be > 0: a baseline with no successful request measured nothing")
	}
	if l.Errors != 0 {
		return fmt.Errorf("load.errors = %d: a clean baseline has none (shed 429s are counted separately)", l.Errors)
	}
	if l.Requests != l.OK+l.Shed+l.Errors {
		return fmt.Errorf("load totals inconsistent: requests %d != ok %d + shed %d + errors %d",
			l.Requests, l.OK, l.Shed, l.Errors)
	}
	if frac := float64(l.Shed) / float64(l.Requests); l.ShedFrac < frac-0.001 || l.ShedFrac > frac+0.001 {
		return fmt.Errorf("load.shed_frac %.4f inconsistent with shed/requests %.4f", l.ShedFrac, frac)
	}
	if l.ShedCap < 0 || l.ShedCap > 1 {
		return fmt.Errorf("load.shed_cap must be in [0, 1], got %v", l.ShedCap)
	}
	if l.ShedCap > 0 && l.ShedFrac > l.ShedCap {
		return fmt.Errorf("shed fraction %.4f exceeds the recorded %.2f cap", l.ShedFrac, l.ShedCap)
	}
	if !(l.RPS > 0) {
		return fmt.Errorf("load.rps must be > 0, got %v", l.RPS)
	}
	seen := make(map[string]bool, len(b.Endpoints))
	var sumReq, sumOK, sumShed, sumErr int
	for i, e := range b.Endpoints {
		if e.Name == "" {
			return fmt.Errorf("endpoints[%d]: missing name", i)
		}
		if seen[e.Name] {
			return fmt.Errorf("endpoints[%d]: duplicate entry for %q", i, e.Name)
		}
		seen[e.Name] = true
		if e.Requests != e.OK+e.Shed+e.Errors {
			return fmt.Errorf("endpoints[%d] (%s): counts inconsistent: requests %d != ok %d + shed %d + errors %d",
				i, e.Name, e.Requests, e.OK, e.Shed, e.Errors)
		}
		if e.OK <= 0 {
			return fmt.Errorf("endpoints[%d] (%s): ok must be > 0 — no successful request, so its percentiles are fiction",
				i, e.Name)
		}
		sumReq += e.Requests
		sumOK += e.OK
		sumShed += e.Shed
		sumErr += e.Errors
		if !(e.P50MS > 0) || e.P50MS > e.P90MS || e.P90MS > e.P99MS || e.P99MS > e.MaxMS {
			return fmt.Errorf("endpoints[%d] (%s): percentiles must satisfy 0 < p50 <= p90 <= p99 <= max, got %v/%v/%v/%v",
				i, e.Name, e.P50MS, e.P90MS, e.P99MS, e.MaxMS)
		}
		if e.P99CapMS < 0 {
			return fmt.Errorf("endpoints[%d] (%s): p99_cap_ms must be >= 0, got %v", i, e.Name, e.P99CapMS)
		}
		if e.P99CapMS > 0 && e.P99MS > e.P99CapMS {
			return fmt.Errorf("endpoints[%d] (%s): p99 %.2fms exceeds the recorded %.2fms cap",
				i, e.Name, e.P99MS, e.P99CapMS)
		}
	}
	if sumReq != l.Requests || sumOK != l.OK || sumShed != l.Shed || sumErr != l.Errors {
		return fmt.Errorf("endpoint sums (%d/%d/%d/%d req/ok/shed/err) do not add up to the load totals (%d/%d/%d/%d)",
			sumReq, sumOK, sumShed, sumErr, l.Requests, l.OK, l.Shed, l.Errors)
	}
	for _, name := range requiredLoadEndpoints {
		if !seen[name] {
			return fmt.Errorf("missing required endpoint %q", name)
		}
	}
	return nil
}

// shardBaseline mirrors the schema of BENCH_shard.json, recorded by
// cmd/fxrzload -shard-out: the same batch workload driven against one
// instance and against a peered shard ring, with the sharded/single per-item
// p50 ratio recorded as the scatter-gather overhead. Both runs happen within
// one invocation on one machine, so — like the serve overheads — the ratio
// gates anywhere, while absolute latencies from a small recorder
// (< multiCoreMin cores) must carry a qualifying runner.note.
type shardBaseline struct {
	Benchmark string         `json:"benchmark"`
	Date      string         `json:"date"`
	Runner    compressRunner `json:"runner"`
	Shard     shardSummary   `json:"shard"`
}

type shardSummary struct {
	Mix         string     `json:"mix"`
	Batch       int        `json:"batch"`
	Concurrency int        `json:"concurrency"`
	Runs        []shardRun `json:"runs"`
	OverheadP50 float64    `json:"overhead_p50"`
	OverheadCap float64    `json:"overhead_cap"`
}

type shardRun struct {
	Shards    int     `json:"shards"`
	DurationS float64 `json:"duration_s"`
	Items     int     `json:"items"`
	OK        int     `json:"ok"`
	Shed      int     `json:"shed"`
	Errors    int     `json:"errors"`
	ItemP50MS float64 `json:"item_p50_ms"`
	ItemP99MS float64 `json:"item_p99_ms"`
}

func validateShard(raw []byte) error {
	var b shardBaseline
	if err := json.Unmarshal(raw, &b); err != nil {
		return fmt.Errorf("not valid JSON: %w", err)
	}
	if err := validateCommon(b.Benchmark, b.Date); err != nil {
		return err
	}
	if b.Runner.Cores <= 0 {
		return fmt.Errorf("runner.cores must be > 0, got %d", b.Runner.Cores)
	}
	if b.Runner.Cores < multiCoreMin && b.Runner.Note == "" {
		return fmt.Errorf("runner has %d cores (< %d): a runner.note qualifying the latency percentiles is required",
			b.Runner.Cores, multiCoreMin)
	}
	s := b.Shard
	if s.Mix == "" {
		return fmt.Errorf("missing required field %q", "shard.mix")
	}
	if s.Batch < 2 {
		return fmt.Errorf("shard.batch must be >= 2 (the comparison measures the /v1/*-many scatter path), got %d", s.Batch)
	}
	if s.Concurrency <= 0 {
		return fmt.Errorf("shard.concurrency must be > 0, got %d", s.Concurrency)
	}
	if len(s.Runs) < 2 {
		return fmt.Errorf("shard.runs must record the single-instance run and at least one sharded run, got %d", len(s.Runs))
	}
	seen := make(map[int]bool, len(s.Runs))
	for i, r := range s.Runs {
		if r.Shards <= 0 {
			return fmt.Errorf("runs[%d]: shards must be > 0, got %d", i, r.Shards)
		}
		if seen[r.Shards] {
			return fmt.Errorf("runs[%d]: duplicate entry for shards=%d", i, r.Shards)
		}
		seen[r.Shards] = true
		if i > 0 && r.Shards <= s.Runs[i-1].Shards {
			return fmt.Errorf("runs[%d]: shard counts must be ascending, got %d after %d", i, r.Shards, s.Runs[i-1].Shards)
		}
		if !(r.DurationS > 0) {
			return fmt.Errorf("runs[%d] (shards=%d): duration_s must be > 0, got %v", i, r.Shards, r.DurationS)
		}
		if r.Items <= 0 {
			return fmt.Errorf("runs[%d] (shards=%d): items must be > 0, got %d", i, r.Shards, r.Items)
		}
		if r.OK <= 0 {
			return fmt.Errorf("runs[%d] (shards=%d): ok must be > 0: a run with no successful item measured nothing", i, r.Shards)
		}
		if r.Errors != 0 {
			return fmt.Errorf("runs[%d] (shards=%d): errors = %d: a clean baseline has none (shed 429s are counted separately)", i, r.Shards, r.Errors)
		}
		if r.Items != r.OK+r.Shed+r.Errors {
			return fmt.Errorf("runs[%d] (shards=%d): counts inconsistent: items %d != ok %d + shed %d + errors %d",
				i, r.Shards, r.Items, r.OK, r.Shed, r.Errors)
		}
		if !(r.ItemP50MS > 0) || r.ItemP50MS > r.ItemP99MS {
			return fmt.Errorf("runs[%d] (shards=%d): percentiles must satisfy 0 < item_p50 <= item_p99, got %v/%v",
				i, r.Shards, r.ItemP50MS, r.ItemP99MS)
		}
	}
	if s.Runs[0].Shards != 1 {
		return fmt.Errorf("runs[0] must be the single-instance run (shards=1), got shards=%d", s.Runs[0].Shards)
	}
	last := s.Runs[len(s.Runs)-1]
	if last.Shards < 2 {
		return fmt.Errorf("no sharded run recorded: the last run must have shards >= 2, got %d", last.Shards)
	}
	if !(s.OverheadP50 > 0) {
		return fmt.Errorf("shard.overhead_p50 must be > 0, got %v", s.OverheadP50)
	}
	// The recorder rounds the overhead to two decimals, so the check is
	// absolute, not relative: a rounded value is within 0.005 of the ratio.
	if ratio := last.ItemP50MS / s.Runs[0].ItemP50MS; s.OverheadP50 < ratio-0.011 || s.OverheadP50 > ratio+0.011 {
		return fmt.Errorf("shard.overhead_p50 %.3f inconsistent with the sharded/single p50 ratio %.3f", s.OverheadP50, ratio)
	}
	if s.OverheadCap < 0 {
		return fmt.Errorf("shard.overhead_cap must be >= 0, got %v", s.OverheadCap)
	}
	if s.OverheadCap > 0 && s.OverheadP50 > s.OverheadCap {
		return fmt.Errorf("scatter-gather overhead %.2fx exceeds the recorded %.2fx cap", s.OverheadP50, s.OverheadCap)
	}
	return nil
}

func validateRoi(raw []byte) error {
	var b roiBaseline
	if err := json.Unmarshal(raw, &b); err != nil {
		return fmt.Errorf("not valid JSON: %w", err)
	}
	if err := validateCommon(b.Benchmark, b.Date); err != nil {
		return err
	}
	if b.Runner.Cores <= 0 {
		return fmt.Errorf("runner.cores must be > 0, got %d", b.Runner.Cores)
	}
	seen := make(map[string]roiEntry, len(b.Regions))
	for i, e := range b.Regions {
		if e.Name == "" {
			return fmt.Errorf("regions[%d]: missing name", i)
		}
		if _, dup := seen[e.Name]; dup {
			return fmt.Errorf("regions[%d]: duplicate entry for %q", i, e.Name)
		}
		seen[e.Name] = e
		if e.Bench == "" {
			return fmt.Errorf("regions[%d] (%s): missing bench", i, e.Name)
		}
		if !(e.NsFull > 0) || !(e.NsRegion > 0) {
			return fmt.Errorf("regions[%d] (%s): ns_full/ns_region must be > 0, got %v/%v",
				i, e.Name, e.NsFull, e.NsRegion)
		}
		if !(e.Speedup > 0) {
			return fmt.Errorf("regions[%d] (%s): speedup must be > 0, got %v", i, e.Name, e.Speedup)
		}
		if ratio := e.NsFull / e.NsRegion; ratio/e.Speedup > 1.01 || e.Speedup/ratio > 1.01 {
			return fmt.Errorf("regions[%d] (%s): speedup %.3f inconsistent with full/region ratio %.3f",
				i, e.Name, e.Speedup, ratio)
		}
		if !(e.VolumeFrac > 0 && e.VolumeFrac <= 1) {
			return fmt.Errorf("regions[%d] (%s): volume_frac must be in (0, 1], got %v", i, e.Name, e.VolumeFrac)
		}
		if e.SpeedupFloor > 0 && e.Speedup < e.SpeedupFloor {
			return fmt.Errorf("regions[%d] (%s): speedup %.2fx below the %.1fx floor",
				i, e.Name, e.Speedup, e.SpeedupFloor)
		}
		if e.IndexOverheadFrac < 0 {
			return fmt.Errorf("regions[%d] (%s): index_overhead_frac must be >= 0, got %v",
				i, e.Name, e.IndexOverheadFrac)
		}
		if e.IndexOverheadCap > 0 && e.IndexOverheadFrac > e.IndexOverheadCap {
			return fmt.Errorf("regions[%d] (%s): index overhead %.4f exceeds the %.2f cap",
				i, e.Name, e.IndexOverheadFrac, e.IndexOverheadCap)
		}
	}
	for _, name := range requiredRegions {
		if _, ok := seen[name]; !ok {
			return fmt.Errorf("missing required region %q", name)
		}
	}
	// The headline entries must keep their merge-time guarantees, not just
	// any self-declared floor.
	h := seen[roiHeadline]
	if h.SpeedupFloor < roiHeadlineSpeedupFloor {
		return fmt.Errorf("%s: speedup_floor %.2f below the required %.1fx", roiHeadline, h.SpeedupFloor, roiHeadlineSpeedupFloor)
	}
	if !(h.IndexOverheadCap > 0) || h.IndexOverheadCap > roiHeadlineOverheadCap {
		return fmt.Errorf("%s: index_overhead_cap %v must be in (0, %.2f]", roiHeadline, h.IndexOverheadCap, roiHeadlineOverheadCap)
	}
	s := seen[roiSZRegion]
	if s.SpeedupFloor < roiSZSpeedupFloor {
		return fmt.Errorf("%s: speedup_floor %.2f below the required %.1fx", roiSZRegion, s.SpeedupFloor, roiSZSpeedupFloor)
	}
	if !(s.IndexOverheadCap > 0) || s.IndexOverheadCap > roiSZOverheadCap {
		return fmt.Errorf("%s: index_overhead_cap %v must be in (0, %.2f]", roiSZRegion, s.IndexOverheadCap, roiSZOverheadCap)
	}
	return nil
}

func validateEntropy(raw []byte) error {
	var b entropyBaseline
	if err := json.Unmarshal(raw, &b); err != nil {
		return fmt.Errorf("not valid JSON: %w", err)
	}
	if err := validateCommon(b.Benchmark, b.Date); err != nil {
		return err
	}
	if b.Runner.Cores <= 0 {
		return fmt.Errorf("runner.cores must be > 0, got %d", b.Runner.Cores)
	}
	multiCore := b.Runner.Cores >= multiCoreMin
	if !multiCore && b.Runner.Note == "" {
		return fmt.Errorf("runner has %d cores (< %d): a runner.note explaining the un-enforceable speedup floor is required",
			b.Runner.Cores, multiCoreMin)
	}
	seen := make(map[string]entropyEntry, len(b.Entropy))
	for i, e := range b.Entropy {
		if e.Name == "" {
			return fmt.Errorf("entropy[%d]: missing name", i)
		}
		if _, dup := seen[e.Name]; dup {
			return fmt.Errorf("entropy[%d]: duplicate entry for %q", i, e.Name)
		}
		seen[e.Name] = e
		if e.Bench == "" {
			return fmt.Errorf("entropy[%d] (%s): missing bench", i, e.Name)
		}
		if !(e.NsSerial > 0) {
			return fmt.Errorf("entropy[%d] (%s): ns_serial must be > 0, got %v", i, e.Name, e.NsSerial)
		}
		byWidth := make(map[int]float64, len(e.Results))
		for j, r := range e.Results {
			if !(r.NsPerElem > 0) {
				return fmt.Errorf("entropy[%d] (%s) results[%d]: ns_per_elem must be > 0, got %v", i, e.Name, j, r.NsPerElem)
			}
			if _, dup := byWidth[r.Workers]; dup {
				return fmt.Errorf("entropy[%d] (%s): duplicate entry for workers=%d", i, e.Name, r.Workers)
			}
			byWidth[r.Workers] = r.NsPerElem
		}
		for _, w := range compressWidths {
			if _, ok := byWidth[w]; !ok {
				return fmt.Errorf("entropy[%d] (%s): missing result for workers=%d", i, e.Name, w)
			}
		}
		ratio := e.NsSerial / byWidth[4]
		if !(e.SpeedupW4 > 0) {
			return fmt.Errorf("entropy[%d] (%s): speedup_w4 must be > 0, got %v", i, e.Name, e.SpeedupW4)
		}
		if ratio/e.SpeedupW4 > 1.01 || e.SpeedupW4/ratio > 1.01 {
			return fmt.Errorf("entropy[%d] (%s): speedup_w4 %.3f inconsistent with serial/w4 ratio %.3f", i, e.Name, e.SpeedupW4, ratio)
		}
		// Chunk bookkeeping must stay cheap even with no cores to exploit:
		// a width-1 chunked decode may not run more than parallelOverheadCap
		// slower than the whole-stream decode, on any recorder.
		if byWidth[1] > parallelOverheadCap*e.NsSerial {
			return fmt.Errorf("entropy[%d] (%s): width-1 chunked decode is %.2fx slower than the whole-stream decode (overhead cap %.2fx)",
				i, e.Name, byWidth[1]/e.NsSerial, parallelOverheadCap)
		}
		if e.BlobOverheadFrac < 0 {
			return fmt.Errorf("entropy[%d] (%s): blob_overhead_frac must be >= 0, got %v", i, e.Name, e.BlobOverheadFrac)
		}
		if !(e.BlobOverheadCap > 0) || e.BlobOverheadCap > entropyBlobOverheadCap {
			return fmt.Errorf("entropy[%d] (%s): blob_overhead_cap %v must be in (0, %.2f]", i, e.Name, e.BlobOverheadCap, entropyBlobOverheadCap)
		}
		if e.BlobOverheadFrac > e.BlobOverheadCap {
			return fmt.Errorf("entropy[%d] (%s): chunk-table overhead %.5f exceeds the %.2f cap", i, e.Name, e.BlobOverheadFrac, e.BlobOverheadCap)
		}
		if multiCore && e.SpeedupW4 < entropyW4Floor {
			return fmt.Errorf("entropy[%d] (%s): chunked decode speedup %.3f at width 4 below the %.1fx floor on a %d-core runner",
				i, e.Name, e.SpeedupW4, entropyW4Floor, b.Runner.Cores)
		}
	}
	for _, name := range requiredEntropy {
		if _, ok := seen[name]; !ok {
			return fmt.Errorf("missing required entropy entry %q", name)
		}
	}
	return nil
}

func validateCompress(raw []byte) error {
	var b compressBaseline
	if err := json.Unmarshal(raw, &b); err != nil {
		return fmt.Errorf("not valid JSON: %w", err)
	}
	if err := validateCommon(b.Benchmark, b.Date); err != nil {
		return err
	}
	if b.Field == "" {
		return fmt.Errorf("missing required field %q", "field")
	}
	if b.Runner.Cores <= 0 {
		return fmt.Errorf("runner.cores must be > 0, got %d", b.Runner.Cores)
	}
	multiCore := b.Runner.Cores >= multiCoreMin
	if !multiCore && b.Runner.Note == "" {
		return fmt.Errorf("runner has %d cores (< %d): a runner.note explaining the un-enforceable speedup floor is required",
			b.Runner.Cores, multiCoreMin)
	}
	seen := make(map[string]compressEntry, len(b.Codecs))
	for i, c := range b.Codecs {
		if c.Name == "" {
			return fmt.Errorf("codecs[%d]: missing name", i)
		}
		if _, dup := seen[c.Name]; dup {
			return fmt.Errorf("codecs[%d]: duplicate entry for %q", i, c.Name)
		}
		seen[c.Name] = c
		byWidth := make(map[int]float64, len(c.Results))
		for j, r := range c.Results {
			if !(r.NsPerElem > 0) {
				return fmt.Errorf("codecs[%d] (%s) results[%d]: ns_per_elem must be > 0, got %v", i, c.Name, j, r.NsPerElem)
			}
			if _, dup := byWidth[r.Workers]; dup {
				return fmt.Errorf("codecs[%d] (%s): duplicate entry for workers=%d", i, c.Name, r.Workers)
			}
			byWidth[r.Workers] = r.NsPerElem
		}
		for _, w := range compressWidths {
			if _, ok := byWidth[w]; !ok {
				return fmt.Errorf("codecs[%d] (%s): missing result for workers=%d", i, c.Name, w)
			}
		}
		ratio := byWidth[1] / byWidth[4]
		if !(c.SpeedupW4 > 0) {
			return fmt.Errorf("codecs[%d] (%s): speedup_w4 must be > 0, got %v", i, c.Name, c.SpeedupW4)
		}
		if ratio/c.SpeedupW4 > 1.01 || c.SpeedupW4/ratio > 1.01 {
			return fmt.Errorf("codecs[%d] (%s): speedup_w4 %.3f inconsistent with w1/w4 ratio %.3f", i, c.Name, c.SpeedupW4, ratio)
		}
		if c.SpeedupW4 < 1/parallelOverheadCap {
			return fmt.Errorf("codecs[%d] (%s): width-4 run is %.2fx slower than serial (overhead cap %.2fx)",
				i, c.Name, 1/c.SpeedupW4, parallelOverheadCap)
		}
		if multiCore && strings.HasSuffix(c.Name, "_pack") && c.SpeedupW4 < packSpeedupFloor {
			return fmt.Errorf("codecs[%d] (%s): pack speedup %.3f at width 4 below the %.1fx floor on a %d-core runner",
				i, c.Name, c.SpeedupW4, packSpeedupFloor, b.Runner.Cores)
		}
	}
	for _, name := range requiredCodecs {
		if _, ok := seen[name]; !ok {
			return fmt.Errorf("missing required codec %q", name)
		}
	}
	return nil
}

func validateServe(raw []byte) error {
	var b serveBaseline
	if err := json.Unmarshal(raw, &b); err != nil {
		return fmt.Errorf("not valid JSON: %w", err)
	}
	if err := validateCommon(b.Benchmark, b.Date); err != nil {
		return err
	}
	if b.Runner.Cores <= 0 {
		return fmt.Errorf("runner.cores must be > 0, got %d", b.Runner.Cores)
	}
	seen := make(map[string]bool, len(b.Endpoints))
	for i, e := range b.Endpoints {
		if e.Name == "" {
			return fmt.Errorf("endpoints[%d]: missing name", i)
		}
		if seen[e.Name] {
			return fmt.Errorf("endpoints[%d]: duplicate entry for %q", i, e.Name)
		}
		seen[e.Name] = true
		if e.Bench == "" {
			return fmt.Errorf("endpoints[%d] (%s): missing bench", i, e.Name)
		}
		if !(e.NsPerReqDirect > 0) || !(e.NsPerReqHTTP > 0) {
			return fmt.Errorf("endpoints[%d] (%s): ns_per_req_direct/http must be > 0, got %v/%v",
				i, e.Name, e.NsPerReqDirect, e.NsPerReqHTTP)
		}
		if !(e.Overhead > 0) {
			return fmt.Errorf("endpoints[%d] (%s): overhead must be > 0, got %v", i, e.Name, e.Overhead)
		}
		if ratio := e.NsPerReqHTTP / e.NsPerReqDirect; ratio/e.Overhead > 1.01 || e.Overhead/ratio > 1.01 {
			return fmt.Errorf("endpoints[%d] (%s): overhead %.3f inconsistent with http/direct ratio %.3f",
				i, e.Name, e.Overhead, ratio)
		}
		if cap, ok := serveOverheadCaps[e.Name]; ok && e.Overhead > cap {
			return fmt.Errorf("endpoints[%d] (%s): serving overhead %.2fx exceeds the %.1fx cap",
				i, e.Name, e.Overhead, cap)
		}
	}
	for _, name := range requiredEndpoints {
		if !seen[name] {
			return fmt.Errorf("missing required endpoint %q", name)
		}
	}
	if len(b.Batch) == 0 {
		return fmt.Errorf("missing required section %q: the /v1/*-many amortization curves must be recorded", "batch")
	}
	seenBatch := make(map[string]serveBatchEntry, len(b.Batch))
	for i, e := range b.Batch {
		if e.Name == "" {
			return fmt.Errorf("batch[%d]: missing name", i)
		}
		if _, dup := seenBatch[e.Name]; dup {
			return fmt.Errorf("batch[%d]: duplicate entry for %q", i, e.Name)
		}
		seenBatch[e.Name] = e
		if e.Bench == "" {
			return fmt.Errorf("batch[%d] (%s): missing bench", i, e.Name)
		}
		byN := make(map[int]float64, len(e.Results))
		for j, r := range e.Results {
			if r.Batch <= 0 {
				return fmt.Errorf("batch[%d] (%s) results[%d]: batch must be > 0, got %d", i, e.Name, j, r.Batch)
			}
			if !(r.NsPerItem > 0) {
				return fmt.Errorf("batch[%d] (%s) results[%d]: ns_per_item must be > 0, got %v", i, e.Name, j, r.NsPerItem)
			}
			if _, dup := byN[r.Batch]; dup {
				return fmt.Errorf("batch[%d] (%s): duplicate entry for batch=%d", i, e.Name, r.Batch)
			}
			byN[r.Batch] = r.NsPerItem
		}
		for _, n := range serveBatchSizes {
			if _, ok := byN[n]; !ok {
				return fmt.Errorf("batch[%d] (%s): missing result for batch=%d", i, e.Name, n)
			}
		}
		for k := 1; k < len(serveBatchSizes); k++ {
			prev, cur := serveBatchSizes[k-1], serveBatchSizes[k]
			if byN[cur] > byN[prev]*batchMonotonicitySlack {
				return fmt.Errorf("batch[%d] (%s): per-item cost rises from %.0fns at batch %d to %.0fns at batch %d (> %.0f%% slack)",
					i, e.Name, byN[prev], prev, byN[cur], cur, (batchMonotonicitySlack-1)*100)
			}
		}
		ratio := byN[1] / byN[16]
		if !(e.AmortizationB16 > 0) {
			return fmt.Errorf("batch[%d] (%s): amortization_b16 must be > 0, got %v", i, e.Name, e.AmortizationB16)
		}
		if ratio/e.AmortizationB16 > 1.01 || e.AmortizationB16/ratio > 1.01 {
			return fmt.Errorf("batch[%d] (%s): amortization_b16 %.3f inconsistent with b1/b16 per-item ratio %.3f",
				i, e.Name, e.AmortizationB16, ratio)
		}
		if e.AmortizationFloor < 0 {
			return fmt.Errorf("batch[%d] (%s): amortization_floor must be >= 0, got %v", i, e.Name, e.AmortizationFloor)
		}
		if e.AmortizationFloor > 0 && e.AmortizationB16 < e.AmortizationFloor {
			return fmt.Errorf("batch[%d] (%s): amortization %.2fx at batch 16 below the %.1fx floor",
				i, e.Name, e.AmortizationB16, e.AmortizationFloor)
		}
	}
	for _, name := range requiredBatchEndpoints {
		if _, ok := seenBatch[name]; !ok {
			return fmt.Errorf("missing required batch endpoint %q", name)
		}
	}
	// The estimate curve must keep its merge-time floor, not just any
	// self-declared one.
	if est := seenBatch["estimate"]; est.AmortizationFloor < batchEstimateAmortFloor {
		return fmt.Errorf("batch estimate: amortization_floor %.2f below the required %.1fx", est.AmortizationFloor, batchEstimateAmortFloor)
	}
	return nil
}

func validateCommon(benchmark, date string) error {
	if benchmark == "" {
		return fmt.Errorf("missing required field %q", "benchmark")
	}
	if date == "" {
		return fmt.Errorf("missing required field %q", "date")
	}
	if _, err := time.Parse("2006-01-02", date); err != nil {
		return fmt.Errorf("date %q is not YYYY-MM-DD: %w", date, err)
	}
	return nil
}

func validateTrain(raw []byte) error {
	var b trainBaseline
	if err := json.Unmarshal(raw, &b); err != nil {
		return fmt.Errorf("not valid JSON: %w", err)
	}
	if err := validateCommon(b.Benchmark, b.Date); err != nil {
		return err
	}
	if b.Field == "" {
		return fmt.Errorf("missing required field %q", "field")
	}
	if len(b.Results) == 0 {
		return fmt.Errorf("results is empty: the baseline must record at least one worker width")
	}
	seen := make(map[int]bool, len(b.Results))
	for i, r := range b.Results {
		if r.Workers <= 0 {
			return fmt.Errorf("results[%d]: workers must be > 0, got %d", i, r.Workers)
		}
		if seen[r.Workers] {
			return fmt.Errorf("results[%d]: duplicate entry for workers=%d", i, r.Workers)
		}
		seen[r.Workers] = true
		if !(r.NsPerOp > 0) {
			return fmt.Errorf("results[%d] (workers=%d): ns_per_op must be > 0, got %v", i, r.Workers, r.NsPerOp)
		}
		if !(r.SweepS > 0) {
			return fmt.Errorf("results[%d] (workers=%d): sweep_s must be > 0, got %v", i, r.Workers, r.SweepS)
		}
	}
	return nil
}

func validateKernels(raw []byte) error {
	var b kernelBaseline
	if err := json.Unmarshal(raw, &b); err != nil {
		return fmt.Errorf("not valid JSON: %w", err)
	}
	if err := validateCommon(b.Benchmark, b.Date); err != nil {
		return err
	}
	if len(b.Kernels) == 0 {
		return fmt.Errorf("kernels is empty")
	}
	seen := make(map[string]kernelResult, len(b.Kernels))
	for i, k := range b.Kernels {
		if k.Name == "" {
			return fmt.Errorf("kernels[%d]: missing name", i)
		}
		if _, dup := seen[k.Name]; dup {
			return fmt.Errorf("kernels[%d]: duplicate entry for %q", i, k.Name)
		}
		seen[k.Name] = k
		if !(k.NsPerElemOld > 0) || !(k.NsPerElemNew > 0) {
			return fmt.Errorf("kernels[%d] (%s): ns_per_elem_before/after must be > 0, got %v/%v",
				i, k.Name, k.NsPerElemOld, k.NsPerElemNew)
		}
		if !(k.Speedup > 0) {
			return fmt.Errorf("kernels[%d] (%s): speedup must be > 0, got %v", i, k.Name, k.Speedup)
		}
		if ratio := k.NsPerElemOld / k.NsPerElemNew; ratio/k.Speedup > 1.01 || k.Speedup/ratio > 1.01 {
			return fmt.Errorf("kernels[%d] (%s): speedup %.3f inconsistent with before/after ratio %.3f",
				i, k.Name, k.Speedup, ratio)
		}
		floor := speedupFloors[k.Name]
		if floor < minSpeedup {
			floor = minSpeedup
		}
		if k.Speedup < floor {
			return fmt.Errorf("kernels[%d] (%s): speedup %.3f below floor %.2f", i, k.Name, k.Speedup, floor)
		}
	}
	for _, name := range requiredKernels {
		if _, ok := seen[name]; !ok {
			return fmt.Errorf("missing required kernel %q", name)
		}
	}
	return nil
}

// benchToKernel maps `go test -bench` names to baseline kernel names, and
// variant names to the before/after role.
var benchToKernel = map[string]string{
	"BenchmarkKernelQuantize3D":    "sz_quantize_3d",
	"BenchmarkKernelEncodeInts":    "zfp_encode_ints",
	"BenchmarkKernelHuffmanDecode": "huffman_decode",
	"BenchmarkKernelCAScan":        "ca_scan",
	"BenchmarkKernelLZCompress":    "lz_compress",
}

var variantRole = map[string]string{
	"generic": "before", "perplane": "before", "bitwise": "before", "odometer": "before", "ref": "before",
	"fast": "after", "transposed": "after", "table": "after",
}

var procSuffix = regexp.MustCompile(`-\d+$`)

// nsPerElem extracts the custom ns/elem metric from a bench output line.
func nsPerElem(fields []string) (float64, bool) {
	for i := 2; i < len(fields); i++ {
		if fields[i] == "ns/elem" {
			v, err := strconv.ParseFloat(fields[i-1], 64)
			if err != nil || !(v > 0) {
				return 0, false
			}
			return v, true
		}
	}
	return 0, false
}

// parseBenchLine extracts (kernel, role, ns/elem) from one benchmark output
// line, or ok=false for lines that are not kernel results.
func parseBenchLine(line string) (kernel, role string, nsPerElem_ float64, ok bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "BenchmarkKernel") {
		return "", "", 0, false
	}
	name := procSuffix.ReplaceAllString(fields[0], "")
	base, variant, found := strings.Cut(name, "/")
	if !found {
		return "", "", 0, false
	}
	kernel, okK := benchToKernel[base]
	role, okV := variantRole[variant]
	if !okK || !okV {
		return "", "", 0, false
	}
	v, okN := nsPerElem(fields)
	if !okN {
		return "", "", 0, false
	}
	return kernel, role, v, true
}

// parseCompressBenchLine extracts (codec entry, role, ns/elem) from a
// BenchmarkCompressPack/sz/w1-style line: width 1 plays the serial "before"
// role and width 4 the parallel "after"; width 2 is recorded but not gated.
func parseCompressBenchLine(line string) (name, role string, v float64, ok bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "BenchmarkCompress") {
		return "", "", 0, false
	}
	parts := strings.Split(procSuffix.ReplaceAllString(fields[0], ""), "/")
	if len(parts) != 3 {
		return "", "", 0, false
	}
	var op string
	switch parts[0] {
	case "BenchmarkCompressPack":
		op = "pack"
	case "BenchmarkCompressUnpack":
		op = "unpack"
	default:
		return "", "", 0, false
	}
	switch parts[2] {
	case "w1":
		role = "before"
	case "w4":
		role = "after"
	default:
		return "", "", 0, false
	}
	v, okN := nsPerElem(fields)
	if !okN {
		return "", "", 0, false
	}
	return parts[1] + "_" + op, role, v, true
}

// parseServeBenchLine extracts (endpoint, role, ns/op) from a
// BenchmarkServeEstimate/direct-style line: the direct library call plays
// the "before" role and the HTTP round trip the "after", so the pair's
// before/after ratio is the inverse of the serving overhead.
func parseServeBenchLine(line string) (name, role string, v float64, ok bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "BenchmarkServe") {
		return "", "", 0, false
	}
	parts := strings.Split(procSuffix.ReplaceAllString(fields[0], ""), "/")
	if len(parts) != 2 {
		return "", "", 0, false
	}
	base := strings.TrimPrefix(parts[0], "BenchmarkServe")
	if base == "" {
		return "", "", 0, false
	}
	switch parts[1] {
	case "direct":
		role = "before"
	case "http":
		role = "after"
	default:
		return "", "", 0, false
	}
	if fields[3] != "ns/op" {
		return "", "", 0, false
	}
	v, err := strconv.ParseFloat(fields[2], 64)
	if err != nil || !(v > 0) {
		return "", "", 0, false
	}
	return strings.ToLower(base), role, v, true
}

// batchSub matches the /bN batch-size subname of BenchmarkServeBatch* runs.
var batchSub = regexp.MustCompile(`^b(\d+)$`)

// parseServeBatchBenchLine extracts (curve, role, per-item ns) from a
// BenchmarkServeBatchEstimate/b16-style line. The benchmark reports
// whole-batch ns/op, so the value is divided by the batch size from the /bN
// subname. The b1 run plays the "before" role and b16 the "after", pairing as
// "<endpoint>_batch16" with the before/after ratio being the per-item
// amortization; the b4/b64 points are recorded in the baseline but not
// re-paired here.
func parseServeBatchBenchLine(line string) (name, role string, v float64, ok bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "BenchmarkServeBatch") {
		return "", "", 0, false
	}
	parts := strings.Split(procSuffix.ReplaceAllString(fields[0], ""), "/")
	if len(parts) != 2 {
		return "", "", 0, false
	}
	base := strings.TrimPrefix(parts[0], "BenchmarkServeBatch")
	if base == "" {
		return "", "", 0, false
	}
	m := batchSub.FindStringSubmatch(parts[1])
	if m == nil {
		return "", "", 0, false
	}
	n, err := strconv.Atoi(m[1])
	if err != nil || n <= 0 {
		return "", "", 0, false
	}
	switch n {
	case 1:
		role = "before"
	case 16:
		role = "after"
	default:
		return "", "", 0, false
	}
	if fields[3] != "ns/op" {
		return "", "", 0, false
	}
	v, err = strconv.ParseFloat(fields[2], 64)
	if err != nil || !(v > 0) {
		return "", "", 0, false
	}
	return strings.ToLower(base) + "_batch16", role, v / float64(n), true
}

// batchAmortFloors are the absolute per-item amortization floors enforced in
// -deltas mode, keyed by the paired curve name.
var batchAmortFloors = map[string]float64{
	"estimate_batch16": batchEstimateAmortFloor,
}

// parseRoiBenchLine extracts (region entry, role, ns/op) from a
// BenchmarkRegionDecode/zfp/full-style line: the full decode plays the
// "before" role and the subvolume decode the "after", so the pair's
// before/after ratio is the region speedup.
func parseRoiBenchLine(line string) (name, role string, v float64, ok bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "BenchmarkRegionDecode/") {
		return "", "", 0, false
	}
	parts := strings.Split(procSuffix.ReplaceAllString(fields[0], ""), "/")
	if len(parts) != 3 {
		return "", "", 0, false
	}
	switch parts[2] {
	case "full":
		role = "before"
	case "eighth":
		role = "after"
	default:
		return "", "", 0, false
	}
	if fields[3] != "ns/op" {
		return "", "", 0, false
	}
	v, err := strconv.ParseFloat(fields[2], 64)
	if err != nil || !(v > 0) {
		return "", "", 0, false
	}
	return parts[1] + "_eighth", role, v, true
}

// parseEntropyBenchLine pairs the chunked-entropy decode variants: the
// whole-stream serial decode is the "before" leg and the width-4 chunked
// decode the "after" leg (w1/w2 appear in the recorded baseline but carry no
// within-run gate of their own here).
func parseEntropyBenchLine(line string) (name, role string, v float64, ok bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "BenchmarkChunkedDecode/") {
		return "", "", 0, false
	}
	parts := strings.Split(procSuffix.ReplaceAllString(fields[0], ""), "/")
	if len(parts) != 3 {
		return "", "", 0, false
	}
	switch parts[2] {
	case "serial":
		role = "before"
	case "w4":
		role = "after"
	default:
		return "", "", 0, false
	}
	if fields[3] != "ns/op" {
		return "", "", 0, false
	}
	v, err := strconv.ParseFloat(fields[2], 64)
	if err != nil || !(v > 0) {
		return "", "", 0, false
	}
	return parts[1] + "_chunked", role, v, true
}

// runDeltas implements -deltas: pair up variants from bench output, print the
// old-vs-new table, and gate against the recorded baseline if one was given.
// Kernel lines pair generic/fast variants; compress lines pair the w1/w4
// worker widths. Kernel speedups are before/after ratios within one process
// and gate on any machine; compress speedups are wall-clock parallel gains,
// so they gate only when the measuring machine has >= multiCoreMin cores
// (elsewhere the table is printed for information and only missing variants
// fail).
func runDeltas(in io.Reader, out io.Writer, baselinePath string, cores int) error {
	type pair struct{ before, after float64 }
	measured := map[string]*pair{}
	compressGate := cores >= multiCoreMin
	isCompress := map[string]bool{}
	isServe := map[string]bool{}
	isRoi := map[string]bool{}
	isBatch := map[string]bool{}
	isEntropy := map[string]bool{}
	roiFloors := map[string]float64{}
	record := func(name, role string, v float64) {
		p := measured[name]
		if p == nil {
			p = &pair{}
			measured[name] = p
		}
		if role == "before" {
			p.before = v
		} else {
			p.after = v
		}
	}
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		if kernel, role, v, ok := parseBenchLine(sc.Text()); ok {
			record(kernel, role, v)
			continue
		}
		if name, role, v, ok := parseCompressBenchLine(sc.Text()); ok {
			record(name, role, v)
			isCompress[name] = true
			continue
		}
		if name, role, v, ok := parseRoiBenchLine(sc.Text()); ok {
			record(name, role, v)
			isRoi[name] = true
			continue
		}
		if name, role, v, ok := parseEntropyBenchLine(sc.Text()); ok {
			record(name, role, v)
			isEntropy[name] = true
			continue
		}
		if name, role, v, ok := parseServeBatchBenchLine(sc.Text()); ok {
			record(name, role, v)
			isBatch[name] = true
			continue
		}
		if name, role, v, ok := parseServeBenchLine(sc.Text()); ok {
			record(name, role, v)
			isServe[name] = true
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if len(measured) == 0 {
		return fmt.Errorf("no kernel or compress benchmark lines found on stdin")
	}

	recorded := map[string]float64{}
	if baselinePath != "" {
		raw, err := os.ReadFile(baselinePath)
		if err != nil {
			return err
		}
		if err := validate(raw); err != nil {
			return fmt.Errorf("%s: %w", baselinePath, err)
		}
		var kb kernelBaseline
		var cb compressBaseline
		var sb serveBaseline
		var rb roiBaseline
		var eb entropyBaseline
		_ = json.Unmarshal(raw, &kb) // validated above
		_ = json.Unmarshal(raw, &cb)
		_ = json.Unmarshal(raw, &sb)
		_ = json.Unmarshal(raw, &rb)
		_ = json.Unmarshal(raw, &eb)
		for _, e := range eb.Entropy {
			recorded[e.Name] = e.SpeedupW4
		}
		for _, k := range kb.Kernels {
			recorded[k.Name] = k.Speedup
		}
		for _, c := range cb.Codecs {
			recorded[c.Name] = c.SpeedupW4
		}
		for _, e := range sb.Endpoints {
			// The serve pair's before/after ratio is direct/http, i.e. the
			// inverse of the recorded overhead.
			recorded[e.Name] = 1 / e.Overhead
		}
		for _, e := range sb.Batch {
			recorded[e.Name+"_batch16"] = e.AmortizationB16
		}
		for _, e := range rb.Regions {
			recorded[e.Name] = e.Speedup
			roiFloors[e.Name] = e.SpeedupFloor
		}
	}

	names := make([]string, 0, len(measured))
	for name := range measured {
		names = append(names, name)
	}
	sort.Strings(names)
	var failures []string
	fmt.Fprintf(out, "%-16s %12s %12s %9s %s\n", "name", "old ns/elem", "new ns/elem", "speedup", "recorded")
	for _, name := range names {
		p := measured[name]
		if p.before == 0 || p.after == 0 {
			failures = append(failures, fmt.Sprintf("%s: missing %s variant", name,
				map[bool]string{true: "before", false: "after"}[p.before == 0]))
			continue
		}
		sp := p.before / p.after
		note := "-"
		if rec, ok := recorded[name]; ok {
			note = fmt.Sprintf("%.2fx", rec)
			switch {
			case (isCompress[name] || isEntropy[name]) && !compressGate:
				note += " (not gated: <4 cores)"
			case isRoi[name]:
				// Region pairs gate on their absolute floors below; the
				// recorded ratio stays informational, because the sz pair's
				// small ratio swings more than 10% run to run on busy boxes.
			case isBatch[name]:
				// Batch pairs likewise gate on their absolute amortization
				// floor below, not on run-to-run ratio drift.
			case sp < minSpeedup*rec:
				failures = append(failures, fmt.Sprintf(
					"%s: measured speedup %.2fx regressed >10%% against recorded %.2fx", name, sp, rec))
			}
		}
		if isServe[name] {
			if cap, ok := serveOverheadCaps[name]; ok && 1/sp > cap {
				failures = append(failures, fmt.Sprintf(
					"%s: serving overhead %.2fx exceeds the %.1fx cap", name, 1/sp, cap))
			}
		}
		if isRoi[name] {
			if floor := roiFloors[name]; floor > 0 {
				note += fmt.Sprintf(" (gate: %.1fx floor)", floor)
				if sp < floor {
					failures = append(failures, fmt.Sprintf(
						"%s: region speedup %.2fx below the %.1fx floor", name, sp, floor))
				}
			}
		}
		if isBatch[name] {
			if floor := batchAmortFloors[name]; floor > 0 {
				note += fmt.Sprintf(" (gate: %.1fx floor)", floor)
				if sp < floor {
					failures = append(failures, fmt.Sprintf(
						"%s: per-item amortization %.2fx at batch 16 below the %.1fx floor", name, sp, floor))
				}
			}
		}
		if isEntropy[name] && compressGate && sp < entropyW4Floor {
			failures = append(failures, fmt.Sprintf(
				"%s: chunked decode speedup %.2fx at width 4 below the %.1fx floor on a %d-core machine", name, sp, entropyW4Floor, cores))
		}
		if isCompress[name] && compressGate && strings.HasSuffix(name, "_pack") && sp < packSpeedupFloor {
			failures = append(failures, fmt.Sprintf(
				"%s: pack speedup %.2fx at width 4 below the %.1fx floor on a %d-core machine", name, sp, packSpeedupFloor, cores))
		}
		fmt.Fprintf(out, "%-16s %12.2f %12.2f %8.2fx %s\n", name, p.before, p.after, sp, note)
	}
	if len(failures) > 0 {
		return fmt.Errorf("%s", strings.Join(failures, "; "))
	}
	return nil
}

func main() {
	deltas := flag.Bool("deltas", false, "read `go test -bench` output on stdin and print before/after kernel deltas")
	baseline := flag.String("baseline", "", "with -deltas: recorded BENCH_kernels.json to gate regressions against")
	flag.Parse()

	if *deltas {
		if err := runDeltas(os.Stdin, os.Stdout, *baseline, runtime.NumCPU()); err != nil {
			fmt.Fprintln(os.Stderr, "benchguard:", err)
			os.Exit(1)
		}
		return
	}
	files := flag.Args()
	if len(files) == 0 {
		fmt.Fprintln(os.Stderr, "benchguard: no baseline files given (usage: benchguard FILE...)")
		os.Exit(1)
	}
	for _, file := range files {
		raw, err := os.ReadFile(file)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchguard:", err)
			os.Exit(1)
		}
		if err := validate(raw); err != nil {
			fmt.Fprintf(os.Stderr, "benchguard: %s: %v\n", file, err)
			os.Exit(1)
		}
		fmt.Printf("benchguard: %s ok\n", file)
	}
}
