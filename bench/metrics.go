package main

// metricDef names one metric of the benchmark. The two lists below are the
// benchmark's contract: BENCHMARK.json repeats them (TestCatalogMatchesJSON
// keeps the two in step) and every performance claim in this repository names
// one of these metrics on one of the workloads.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd lists what a caller of the library or of fxrzd waits for or is
// promised. Every workload reports every one of them. The bounds are about
// three times the spread ten runs on ten seeds showed on the recording box, a
// shared VM whose neighbours slow it by up to a third in bursts (README,
// "Recorded baseline"): a tighter bound would reject unchanged code.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"train_ms", "ms", "lower", 0.25},
	{"estimate_p50_ms", "ms", "lower", 0.20},
	{"pack_p50_ms", "ms", "lower", 0.20},
	{"unpack_p50_ms", "ms", "lower", 0.20},
	{"region_p50_ms", "ms", "lower", 0.20},
	{"ops_per_s", "1/s", "higher", 0.20},
	{"ratio_err_mean", "ratio", "lower", 0.05},
	{"rss_peak_mib", "MiB", "lower", 0.15},
}

// perLayer lists the single-layer measurements of the traced run, prefixed
// by the module they time. They have no bound: they explain a movement of an
// end-to-end metric, they are never a claim by themselves.
var perLayer = []metricDef{
	// core + ml: the estimate path (features, CA scan, forest query) and training.
	{Name: "core.features_ns_per_elem_w1", Unit: "ns", Better: "lower"},
	{Name: "core.features_ns_per_elem_wn", Unit: "ns", Better: "lower"},
	{Name: "core.ca_ns_per_elem_w1", Unit: "ns", Better: "lower"},
	{Name: "core.ca_ns_per_elem_wn", Unit: "ns", Better: "lower"},
	{Name: "core.query_us", Unit: "us", Better: "lower"},
	{Name: "core.estimate_over_pack_sz", Unit: "ratio", Better: "lower"},
	{Name: "core.estimate_over_pack_zfp", Unit: "ratio", Better: "lower"},
	{Name: "core.extrapolating_frac", Unit: "ratio", Better: "lower"},
	{Name: "core.ratio_err_p90", Unit: "ratio", Better: "lower"},
	{Name: "core.train_analysis_ms", Unit: "ms", Better: "lower"},
	{Name: "core.train_sweep_ms", Unit: "ms", Better: "lower"},
	{Name: "core.train_fit_ms", Unit: "ms", Better: "lower"},
	{Name: "ml.forest_fit_ms", Unit: "ms", Better: "lower"},
	{Name: "ml.forest_predict_ns", Unit: "ns", Better: "lower"},
	// codecs, on one fixed field.
	{Name: "sz.pack_ns_per_elem", Unit: "ns", Better: "lower"},
	{Name: "sz.unpack_ns_per_elem", Unit: "ns", Better: "lower"},
	{Name: "sz.region_ns_per_elem", Unit: "ns", Better: "lower"},
	{Name: "sz.region_speedup", Unit: "ratio", Better: "higher"},
	{Name: "sz.pack_par_speedup", Unit: "ratio", Better: "higher"},
	{Name: "sz.unpack_par_speedup", Unit: "ratio", Better: "higher"},
	{Name: "zfp.pack_ns_per_elem", Unit: "ns", Better: "lower"},
	{Name: "zfp.unpack_ns_per_elem", Unit: "ns", Better: "lower"},
	{Name: "zfp.region_ns_per_elem", Unit: "ns", Better: "lower"},
	{Name: "zfp.region_speedup", Unit: "ratio", Better: "higher"},
	{Name: "zfp.pack_par_speedup", Unit: "ratio", Better: "higher"},
	{Name: "zfp.unpack_par_speedup", Unit: "ratio", Better: "higher"},
	{Name: "sz2.pack_ns_per_elem", Unit: "ns", Better: "lower"},
	{Name: "sz2.unpack_ns_per_elem", Unit: "ns", Better: "lower"},
	{Name: "mgard.pack_ns_per_elem", Unit: "ns", Better: "lower"},
	{Name: "mgard.unpack_ns_per_elem", Unit: "ns", Better: "lower"},
	{Name: "fpzip.pack_ns_per_elem", Unit: "ns", Better: "lower"},
	{Name: "fpzip.unpack_ns_per_elem", Unit: "ns", Better: "lower"},
	{Name: "compress.time_frac", Unit: "ratio", Better: "lower"},
	// entropy back end, on one fixed symbol stream.
	{Name: "entropy.huff_enc_ns_per_sym", Unit: "ns", Better: "lower"},
	{Name: "entropy.huff_dec_ns_per_sym", Unit: "ns", Better: "lower"},
	{Name: "entropy.huff_dec_chunked_ns_per_sym_w1", Unit: "ns", Better: "lower"},
	{Name: "entropy.huff_dec_chunked_ns_per_sym_wn", Unit: "ns", Better: "lower"},
	{Name: "entropy.lz_enc_ns_per_byte", Unit: "ns", Better: "lower"},
	{Name: "entropy.lz_dec_ns_per_byte", Unit: "ns", Better: "lower"},
	{Name: "entropy.chunk_table_frac", Unit: "ratio", Better: "lower"},
	{Name: "entropy.scratch_hit_frac", Unit: "ratio", Better: "higher"},
	// region access.
	{Name: "roi.build_ms", Unit: "ms", Better: "lower"},
	{Name: "roi.index_frac", Unit: "ratio", Better: "lower"},
	{Name: "roi.reader_at_ns", Unit: "ns", Better: "lower"},
	{Name: "brick.build_ms", Unit: "ms", Better: "lower"},
	{Name: "brick.read_region_ms", Unit: "ms", Better: "lower"},
	// wire formats.
	{Name: "fieldio.read_ns_per_byte", Unit: "ns", Better: "lower"},
	{Name: "fieldio.write_ns_per_byte", Unit: "ns", Better: "lower"},
	{Name: "batch.encode_ns_per_item", Unit: "ns", Better: "lower"},
	{Name: "batch.decode_ns_per_item", Unit: "ns", Better: "lower"},
	// serving layer.
	{Name: "serve.fixed_cost_us", Unit: "us", Better: "lower"},
	{Name: "serve.http_over_direct_estimate", Unit: "ratio", Better: "lower"},
	{Name: "serve.http_over_direct_pack", Unit: "ratio", Better: "lower"},
	{Name: "serve.http_over_direct_unpack", Unit: "ratio", Better: "lower"},
	{Name: "serve.batch_amortization_b8", Unit: "ratio", Better: "higher"},
	{Name: "serve.self_us", Unit: "us", Better: "lower"},
	{Name: "serve.estimate_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.pack_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.unpack_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.estimate_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.pack_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.unpack_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.max_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.registry_cold_load_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.registry_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "serve.shed", Unit: "count", Better: "lower"},
	{Name: "serve.alloc_bytes_per_req", Unit: "B", Better: "lower"},
	{Name: "qos.acquire_release_ns", Unit: "ns", Better: "lower"},
	{Name: "qos.admitted", Unit: "count", Better: "higher"},
	{Name: "qos.borrowed", Unit: "count", Better: "lower"},
	{Name: "qos.shed", Unit: "count", Better: "lower"},
	{Name: "ratelimit.allow_ns", Unit: "ns", Better: "lower"},
	{Name: "ratelimit.refused", Unit: "count", Better: "lower"},
	{Name: "shard.owner_ns", Unit: "ns", Better: "lower"},
	{Name: "shard.forward_mean_ms", Unit: "ms", Better: "lower"},
	{Name: "shard.forwarded_items", Unit: "count", Better: "higher"},
	{Name: "shard.local_items", Unit: "count", Better: "higher"},
	{Name: "shard.retries", Unit: "count", Better: "lower"},
	{Name: "shard.peer_err", Unit: "count", Better: "lower"},
	// fan-out, instrumentation, runtime.
	{Name: "pool.run_overhead_ns_per_task", Unit: "ns", Better: "lower"},
	{Name: "pool.tasks", Unit: "count", Better: "lower"},
	{Name: "pool.runs", Unit: "count", Better: "lower"},
	{Name: "pool.fanout_calls", Unit: "count", Better: "lower"},
	{Name: "obs.span_enabled_ns", Unit: "ns", Better: "lower"},
	{Name: "obs.span_disabled_ns", Unit: "ns", Better: "lower"},
	{Name: "obs.trace_overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "go.alloc_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "go.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "go.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "datagen.gen_s", Unit: "s", Better: "lower"},
}

// workloadDef names one workload and records why it exists.
type workloadDef struct {
	Name string
	Why  string
}

var workloads = []workloadDef{
	{"lib_large_w1", "in-process library calls at width 1 on 3.4 MiB fields: codec kernels, core features/CA and ml do all the work, serving layers none"},
	{"lib_large_par", "same inputs and tuples at width nproc: only here do wavefront SZ, chunked ZFP, chunked entropy decode and pool run"},
	{"serve_small_mix", "fxrzd over loopback, 54 KiB fields, 90:5:5 estimate:unpack:pack: per-request fixed cost dominates, codecs do little"},
	{"serve_batch_shard", "two peered fxrzd instances, 8-item batches of 432 KiB fields split across both: batch codec, pool fan-out, shard forward and merge"},
}

// value is one measured metric as printed and as stored in result files.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}
