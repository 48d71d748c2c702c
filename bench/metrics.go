package main

// metricDef names one metric the benchmark reports. BENCHMARK.json at the
// repository root carries the same names, units and directions (plus the
// end-to-end bounds); TestBenchmarkJSONMatchesCode keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
}

// endToEnd is what a user of the photo system waits for or pays.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"upload_ups", "1/s", "higher"},
	{"upload_p50_ms", "ms", "lower"},
	{"finetune_s", "s", "lower"},
	{"relabel_ips", "1/s", "higher"},
	{"round_wire_bytes", "B", "lower"},
	{"top1_pct", "%", "higher"},
	{"cpu_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer is <package>.<metric>, collected in the traced run.
var perLayer = []metricDef{
	{"serve.batch_mean", "count", "higher"},
	{"serve.cache_hit_ratio", "ratio", "higher"},
	{"serve.result_hit_ratio", "ratio", "higher"},
	{"serve.cache_evictions", "count", "lower"},
	{"serve.shed", "count", "lower"},
	{"serve.paced_p99_ms", "ms", "lower"},
	{"serve.paced_late_ms", "ms", "lower"},
	{"serve.gateway_us", "us", "lower"},
	{"inferserver.upload_us", "us", "lower"},
	{"inferserver.batch_us_per_photo", "us", "lower"},
	{"inferserver.apply_delta_us", "us", "lower"},
	{"pipestore.ingest_us", "us", "lower"},
	{"pipestore.extract_ips", "1/s", "higher"},
	{"pipestore.offline_infer_ips", "1/s", "higher"},
	{"pipestore.apply_delta_us", "us", "lower"},
	{"photostore.mem_put_us", "us", "lower"},
	{"photostore.mem_get_us", "us", "lower"},
	{"photostore.disk_put_us", "us", "lower"},
	{"photostore.disk_get_us", "us", "lower"},
	{"photostore.inflate_us", "us", "lower"},
	{"photostore.verify_us", "us", "lower"},
	{"photostore.stored_bytes_per_photo", "B", "lower"},
	{"wire.feature_bytes_per_image", "B", "lower"},
	{"wire.delta_bytes_per_store", "B", "lower"},
	{"wire.relabel_bytes_per_image", "B", "lower"},
	{"wire.writes_per_round", "count", "lower"},
	{"wire.reads_per_round", "count", "lower"},
	{"wire.encode_us_per_msg", "us", "lower"},
	{"wire.decode_us_per_msg", "us", "lower"},
	{"wire.allocs_per_msg", "count", "lower"},
	{"wire.bytes_per_msg", "B", "lower"},
	{"tuner.gather_s", "s", "lower"},
	{"tuner.train_tail_s", "s", "lower"},
	{"tuner.commit_s", "s", "lower"},
	{"tuner.relabel_apply_s", "s", "lower"},
	{"tuner.accept_s", "s", "lower"},
	{"tuner.epochs", "count", "lower"},
	{"ftdmp.epoch_ms_per_kimg", "ms", "lower"},
	{"nn.backbone_us_per_image", "us", "lower"},
	{"nn.train_batch_us", "us", "lower"},
	{"tensor.matmul_128x32x128_us", "us", "lower"},
	{"tensor.matmul_256_gflops", "GFLOP/s", "higher"},
	{"delta.diff_encode_us", "us", "lower"},
	{"delta.decode_apply_us", "us", "lower"},
	{"delta.bytes", "B", "lower"},
	{"modelstore.append_us", "us", "lower"},
	{"durable.append_us", "us", "lower"},
	{"durable.atomic_write_us", "us", "lower"},
	{"labeldb.upsert_us", "us", "lower"},
	{"labeldb.apply_refresh_us_per_label", "us", "lower"},
	{"proc.allocs_per_op", "count", "lower"},
	{"proc.alloc_bytes_per_op", "B", "lower"},
	{"proc.gc_cycles", "count", "lower"},
	{"proc.gc_pause_ms", "ms", "lower"},
	{"proc.cpu_user_s", "s", "lower"},
	{"proc.cpu_sys_s", "s", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}
