package main

// metricDef names one metric. These names are the contract every later
// change uses; BENCHMARK.json lists the same names with the same units and
// the test pins the two against each other.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd is what a user of the service sees and the sandbox can hold
// still. Every workload reports every one of them: the two sync-only
// workloads take their query rate from the read-back sweep that checks
// their final answers. Latencies are not here: in a closed loop the rates
// already bound the mean latency, and the medians spread past any allowed
// bound whenever the sandbox's disk or hypervisor had a bad quarter of an
// hour (README.md, "How to read spread").
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"sync_per_s", "1/s", "higher"},
	{"query_per_s", "1/s", "higher"},
	{"wire_bytes_per_op", "B/op", "lower"},
}

// perLayer is everything else: the user-visible numbers that only some
// workloads have or that are too noisy in a shared sandbox to gate on, the
// layer ladder, and the under-load counters scraped from the server.
var perLayer = []metricDef{
	{"failed_share", "share", "lower"},
	{"sync_per_s_wall", "1/s", "higher"},
	{"sync_p50_ms", "ms", "lower"},
	{"sync_p99_ms", "ms", "lower"},
	{"query_p50_ms", "ms", "lower"},
	{"query_p99_ms", "ms", "lower"},
	{"recovery_ms", "ms", "lower"},
	{"disk_bytes_per_user_byte", "B/B", "lower"},

	{"seal.seal_us_per_record", "us", "lower"},
	{"wire.encode_req_ns", "ns", "lower"},
	{"wire.decode_req_ns", "ns", "lower"},
	{"wire.encode_resp_ns", "ns", "lower"},
	{"wire.decode_resp_ns", "ns", "lower"},
	{"wire.req_bytes", "B", "lower"},
	{"wire.codec_allocs_per_op", "count", "lower"},
	{"wire.frame_rt_us", "us", "lower"},
	{"wire.frame_syscalls_per_rt", "count", "lower"},
	{"gateway.stub_rt_us", "us", "lower"},
	{"client.self_us", "us", "lower"},
	{"oblidb.ingest_us_per_record", "us", "lower"},
	{"oblidb.query_q1_us", "us", "lower"},
	{"oblidb.query_q2_us", "us", "lower"},
	{"oblidb.query_q3_us", "us", "lower"},
	{"oblidb.query_q4_us", "us", "lower"},
	{"qcache.hit_ns", "ns", "lower"},
	{"qcache.miss_put_ns", "ns", "lower"},
	{"qcache.invalidate_ns", "ns", "lower"},
	{"store.append_commit_us_g1", "us", "lower"},
	{"store.append_commit_us_g8", "us", "lower"},
	{"store.append_commit_us_g64", "us", "lower"},
	{"store.append_commit_fsync_disk_us", "us", "lower"},
	{"store.entry_bytes", "B", "lower"},
	{"store.rotate_ms", "ms", "lower"},
	{"store.spill_us_per_batch", "us", "lower"},
	{"store.recover_ms_per_1k_entries", "ms", "lower"},
	{"cluster.hub_committed_us_empty", "us", "lower"},
	{"cluster.hub_committed_us_full", "us", "lower"},
	{"cluster.follower_apply_us", "us", "lower"},
	{"cluster.read_cold_us_h8", "us", "lower"},
	{"cluster.read_cold_us_h80", "us", "lower"},
	{"cluster.read_warm_us", "us", "lower"},
	{"trace.ladder_sum_us", "us", "lower"},
	{"trace.client_sync_us", "us", "lower"},
	{"trace.unexplained_pct", "%", "lower"},

	{"gateway.queue_wait_us", "us", "lower"},
	{"gateway.apply_us", "us", "lower"},
	{"gateway.commit_us", "us", "lower"},
	{"gateway.ack_us", "us", "lower"},
	{"store.group_size", "count", "higher"},
	{"store.flush_us", "us", "lower"},
	{"store.fsyncs_per_sync", "count", "lower"},
	{"qcache.hit_ratio", "share", "higher"},
	{"cluster.shipped_per_commit", "count", "lower"},
	{"cluster.repl_lag_ms", "ms", "lower"},
	{"cluster.read_rebuilds_per_query", "count", "lower"},
	{"cluster.replica_served_share", "share", "higher"},
	{"cluster.replica_stale_share", "share", "lower"},
	{"server.cpu_us_per_op", "us", "lower"},
	{"follower.cpu_us_per_op", "us", "lower"},
	{"server.peak_rss_mb", "MB", "lower"},
	{"loadgen.cpu_busy_share", "share", "lower"},
	{"loadgen.conns", "count", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}
