package main

// metricDef names one reported metric. BENCHMARK.json lists the same
// names, units and directions; the package test keeps them in step.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics an untraced run prints, on every workload.
var endToEnd = []metricDef{
	{"rows_per_s", "rows/s", "higher"},
	{"freshness_p50_ms", "ms", "lower"},
	{"freshness_p90_ms", "ms", "lower"},
	{"cpu_us_per_row", "us/row", "lower"},
	{"alloc_kb_per_row", "KiB/row", "lower"},
	{"retained_heap_mb", "MiB", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayer are the metrics a traced run prints, on every workload. A
// metric that does not apply to a workload reads 0 there.
var perLayer = func() []metricDef {
	defs := []metricDef{
		// Load generator and Scribe/LogDevice.
		{"datagen.ns_per_req", "ns", "lower"},
		{"datagen.log_bytes_per_req", "bytes", "lower"},
		{"datagen.late_ms_max", "ms", "lower"},
		{"scribe.ns_per_record", "ns", "lower"},
		{"scribe.shed", "count", "lower"},
		{"scribe.dropped", "count", "lower"},
		{"logdevice.backlog_rows_p50", "rows", "lower"},
		{"logdevice.backlog_rows_max", "rows", "lower"},
		// ETL.
		{"etl.join_ns_per_row", "ns", "lower"},
		{"etl.cursor_us_per_partition", "us", "lower"},
		{"etl.expired_frac", "ratio", "lower"},
		{"etl.reproduced_frac", "ratio", "lower"},
		// DWRF write and read, tectonic.
		{"dwrf.write_ns_per_row", "ns", "lower"},
		{"dwrf.seal_ms_per_partition", "ms", "lower"},
		{"dwrf.write_alloc_kb_per_row", "KiB/row", "lower"},
		{"dwrf.stored_bytes_per_row", "bytes", "lower"},
		{"dwrf.decode_ns_per_row", "ns", "lower"},
		{"dwrf.decode_alloc_kb_per_row", "KiB/row", "lower"},
		{"dwrf.overread_frac", "ratio", "lower"},
		{"tectonic.append_bytes_per_row", "bytes", "lower"},
		{"tectonic.read_ios_per_split", "count", "lower"},
		{"tectonic.read_kb_per_io", "KiB", "higher"},
		{"tectonic.retries", "count", "lower"},
		// Transforms and tensors.
		{"transforms.ns_per_row", "ns", "lower"},
		{"transforms.alloc_kb_per_row", "KiB/row", "lower"},
		{"tensor.materialize_ns_per_row", "ns", "lower"},
		{"tensor.wire_ns_per_batch", "ns", "lower"},
		{"tensor.wire_bytes_per_row", "bytes", "lower"},
		// Shared cache.
		{"ware.hit_ratio", "ratio", "higher"},
		{"ware.dup_misses", "count", "lower"},
		{"ware.resident_mb", "MiB", "lower"},
		{"ware.evictions", "count", "lower"},
		// DPP and the trainer.
		{"dpp.discover_ms_p50", "ms", "lower"},
		{"dpp.lease_us_p50", "us", "lower"},
		{"dpp.busy_frac", "ratio", "higher"},
		{"dpp.fetch_frac", "ratio", "lower"},
		{"dpp.decode_frac", "ratio", "lower"},
		{"dpp.transform_frac", "ratio", "lower"},
		{"dpp.deliver_frac", "ratio", "lower"},
		{"dpp.splits_released", "count", "lower"},
		{"trainer.wait_us_p50", "us", "lower"},
		{"trainer.wait_us_p99", "us", "lower"},
		// Runtime and the trace itself.
		{"runtime.gc_cpu_frac", "ratio", "lower"},
		{"trace.overhead_frac", "ratio", "lower"},
		{"trace.unattributed_frac", "ratio", "lower"},
	}
	for _, l := range selfLayers {
		defs = append(defs, metricDef{"self_ms." + l, "ms", "lower"})
	}
	return defs
}()
