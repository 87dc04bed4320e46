package main

import (
	"time"
)

// workLayers are the span layers that do the program's work; a traced
// run ranks them by self time.
var workLayers = []string{
	"datagen", "scribe", "etl", "dwrf.write", "tectonic.read", "dwrf.decode",
	"transforms", "tensor", "dpp.lease", "dpp.wire", "trainer",
}

// selfLayers are every span layer whose self time a traced round
// reports: the work layers, the trainer's time blocked in Client.Next
// ("trainer.wait"), the loops' sleeps (generator schedule, ETL idle
// polls: "wait") and the read pass's own digesting ("check"). Naming the
// last three keeps the unattributed remainder honest.
var selfLayers = append(append([]string(nil), workLayers...), "trainer.wait", "wait", "check")

// traceMetrics runs the read pass over the round's table and turns the
// round's spans into per-layer metrics. spans[0] is the set-up's range;
// its self times are split evenly over the perBuild windows it serves.
func (s *stack) traceMetrics(r *roundResult, perBuild int, spans []spanRange) error {
	res, err := s.readPass()
	if err != nil {
		return err
	}
	if len(s.tenants) > 0 && !res.sum.Equal(s.tenants[0].got) {
		r.fail("read pass checksums differ from %s's", s.tenants[0].id)
	}
	st := s.tr.stats(spans...)
	m := r.Layer
	served := float64(s.served.Load())
	rows := float64(s.rowsWritten)
	parts := float64(s.partitions)
	reqs := served
	if s.p.Workload == wReplayShared {
		reqs = rows
	}
	nsPer := func(d time.Duration, n float64) float64 { return ratio(float64(d), n) }
	kbPer := func(b uint64, n float64) float64 { return ratio(float64(b)/1024, n) }

	// Load generation and Scribe.
	m["datagen.ns_per_req"] = nsPer(st.self["datagen"], reqs)
	m["datagen.log_bytes_per_req"] = ratio(float64(s.logBytes), served)
	m["scribe.ns_per_record"] = nsPer(st.self["scribe"], 2*served)
	m["datagen.late_ms_max"] = maxOf(durationsMs(s.late))
	m["logdevice.backlog_rows_p50"] = median(s.backlog)
	m["logdevice.backlog_rows_max"] = maxOf(s.backlog)

	// ETL and the DWRF write path.
	join := st.selfName["etl/step"] + st.selfName["etl/flush"] + st.selfName["etl/checkpoint"] + st.selfName["etl/trim"]
	m["etl.join_ns_per_row"] = nsPer(join, rows)
	m["etl.cursor_us_per_partition"] = ratio(float64(st.total["etl/cursor"])/1e3, parts)
	m["dwrf.write_ns_per_row"] = nsPer(st.total["dwrf.write/row"]+st.total["dwrf.write/open"], rows)
	m["dwrf.seal_ms_per_partition"] = ratio(float64(st.total["dwrf.write/seal"])/1e6, parts)
	m["dwrf.write_alloc_kb_per_row"] = kbPer(st.alloc["dwrf.write/row"]+st.alloc["dwrf.write/open"]+st.alloc["dwrf.write/seal"], rows)
	m["runtime.gc_cpu_frac"] = r.GCFrac

	// Seal → first lease of the partition's splits. A bounded table's
	// splits are planned up front, so replay-shared discovers nothing.
	var discover []float64
	if s.p.Workload != wReplayShared {
		first := s.leases.firstLease()
		for key, sealed := range s.sealedAt {
			if t, ok := first[key]; ok {
				discover = append(discover, float64(t.Sub(sealed))/1e6)
			}
		}
	}
	m["dpp.discover_ms_p50"] = median(discover)

	// The read pass: decode, transform, materialize, wire.
	readRows := float64(res.rows)
	m["dwrf.decode_ns_per_row"] = nsPer(st.selfName["dwrf.decode/split"], readRows)
	m["dwrf.decode_alloc_kb_per_row"] = kbPer(st.alloc["dwrf.decode/split"], readRows)
	for k, v := range readMetrics(res.stats, res.splits) {
		m[k] = v
	}
	m["transforms.ns_per_row"] = nsPer(st.total["transforms/plan"], readRows)
	m["transforms.alloc_kb_per_row"] = kbPer(st.alloc["transforms/plan"], readRows)
	m["tensor.materialize_ns_per_row"] = nsPer(st.total["tensor/materialize"], readRows)
	m["tensor.wire_ns_per_batch"] = nsPer(st.total["tensor/wire"], float64(res.batches))
	m["tensor.wire_bytes_per_row"] = ratio(float64(res.wire), readRows)

	// The production DPP path, through the wrapped interfaces.
	m["dpp.lease_us_p50"] = median(durationsUs(st.durs["dpp.lease/next"]))
	var waits []time.Duration
	for _, tn := range s.tenants {
		waits = append(waits, tn.waits...)
	}
	us := durationsUs(waits)
	m["trainer.wait_us_p50"] = quantile(us, 0.5)
	m["trainer.wait_us_p99"] = quantile(us, 0.99)

	// Self times per window: the window's own plus its share of the
	// set-up's.
	setup, own := s.tr.stats(spans[0]), s.tr.stats(spans[1:]...)
	share := func(setupPart, ownPart time.Duration) float64 {
		return float64(setupPart)/float64(perBuild) + float64(ownPart)
	}
	for _, l := range selfLayers {
		m["self_ms."+l] = share(setup.self[l], own.self[l]) / 1e6
	}
	m["trace.unattributed_frac"] = ratio(share(setup.rootSelf, own.rootSelf), share(setup.rootDur, own.rootDur))
	return nil
}
