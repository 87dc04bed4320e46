// Command loopbench is the repository's benchmark: one command that runs
// the whole DSI loop — serving logs → Scribe/LogDevice → ETL joiner →
// DWRF encode → tectonic append → sealed partition → DPP session →
// transform plan → tensor materialize → framed wire → trainer — through
// the production composition, checks that every row arrived exactly
// once, and prints the end-to-end metrics by name and unit.
//
// Usage, from the repository root:
//
//	bash loopbench/run.sh --workload ingest-backlog --seed 1 --seconds 25 --trace 0
//
// run.sh builds this package into .bench_build/ and runs it. A run
// repeats set-up + timed window until the windows add up to --seconds
// (and at least three set-ups ran), then reports medians. The last
// line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics. --trace 0 reports the end-to-end
// metrics; --trace 1 alternates untraced and traced set-ups and reports
// the per-layer metrics, writing a CPU and an allocation profile to
// .bench_build/profiles, the spans to .bench_build/traces and the whole
// report to .bench_build/reports. A correctness-gate violation exits
// non-zero.
//
// # Composition
//
// DPP is driven only through dpp.Service, one dpp.FleetWorker and the
// framed data plane over loopback TCP: no Orchestrator, no AutoScaler, a
// fixed pool of one worker. Each tenant's pipeline runs one prefetcher
// and one transform goroutine, and each trainer holds at most one
// connection. GOMAXPROCS is the runtime default (the host's CPU count);
// every result is stamped with it, nproc, the Go version and the CPU
// model.
//
// # Workloads
//
// ingest-backlog is batch-shaped catch-up. 2048 serving requests are
// published to Scribe during set-up; the window runs from the ETL's
// start (etl.Pipeline.Run) until the one tailing tenant holds the last
// row. Partitions are 512 rows, four 128-row stripes each. The ETL and
// the DWRF write path do nearly all the work; the read side projects
// four features and runs one SigridHash. It exists so write-path work
// (flate writer pooling, a binary log codec, dictionary encoding) shows.
//
// live-tail is an open loop: one generator goroutine serves requests as
// independent users would, with exponential gaps at a mean of 540
// requests/s (about a third of ingest-backlog's rows/s when this
// benchmark was written), for 2.5 s per window. The schedule is drawn
// from the seed, afresh for each set-up of a run, and each request is
// stamped with its due time rather than its send time, so generator
// stalls count as staleness. One unbounded session tails the table.
// Partitions are one 32-row stripe each, so fill time stays small next
// to the latency being measured. Rows are narrower than the other workloads' (RM1 at
// feature scale 0.002: 24 dense and 4 sparse features): a seal costs
// per column stream, and at full width the ETL cannot seal the ~17
// partitions/s that give a run a few hundred freshness samples without
// saturating. Small seals and reads interleave on one cluster, so a
// write-path gain that costs reads, or the reverse, shows here. This is
// the workload freshness is defined for.
//
// replay-shared is a closed loop, offline training. A bounded
// 4 x 1024-row RM1 table is written during set-up straight through
// warehouse.PartitionWriter. Each window starts a fresh service and
// fleet worker (so a cold cache) and two tenants with the same
// projection and the same transforms.StandardGraph plan (the paper's
// combo jobs) share the worker and its ware.Cache; both trainers pull
// as fast as they can. Tenant B opens once tenant A has consumed 1024
// rows, never after a fixed time. Decode, transforms, tensor, the wire
// and the cache do the work; the ETL does none. The table takes about
// thirty times longer to write than a window takes to read it, so one
// table serves 128 windows. The two ingest workloads run the cache on
// its all-miss path, so a cache change that taxes misses shows there.
//
// # End-to-end metrics
//
// Every workload reports every metric; a run's value is the median over
// its windows (freshness: percentiles over the pooled split samples).
// Windows during which the hypervisor stole more than 2% of the host's
// CPU (the steal column of /proc/stat) are left out of these medians,
// unless that would leave fewer than a third of them: on a shared host
// such windows run measurably slower for reasons outside the program.
// Every window still passes the correctness gate, and the report lists
// each window's steal.
//
//	rows_per_s        rows received by trainers, summed over tenants, per window second
//	freshness_p50_ms  median split freshness: newest event time → trainer consumption ack
//	                  (Master.FreshnessSamples); rows produced before the window opened
//	                  count from the opening. Only on live-tail is this pipeline latency;
//	                  on the others it is how long into the catch-up or replay a split lands.
//	freshness_p90_ms  the same at p90 (a run pools several hundred split samples)
//	cpu_us_per_row    process user+sys CPU (getrusage) over the window / rows received
//	alloc_kb_per_row  heap bytes allocated over the window / rows received
//	retained_heap_mb  live heap after a forced GC at the window's end, before teardown
//	setup_s           workload start until the window opens: backlog published or table
//	                  built, service and sessions up (median over a run's set-ups)
//
// Rows missing or duplicated at any trainer, plus Scribe Shed and Dropped
// messages, are the result's failed count against attempted (the rows
// expected over all tenants and windows); failed/attempted is the
// failure fraction, zero on a correct run.
//
// # Per-layer metrics and what each should move
//
// From the traced run only. Where DPP exposes an interface, the traced
// run wraps it: FleetControl/MasterAPI for leases, WorkerDialer/WorkerAPI
// for the wire, Client.Next for trainer waits. Where the production
// composition calls a layer internally (the serving simulator, the ETL
// pipeline, the table build, the worker's read path), the traced run
// drives the same public functions itself, in production order, from
// one goroutine, with a span around each call (drive.go); the worker's
// read path is replayed over the window's final table after the window.
// A traced window's row counts and checksums must equal an untraced
// one's.
//
//	layer metrics                                          should move                       on                      should not move
//	datagen.ns_per_req, datagen.log_bytes_per_req,         setup_s; cpu_us_per_row           ingest-backlog;         replay-shared
//	  scribe.ns_per_record                                                                   live-tail
//	etl.join_ns_per_row, dwrf.write_ns_per_row,            rows_per_s, cpu_us_per_row,       ingest-backlog;         replay-shared except
//	  dwrf.seal_ms_per_partition,                          alloc_kb_per_row; freshness_*     live-tail               setup_s
//	  dwrf.write_alloc_kb_per_row, runtime.gc_cpu_frac
//	etl.cursor_us_per_partition, logdevice.backlog_rows_*, freshness_p50_ms,                 live-tail               replay-shared
//	  dpp.discover_ms_p50, datagen.late_ms_max             freshness_p90_ms
//	dwrf.decode_*, dwrf.overread_frac, tectonic.read_*,    rows_per_s, cpu_us_per_row,       replay-shared           little on the ingest
//	  transforms.*, tensor.*                               alloc_kb_per_row                                          workloads
//	ware.hit_ratio, ware.dup_misses, ware.resident_mb,     cpu_us_per_row, rows_per_s;       replay-shared           ingest workloads
//	  ware.evictions                                       retained_heap_mb                                          (one tenant, all-miss)
//	dpp.lease_us_p50, dpp.busy_frac, dpp.*_frac,           rows_per_s: a waiting trainer     all                     —
//	  trainer.wait_us_p50/_p99                             while dpp.busy_frac≈1 names DPP
//	dwrf.stored_bytes_per_row,                             retained_heap_mb, setup_s         all                     —
//	  tectonic.append_bytes_per_row
//	scribe.shed, scribe.dropped, etl.expired_frac,         failed (all zero fault-free)      all                     —
//	  etl.reproduced_frac, tectonic.retries,
//	  dpp.splits_released
//
// The traced run also reports self_ms.<layer> for every layer: span
// time minus child spans, per traced window, with the window's share of
// its set-up (replay-shared splits a table build over the 128 windows an
// untraced set-up serves; a traced set-up reads it in 16, replaying the
// read path after each). It reports trace.unattributed_frac (the share
// of the benchmark loops' own time no span covers) and trace.overhead_frac
// (1 - traced rows_per_s / untraced rows_per_s), and prints the work
// layers ranked by self time. stats.go holds every read of
// the program's stat structs (dpp.WorkerStats, ware.Stats,
// dwrf.ReadStats, the scribe and etl counters, tectonic.FaultCounters).
package main
