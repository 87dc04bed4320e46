// Package dsi is a reproduction, at simulation scale, of "Understanding
// Data Storage and Ingestion for Large-Scale Deep Recommendation Model
// Training" (Zhao et al., ISCA 2022): Meta's end-to-end DSI pipeline —
// Scribe/LogDevice log transport, ETL into a Hive-style warehouse of
// DWRF columnar files on a Tectonic-style distributed filesystem, and
// the disaggregated Data PreProcessing Service (DPP) feeding GPU
// trainers.
//
// The DPP worker data plane is pipelined: a prefetcher pool fetches and
// decodes upcoming DWRF stripes (through a per-warehouse reader cache
// and pooled decode buffers), a configurable number of transform
// goroutines run the preprocessing graph concurrently, and a delivery
// stage with bounded buffering applies backpressure so per-session
// memory stays finite. The knobs live in dpp.SessionSpec.Pipeline
// (prefetchers, prefetch depth, transform parallelism, buffered-byte
// bound) and surface as cmd/dppd flags; per-stage busy time (fetch /
// decode / transform / deliver, the paper's Figure 9 breakdown) is
// reported through WorkerStats and ResourceReport. The sequential
// baseline survives behind Pipeline.Sequential, and
// BenchmarkDPPWorkerSession vs BenchmarkDPPPipelinedSession measures
// the delta (reference run: BENCH_dpp.json).
//
// The transform stage itself runs compiled: transforms.Graph lowers its
// topo-sorted op DAG into a slot-indexed transforms.Plan
// (Graph.CompilePlan) that resolves every feature ID to a dense/sparse
// slot once per session, fuses chains of elementwise dense ops into
// single passes, and draws output columns from a per-worker pooled
// column arena (dwrf.Arena). Stripes decode straight into arena batches
// through streaming column decoders, and the worker releases each batch
// (dwrf.Batch.Release) once tensors are materialized, so steady-state
// preprocessing recycles the same buffers split after split. A golden
// parity suite pins compiled plans to byte-identical outputs with the
// legacy interpreter, which remains the fallback for unknown ops.
// BenchmarkTransformGraph and BenchmarkStripeToTensor measure the delta
// (reference run: BENCH_transform.json — the transform stage drops from
// 9365 to 5 allocations per batch).
//
// The worker→trainer hot path is a zero-copy framed streaming data
// plane: tensor.Batch has an explicit wire codec (AppendBinary /
// DecodeBinary — length-prefixed little-endian frames with pooled
// buffers and a Batch.Release lifecycle), and dpp workers push batch
// frames over one credit-windowed TCP stream per client instead of
// answering unary gob RPCs, eliminating the per-batch round trip and
// the reflection-driven (de)serialization share of the paper's
// "datacenter tax" (§6.2). The framed stream is the only wire: a
// listener serves nothing else, and a failed handshake is an error, not
// a fallback. CostParams.FramedTaxCyclesPerByte lets the resource model
// price the cheaper encoding beside the modelled gob/Thrift tax.
// BenchmarkDPPWireFormat measures the wire (reference run:
// BENCH_wire.json — ~3.5x lower per-batch latency and ~99% less garbage
// than the unary gob transport it replaced, on the standard session
// shape).
//
// The DPP control plane closes the paper's auto-scaling loop (§3.2.1):
// a dpp.Orchestrator periodically evaluates worker heartbeats and
// launches or drains workers through a WorkerLauncher (in-process
// goroutines, or fleet workers served over TCP), with cooldown hysteresis on a
// virtual clock so tests drive the controller deterministically.
// Workers register a data-plane endpoint, receive a graceful drain
// signal, retire by serving out their buffers, and deregister; clients
// resolve live membership from the master (dpp.NewSessionClient) and
// rebalance connections as the pool resizes, so a session scales up and
// back down mid-flight while delivering every row exactly once. The
// "scaling" experiment reproduces the headline: under a mid-session
// trainer-speed shift the auto-scaled pool achieves a lower data-stall
// rate than a fixed minimal pool. BenchmarkDPPElasticSession compares
// the closed loop against fixed pools at both bounds (reference run:
// BENCH_scale.json).
//
// The control plane is multi-tenant, as the paper's DPP actually is: a
// dpp.Service hosts a session registry (CreateSession / CloseSession /
// ListSessions, in process or over RPC) above one shared elastic fleet
// of session-aware workers. Each FleetWorker runs one pipeline per
// assigned session behind a single data-plane listener that
// demultiplexes streams by the session ID in their hello, and the same
// Orchestrator control law runs fleet-wide: pool size tracks
// tenant-aggregated starvation while a weighted fair-share rebalance
// (SessionSpec.Weight, largest-remainder apportionment) keeps every
// tenant's worker allocation within one worker of its quota.
// Exactly-once delivery is hardened against non-graceful worker death:
// splits complete at the master only when their batches are consumed
// (not merely buffered), every batch carries (Split, Seq) provenance,
// and trainer clients deduplicate the redelivered overlap when a
// crashed worker's requeued leases re-run — the crash fault-injection
// harness (Worker.Crash, the fleet launchers' Crash) and the EndToEnd
// crash/multi-tenant checksum tests pin the guarantee on the framed
// data plane. The "multitenant" experiment measures weighted fair sharing
// with real concurrent sessions over one fleet.
//
// The ingestion path closes the loop of §3.1 as a live stream: serving
// hosts log paired feature/event records through scribe into
// LogDevice-backed categories, a continuously running etl.Pipeline
// joins and labels them, and sealed DWRF partitions publish atomically
// (seal == visibility, with a generation counter per table) into an
// unbounded warehouse table. Durable resume cursors (etl.CursorStore's
// intent → seal → commit write-ahead log) make crash recovery
// exactly-once: an uncommitted intent is adopted only if its partition
// became visible. A DPP session opens the table live
// (SessionSpec.Unbounded) — the master discovers splits as the ETL
// seals partitions, polling the generation when workers idle, and the
// session ends only when the producer closes its Scribe categories.
// Completed splits record event-time→trainer freshness lag
// (Master.Freshness); the "ingest" experiment and BENCH_ingest.json
// show the lag bounded and flat, and `dppd -role ingest` demos the
// whole loop over TCP.
//
// The storage read path is self-healing under an injectable fault
// plane: a seeded faults.Schedule marks nodes down, flaky, slow, or
// silently corrupting over virtual-clock windows, and tectonic reads
// recover through health-ranked replica failover with capped jittered
// backoff, hedged second reads past an adaptive latency threshold
// (tectonic.Options.Retry), and typed retryable-vs-permanent errors
// (tectonic.IsRetryable). dwrf verifies stripe content hashes and heals
// corrupt footers on open, quarantining condemned replicas out of the
// rotation and refetching from the rest; a split that exhausts its
// retry budget is released back to the master and requeued under a
// per-split poison budget (SessionSpec.RetryBudget), so one bad replica
// degrades throughput instead of failing the session. Recovery counters
// ride dwrf.ReadStats through ResourceReport and WorkerStats into fleet
// heartbeats. The paper's experiments run with faults disabled — with
// no schedule installed the whole plane is a single branch
// (BENCH_faults.json pins the overhead under 1%) — and
// TestEndToEndChecksumStorageChaos pins exact per-tenant checksums
// under a seeded storm; cmd/dppd installs one with -fault-seed.
//
// The ingestion write path heals the same way: write-shaped fault
// windows (failed, torn, and slow appends; failing seals) draw from the
// same seeded schedule, and every append carries a write token —
// tectonic keys a per-file ledger by path@offset, LogDevice a
// per-stream ledger by Scribe message token — so retries after a torn
// ack dedup against the record that already landed instead of
// duplicating it. Placement rescores rendezvous order by write health
// to route new chunks around down nodes, scribe.Daemon sheds overload
// behind watermark backpressure and a per-category circuit breaker
// (never hot-polling a down LogDevice), and etl.Pipeline re-produces a
// failed partition byte-identically from its base checkpoint under a
// bounded retry budget — aborting the orphan file, restoring the
// joiner, and poisoning the pipeline with a typed error past the
// budget. Write recovery counters ride dwrf.WriteStats into
// Pipeline.WriterStats; TestEndToEndStreamingIngestChaos pins exact
// per-tenant checksums through a combined write+read storm
// (BENCH_writefaults.json shows no measurable no-faults overhead), and
// `dppd -role ingest -write-fault-seed` demos the storm over TCP.
//
// The implementation lives under internal/; see README.md for the
// architecture overview, DESIGN.md for the system inventory and
// per-experiment index, and EXPERIMENTS.md for paper-vs-measured results.
// bench_test.go regenerates every table and figure of the paper's
// evaluation via `go test -bench=.`.
package dsi
