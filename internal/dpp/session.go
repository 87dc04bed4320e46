// Package dpp implements the paper's primary contribution: the Data
// PreProcessing Service (§3.2.1), a disaggregated online-preprocessing
// service that reads raw training data from storage, transforms it into
// ready-to-load tensors, and serves them to trainers.
//
// DPP divides into a control plane and a data plane:
//
//   - The Master (control plane) breaks the preprocessing workload into
//     self-contained splits, serves them to Workers, tracks progress,
//     checkpoints reader state, restarts failed Workers, and resolves
//     the session's live worker membership (ListWorkers) for clients.
//   - The Orchestrator closes the auto-scaling loop around the Master:
//     it periodically evaluates worker heartbeats with the AutoScaler
//     policy and launches or drains workers through a WorkerLauncher
//     (InProcessLauncher for goroutine workers; the fleet launchers
//     below for the Service), reaps retired workers, and takes periodic
//     reader-state checkpoints. Scale actions respect up/down cooldowns
//     measured on an internal/clock virtual clock, so tests drive the
//     identical control law deterministically via Step and Advance.
//   - Workers (data plane) are stateless: they register a data-plane
//     endpoint, pull the transformation spec at startup, then run
//     splits through a bounded multi-stage pipeline — a prefetcher pool
//     fetching and decoding stripes ahead of consumption, a concurrent
//     transform stage, and a delivery stage whose bounded buffer
//     applies backpressure — sized by SessionSpec.Pipeline and
//     observable per stage via WorkerStats. A drained worker finishes
//     its in-flight splits, serves out its buffer (Retire), and
//     deregisters, so shrinking the pool never loses rows.
//   - Clients run on trainer nodes and fetch tensors from Workers with
//     partitioned round-robin routing. A session client
//     (NewSessionClient) resolves membership from the Master and
//     rebalances its connections as the pool grows and shrinks
//     mid-session; NewClient keeps the frozen-set behaviour for static
//     fleets.
//
// Above the single-session Master sits the multi-tenant Service — the
// paper's actual deployment shape, one shared preprocessing fleet
// multiplexed across many simultaneous training jobs:
//
//   - The Service hosts a session registry (CreateSession /
//     CloseSession / ListSessions) with one Master per session, and a
//     fleet registry of session-aware FleetWorkers. Every control
//     Step it re-divides the live fleet among active sessions by
//     weighted fair share (SessionSpec.Weight, largest-remainder
//     apportionment, within one worker of each tenant's quota);
//     assignments reach workers with their fleet heartbeats.
//   - A FleetWorker runs one pipeline (a Worker) per assigned session
//     behind one shared data-plane listener; each framed stream's hello
//     carries the session ID that routes it to the right pipeline.
//     Revoking an assignment drains the pipeline through the ordinary
//     drain protocol, so rebalancing never loses rows.
//   - The same Orchestrator control law runs fleet-wide
//     (NewFleetOrchestrator): pool size follows tenant-aggregated
//     starvation and oversupply, scale-down drains whole fleet
//     members, and checkpoints cover every session.
//   - Each FleetWorker also owns a node-wide content-addressed cache
//     (ware.Cache, sized by CacheBytes) shared by every pipeline it
//     hosts: decoded stripe batches and transformed outputs are
//     published under ware IDs — stripe content digest + projection,
//     plus the transform plan fingerprint — so overlapping sessions of
//     any tenant reuse each other's decode and transform work.
//     Eviction is weight-aware (per-tenant byte floors mirroring fair
//     share), and entries are refcounted dwrf batches.
//
// Delivery is exactly-once even across non-graceful worker death: a
// split is acknowledged to its master only when every batch it
// produced has been consumed by a client (framed credit grants,
// in-process pops), every batch carries (Split, Seq) provenance,
// and clients deduplicate redelivery when a crashed worker's requeued
// leases re-run. Worker.Crash and the launchers' Crash methods are the
// fault-injection harness that pins this down in tests.
//
// The package supports two transports: direct in-process calls (used by
// simulations and tests) and TCP (cmd/dppd, the loop benchmark). Over
// TCP the control plane is a Service served with ServeService — the
// session registry, the fleet surface, and every session's Master
// surface over net/rpc — and networked workers are FleetWorkers joining
// it (ListenAndServeFleetWorker); a single networked session is a
// Service hosting one session.
//
// The TCP worker→trainer data plane has one wire encoding, framed
// streaming (DialWorkerFramedSession, SessionWorkerDialer; protocol in
// dataplane.go): the client opens one stream per worker and session
// with a hello carrying a credit window, and the worker pushes
// length-prefixed flat-binary batch frames as its delivery stage
// produces them, decrementing credit per frame. The client grants one
// credit per consumed batch, so at most a window of batches is in
// flight and a stalled trainer propagates backpressure into the
// worker's bounded buffer. Frames are encoded once into pooled buffers
// and decode into pool-backed tensors the trainer returns with
// tensor.Batch.Release. When a stream is dropped mid-session (a drained
// worker deregistering, a rebalance) the client first half-closes and
// rescues the received window on a side goroutine, and when a stream
// breaks abnormally (reset, truncated or oversized frame) the worker
// requeues the un-granted window into its buffer while the client
// discards its partial copy — so exactly-once delivery survives
// membership churn and transient connection failures alike.
//
// SessionSpec.DataPlane does not select the wire: it names the
// encoding the resource model prices (framed, or the Thrift-style gob
// encoding whose datacenter tax the paper measures; see CostParams).
package dpp

import (
	"encoding/gob"
	"fmt"

	"dsi/internal/dwrf"
	"dsi/internal/schema"
	"dsi/internal/transforms"
)

// SessionSpec is the preprocessing workload description an ML engineer
// submits (the paper's "PyTorchDataSet" session specification): dataset
// table, partitions, required features, per-feature transformations, and
// the tensor batch size.
type SessionSpec struct {
	Table      string
	Partitions []string
	// Unbounded opens the session as a live tail of a streaming table:
	// instead of fixing the split set at planning time, the master keeps
	// discovering new splits as the ETL pipeline seals partitions, and
	// the session finishes only after the producer closes the table's
	// stream AND every discovered split has completed. Requires a table
	// created with Warehouse.CreateUnboundedTable and no explicit
	// Partitions filter (an unbounded session always tails the whole
	// table). Gob-optional: absent from older specs.
	Unbounded bool
	// Features is the raw-feature projection read from storage.
	Features []schema.FeatureID
	// Ops is the transformation DAG, serialized as a flat op list (the
	// "serialized and compiled PyTorch module" Workers pull from the
	// Master).
	Ops []transforms.Op
	// DenseOut and SparseOut are the post-transform features materialized
	// into each tensor batch.
	DenseOut  []schema.FeatureID
	SparseOut []schema.FeatureID
	// BatchSize is rows per emitted tensor batch.
	BatchSize int
	// Read configures the storage read path (coalescing, flatmap).
	Read dwrf.ReadOptions
	// BufferDepth is the per-worker tensor buffer capacity in batches.
	BufferDepth int
	// Pipeline sizes the worker's pipelined data plane; the zero value
	// enables it with default parallelism.
	Pipeline PipelineOptions
	// Weight is the session's share of the fleet under multi-tenant
	// operation: the Service divides worker capacity among live
	// sessions in proportion to their weights (weighted fair share,
	// §3.2.1's per-job capacity assignment). Zero or negative defaults
	// to 1; single-session deployments ignore it.
	Weight float64
	// DataPlane names the worker→trainer encoding the resource model
	// prices for this session; the wire itself is always framed.
	// DataPlaneFramed prices the flat-binary codec
	// (FramedTaxCyclesPerByte); DataPlaneGob, and the empty default,
	// price a Thrift-style reflective encoding (TaxCyclesPerByte) — the
	// datacenter tax the paper measures — so the reproduction's modelled
	// baselines are unchanged unless a session opts into framed pricing.
	DataPlane string
	// Costs tunes the worker resource model; zero value means defaults.
	Costs CostParams
	// RetryBudget is the per-split poison budget (Master.MaxSplitRetries):
	// how many times a split may be released back after retryable storage
	// failures before the session fails. Zero uses DefaultSplitRetries.
	RetryBudget int
}

// PipelineOptions sizes the worker's pipelined data plane: extract,
// transform, and load run as overlapped stages instead of a strictly
// serial loop, so the NIC keeps fetching while the CPU transforms and
// the CPU keeps transforming while tensors drain to trainers — the
// overlap the paper's DPP workers need to avoid the Table 7 data stalls.
// Every buffer between stages is bounded, keeping per-session memory
// finite (§DPP: avoid OOM from unbounded buffering).
type PipelineOptions struct {
	// Prefetchers is the number of goroutines leasing splits and
	// fetching+decoding stripes ahead of the transform stage. Default 2.
	Prefetchers int
	// PrefetchDepth is the maximum number of decoded splits buffered
	// between the fetch and transform stages. Default
	// max(2, Prefetchers).
	PrefetchDepth int
	// TransformParallelism is the number of goroutines running the
	// transformation graph concurrently. Default 2.
	TransformParallelism int
	// MaxBufferedBytes bounds the delivered-tensor buffer by bytes on
	// top of BufferDepth's batch-count bound (0 = count bound only). A
	// single batch larger than the bound is still admitted when the
	// buffer is empty, so delivery always makes progress.
	MaxBufferedBytes int64
	// Sequential disables the pipeline, restoring the strictly serial
	// fetch → decode → transform → deliver loop (the stall baseline the
	// paper measures against).
	Sequential bool
}

// withDefaults fills zero fields.
func (o PipelineOptions) withDefaults() PipelineOptions {
	if o.Sequential {
		return o
	}
	if o.Prefetchers <= 0 {
		o.Prefetchers = 2
	}
	if o.TransformParallelism <= 0 {
		o.TransformParallelism = 2
	}
	if o.PrefetchDepth < o.Prefetchers {
		o.PrefetchDepth = o.Prefetchers
	}
	return o
}

// planFor clamps the stage parallelism to the session's actual split
// count; the Master applies this during session planning so a tiny
// session doesn't spin up idle stage goroutines on every worker.
func (o PipelineOptions) planFor(splits int) PipelineOptions {
	o = o.withDefaults()
	if o.Sequential || splits <= 0 {
		return o
	}
	if o.Prefetchers > splits {
		o.Prefetchers = splits
	}
	if o.PrefetchDepth > splits {
		o.PrefetchDepth = splits
	}
	if o.TransformParallelism > splits {
		o.TransformParallelism = splits
	}
	return o
}

// Validate checks the spec for obvious misconfiguration.
func (s *SessionSpec) Validate() error {
	if s.Table == "" {
		return fmt.Errorf("dpp: session needs a table")
	}
	if s.BatchSize <= 0 {
		return fmt.Errorf("dpp: session needs a positive batch size")
	}
	if len(s.Features) == 0 {
		return fmt.Errorf("dpp: session needs a feature projection")
	}
	switch s.DataPlane {
	case "", DataPlaneFramed, DataPlaneGob:
	default:
		return fmt.Errorf("dpp: unknown data plane %q (want %s or %s)", s.DataPlane, DataPlaneFramed, DataPlaneGob)
	}
	if s.Unbounded && len(s.Partitions) > 0 {
		return fmt.Errorf("dpp: an unbounded session tails the whole table; drop the Partitions filter")
	}
	return nil
}

// withDefaults returns a copy with defaulted optional fields.
func (s SessionSpec) withDefaults() SessionSpec {
	if s.BufferDepth == 0 {
		s.BufferDepth = 8
	}
	s.Pipeline = s.Pipeline.withDefaults()
	s.Costs = s.Costs.withDefaults()
	return s
}

// Projection builds the schema projection for the spec's raw features.
func (s *SessionSpec) Projection() *schema.Projection {
	return schema.NewProjection(s.Features...)
}

// BuildGraph compiles the op list into an executable DAG.
func (s *SessionSpec) BuildGraph() (*transforms.Graph, error) {
	g := transforms.NewGraph().Add(s.Ops...)
	if err := g.Compile(); err != nil {
		return nil, err
	}
	return g, nil
}

// CostParams models the per-byte and per-cycle costs of the worker data
// plane that the paper measures: extraction (decode) cycles, the
// "datacenter tax" of TLS + deserialization on every network byte
// (§6.2), TLS memory-bandwidth amplification (§7.2: 3x), and the
// row-map materialization penalty removed by the in-memory flatmap
// (§7.5).
type CostParams struct {
	// ExtractCyclesPerByte is decode CPU per raw (decoded) byte.
	ExtractCyclesPerByte float64
	// RowMapPenalty multiplies extract cycles and memory traffic when
	// decoding into row maps instead of the flatmap representation (FM
	// off). Paper: FM improved worker throughput ~15%.
	RowMapPenalty float64
	// LocalOptFactor divides all CPU costs when build/localized
	// optimizations (LO) are enabled. Paper: +28% throughput.
	LocalOptFactor float64
	// TaxCyclesPerByte is the datacenter-tax CPU per network byte moved
	// (TLS, Thrift) — the cost of a reflection-driven (de)serialization,
	// applied to all RX bytes and, when the session's modelled encoding
	// is DataPlaneGob (or unset), to tensor TX bytes.
	TaxCyclesPerByte float64
	// FramedTaxCyclesPerByte is the tax on tensor TX bytes when the
	// modelled encoding is DataPlaneFramed: the flat-binary codec's
	// single append pass replaces the reflective encode, leaving mostly
	// the TLS share of the tax (§6.2 splits the tax roughly evenly
	// between TLS and (de)serialization).
	FramedTaxCyclesPerByte float64
	// TLSMemAmplification multiplies memory traffic for NIC bytes
	// (paper: TLS amplifies memory bandwidth 3x).
	TLSMemAmplification float64
	// ExtractMemBytesPerByte is memory traffic per decoded byte
	// (decompress + reconstruct copies).
	ExtractMemBytesPerByte float64
	// XformCycleScale scales transformation CPU and memory cost to the
	// model's intensity (RM1's transforms are the most expensive, §6.3).
	XformCycleScale float64
	// ThreadResidentGB is the resident memory one preprocessing thread
	// pins (buffers, dictionaries, intermediates). When large, the
	// worker's thread pool is capped by memory capacity rather than
	// core count — RM3's situation in §6.3 ("bound on memory capacity,
	// forcing us to limit the worker thread pool size to avoid OOM").
	ThreadResidentGB float64
	// LocalOpt enables the LO optimizations.
	LocalOpt bool
	// Flatmap uses the in-memory flatmap batch representation (FM).
	Flatmap bool
}

func (c CostParams) withDefaults() CostParams {
	if c.ExtractCyclesPerByte == 0 {
		c.ExtractCyclesPerByte = 13
	}
	if c.RowMapPenalty == 0 {
		c.RowMapPenalty = 1.35
	}
	if c.LocalOptFactor == 0 {
		c.LocalOptFactor = 1.28
	}
	if c.TaxCyclesPerByte == 0 {
		c.TaxCyclesPerByte = 1.7
	}
	if c.FramedTaxCyclesPerByte == 0 {
		c.FramedTaxCyclesPerByte = 0.8
	}
	if c.TLSMemAmplification == 0 {
		c.TLSMemAmplification = 3.0
	}
	if c.ExtractMemBytesPerByte == 0 {
		c.ExtractMemBytesPerByte = 36
	}
	if c.XformCycleScale == 0 {
		c.XformCycleScale = 1
	}
	return c
}

// cpuDivisor is the factor CPU work is divided by under LO.
func (c CostParams) cpuDivisor() float64 {
	if c.LocalOpt {
		return c.LocalOptFactor
	}
	return 1
}

// extractMultiplier is the row-map penalty when FM is off.
func (c CostParams) extractMultiplier() float64 {
	if c.Flatmap {
		return 1
	}
	return c.RowMapPenalty
}

func init() {
	// Register every transform op so SessionSpec round-trips through gob
	// for the TCP transport.
	gob.Register(&transforms.Cartesian{})
	gob.Register(&transforms.Bucketize{})
	gob.Register(&transforms.ComputeScore{})
	gob.Register(&transforms.Enumerate{})
	gob.Register(&transforms.PositiveModulus{})
	gob.Register(&transforms.IdListTransform{})
	gob.Register(&transforms.BoxCox{})
	gob.Register(&transforms.Logit{})
	gob.Register(&transforms.MapId{})
	gob.Register(&transforms.FirstX{})
	gob.Register(&transforms.GetLocalHour{})
	gob.Register(&transforms.SigridHash{})
	gob.Register(&transforms.NGram{})
	gob.Register(&transforms.Onehot{})
	gob.Register(&transforms.Clamp{})
	gob.Register(&transforms.Sampling{})
}
