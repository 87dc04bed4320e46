package dpp

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"dsi/internal/dwrf"
	"dsi/internal/hw"
	"dsi/internal/metrics"
	"dsi/internal/schema"
	"dsi/internal/tensor"
	"dsi/internal/transforms"
	"dsi/internal/ware"
	"dsi/internal/warehouse"
)

// ResourceReport is the worker's cumulative resource accounting, split by
// the categories the paper measures (Fig 9: transformation, extraction,
// and miscellaneous CPU cycles; §6.3: memory traffic by source).
type ResourceReport struct {
	// CPU cycles by phase.
	ExtractCycles   float64
	TransformCycles float64
	TaxCycles       float64 // datacenter tax: TLS, deserialization, RPC framing

	// Memory traffic (bytes) by source, mirroring the paper's LLC-miss
	// attribution (50.4% transforms, 24.9% extraction, 16.4% net RX,
	// 4.7% net TX for RM2 on C-v2).
	MemTransform float64
	MemExtract   float64
	MemNetRX     float64
	MemNetTX     float64

	// Network bytes.
	NICRxBytes int64 // compressed bytes fetched from storage
	NICTxBytes int64 // tensor bytes to trainers
	// StorageWantedBytes is the requested (selected-stream) subset of
	// NICRxBytes; the difference is coalescing over-read.
	StorageWantedBytes int64
	// DecodedBytes is raw payload decoded after decompression.
	DecodedBytes int64

	// Work counters.
	RowsIn       int64
	RowsOut      int64
	BatchesOut   int64
	SplitsDone   int64
	ResidentPeak int64 // peak buffered tensor bytes

	// Per-stage busy wall time of the data plane (fetch vs decode vs
	// transform vs deliver), cumulative across all stage goroutines —
	// the repository-side analogue of Figure 9's cycle breakdown.
	// DeliverBusy includes time blocked on the bounded output buffer
	// (backpressure from slow trainers).
	FetchBusy     time.Duration
	DecodeBusy    time.Duration
	TransformBusy time.Duration
	DeliverBusy   time.Duration

	// ThreadLimit caps how many cores the workload can actually use
	// (0 = all). Memory-capacity-bound models (RM3, §6.3) run with a
	// reduced thread pool to avoid OOM.
	ThreadLimit int
	// ThreadResidentBytes is resident memory pinned per thread.
	ThreadResidentBytes int64

	// Fleet content-addressed cache counters, per split fetched through
	// the pipelined path (all zero for standalone workers, which run
	// uncached). A transform hit skips fetch, decode, AND the plan; a
	// stripe hit skips fetch and decode but still transforms.
	CacheXformHits  int64
	CacheStripeHits int64
	CacheMisses     int64
	// CacheBytesSaved is decoded/transformed column bytes served from
	// the cache instead of recomputed.
	CacheBytesSaved int64

	// Storage self-healing counters, folded out of each split's
	// dwrf.ReadStats: replica retries and failovers, hedged reads fired
	// and won, stripe fetches that failed content verification, and
	// replicas quarantined because of them. SplitsReleased counts
	// splits this worker handed back to the master for requeue after a
	// retryable storage failure (degraded mode).
	StorageRetries   int64
	StorageFailovers int64
	HedgedReads      int64
	HedgeWins        int64
	CorruptStripes   int64
	Quarantines      int64
	SplitsReleased   int64
}

// effectiveCores reports the usable core count on the node given the
// thread limit.
func (r ResourceReport) effectiveCores(node hw.NodeSpec) float64 {
	cores := node.PhysicalCores
	if r.ThreadLimit > 0 && r.ThreadLimit < cores {
		cores = r.ThreadLimit
	}
	return float64(cores)
}

// TotalCPUCycles sums all CPU phases.
func (r ResourceReport) TotalCPUCycles() float64 {
	return r.ExtractCycles + r.TransformCycles + r.TaxCycles
}

// TotalMemBytes sums all memory traffic.
func (r ResourceReport) TotalMemBytes() float64 {
	return r.MemTransform + r.MemExtract + r.MemNetRX + r.MemNetTX
}

// BusySeconds converts the accounted work into per-domain busy time on
// the given node, assuming the given core clock. The bottleneck domain
// is the one with the largest busy time.
func (r ResourceReport) BusySeconds(node hw.NodeSpec, ghz float64) (cpu, mem, nicRx, nicTx float64) {
	cpu = r.TotalCPUCycles() / (ghz * 1e9 * r.effectiveCores(node))
	mem = r.TotalMemBytes() / (node.PeakMemBWGBps * 1e9)
	nicRx = float64(r.NICRxBytes*8) / (node.NICGbps * 1e9)
	nicTx = float64(r.NICTxBytes*8) / (node.NICGbps * 1e9)
	return cpu, mem, nicRx, nicTx
}

// MemCapacityShare reports the fraction of node memory pinned by the
// thread pool's resident sets.
func (r ResourceReport) MemCapacityShare(node hw.NodeSpec) float64 {
	threads := r.effectiveCores(node)
	return float64(r.ThreadResidentBytes) * threads / (node.MemoryGB * 1e9)
}

// Bottleneck names the dominant resource on the given node. A CPU
// bottleneck caused by a memory-capacity-limited thread pool is reported
// as "memcap".
func (r ResourceReport) Bottleneck(node hw.NodeSpec, ghz float64) string {
	cpu, mem, nicRx, nicTx := r.BusySeconds(node, ghz)
	best, name := cpu, "cpu"
	if r.ThreadLimit > 0 && r.ThreadLimit < node.PhysicalCores {
		name = "memcap"
	}
	if mem > best {
		best, name = mem, "membw"
	}
	if nicRx+nicTx > best {
		name = "nic"
	}
	return name
}

// SaturatedThroughput reports rows/sec when the node runs its bottleneck
// resource at 100%.
func (r ResourceReport) SaturatedThroughput(node hw.NodeSpec, ghz float64) float64 {
	cpu, mem, nicRx, nicTx := r.BusySeconds(node, ghz)
	busy := maxf(cpu, maxf(mem, nicRx+nicTx))
	if busy == 0 {
		return 0
	}
	return float64(r.RowsIn) / busy
}

// CPUBoundThroughput reports rows/sec when the node's CPU alone is the
// limit. Table 12's "DPP throughput" column tracks this quantity: the
// paper attributes the FF/FM/LO gains to reductions in CPU cycles spent
// extracting and converting data.
func (r ResourceReport) CPUBoundThroughput(node hw.NodeSpec, ghz float64) float64 {
	cpu, _, _, _ := r.BusySeconds(node, ghz)
	if cpu == 0 {
		return 0
	}
	return float64(r.RowsIn) / cpu
}

// Utilizations reports each domain's utilization when the bottleneck is
// saturated (the operating point the paper measures in Fig 9).
func (r ResourceReport) Utilizations(node hw.NodeSpec, ghz float64) (cpu, mem, nic float64) {
	c, m, rx, tx := r.BusySeconds(node, ghz)
	busy := maxf(c, maxf(m, rx+tx))
	if busy == 0 {
		return 0, 0, 0
	}
	return c / busy, m / busy, (rx + tx) / busy
}

// Worker is a stateless DPP data-plane node: it pulls splits from the
// Master, extracts and transforms rows, and buffers materialized tensor
// batches for Clients.
type Worker struct {
	ID string
	// Endpoint is the data-plane address registered with the master
	// (empty for in-process workers dialed by identity).
	Endpoint string

	master MasterAPI
	wh     *warehouse.Warehouse
	spec   SessionSpec
	graph  *transforms.Graph
	// plan is the graph compiled into the slot-indexed execution form;
	// nil when the graph contains ops the compiler does not know (the
	// transform stage then falls back to the interpreter).
	plan *transforms.Plan
	// arena recycles decoded and transformed column buffers across the
	// worker's splits: the fetch stage decodes stripes into arena
	// batches, the transform plan draws output columns from it, and
	// transformBatch releases each batch once tensors are materialized.
	arena *dwrf.Arena
	proj  *schema.Projection
	// cache, when non-nil, is the node-wide content-addressed batch
	// cache shared by every pipeline the hosting FleetWorker runs;
	// cacheTenant attributes its hits, misses, and residency to this
	// worker's session. Standalone workers leave it nil (uncached).
	cache       *ware.Cache
	cacheTenant string
	// planFP fingerprints this session's preprocessing (compiled plan
	// or interpreted graph); transformed-batch wares are keyed by it.
	planFP string

	mu       sync.Mutex
	buffer   []*tensor.Batch
	bufBytes int64
	// outstanding counts batches sent into framed stream windows but not
	// yet granted by a client (see dataplane.go); Retire waits for it to
	// reach zero so a worker never deregisters while rows are in flight.
	outstanding int
	finished    bool
	draining    bool
	crashed     bool
	// splits tracks per-split delivery progress. A split is acknowledged
	// to the master (CompleteSplit) only once every batch it produced has
	// been consumed by a client — not when it lands in the buffer — so a
	// worker that crashes with buffered or in-window batches leaves its
	// splits leased, ReapDead requeues them, and another worker re-runs
	// them. Clients deduplicate the partially-consumed overlap by the
	// batches' (Split, Seq) provenance tags, which together makes
	// delivery exactly-once even across non-graceful worker death.
	splits map[int]*splitAcct
	// completing counts CompleteSplit RPCs in flight off-lock, so Retire
	// does not deregister (requeueing leases) a moment before their acks
	// land at the master.
	completing int
	crashCh    chan struct{}
	report     ResourceReport
	notEmpty   chan struct{} // closed-and-replaced signal for consumers
	notFull    chan struct{} // closed-and-replaced signal for producers
	splitDone  chan struct{} // closed-and-replaced after each CompleteSplit

	// BusyFrac window: the last Stats() sample point, so each heartbeat
	// reports the live busy fraction since the previous one.
	lastStatsAt  time.Time
	lastBusy     time.Duration
	lastBusyFrac float64
	// minBuffered tracks the lowest buffer occupancy since the last
	// Stats() call (WorkerStats.MinBuffered).
	minBuffered int

	// Stage stopwatches accumulate busy time across all pipeline
	// goroutines; Report folds them into the resource report.
	stageFetch     metrics.Stopwatch
	stageDecode    metrics.Stopwatch
	stageTransform metrics.Stopwatch
	stageDeliver   metrics.Stopwatch

	// Sink, when set, receives batches directly instead of the buffer
	// (offline measurement mode). It is always invoked from a single
	// goroutine at a time, pipelined or not.
	Sink func(*tensor.Batch)

	// Node is the hardware this worker is modelled on (default C-v1, the
	// paper's worker node).
	Node hw.NodeSpec
	// ClockGHz is the modelled core clock.
	ClockGHz float64
	// HeartbeatEvery is the background liveness heartbeat period
	// (default 500ms). Orchestrated tests shrink it so the master's view
	// of buffer occupancy and busy fraction stays fresh at millisecond
	// control-loop scales.
	HeartbeatEvery time.Duration
}

// NewWorker registers with the master, pulls the session spec, and
// compiles the transformation graph. The worker registers no data-plane
// endpoint; use NewWorkerWithEndpoint when clients resolve workers
// through the master.
func NewWorker(id string, master MasterAPI, wh *warehouse.Warehouse) (*Worker, error) {
	return NewWorkerWithEndpoint(id, "", master, wh)
}

// NewWorkerWithEndpoint registers with the master, announcing the
// data-plane address clients should fetch tensors from, pulls the
// session spec, and compiles the transformation graph.
func NewWorkerWithEndpoint(id, endpoint string, master MasterAPI, wh *warehouse.Warehouse) (*Worker, error) {
	spec, err := master.RegisterWorker(id, endpoint)
	if err != nil {
		return nil, fmt.Errorf("dpp: worker %s register: %w", id, err)
	}
	spec = spec.withDefaults()
	graph, err := spec.BuildGraph()
	if err != nil {
		return nil, fmt.Errorf("dpp: worker %s graph: %w", id, err)
	}
	// Compile the preprocessing graph into the slot-indexed plan once
	// per session. Compilation fails only for op configurations Apply
	// would reject per batch (those keep failing identically through
	// the interpreter) or for op implementations without a compiled
	// kernel; either way the worker still runs, interpreted.
	plan, err := graph.CompilePlan()
	if err != nil {
		plan = nil
	}
	planFP := graph.Fingerprint()
	if plan != nil {
		planFP = plan.Fingerprint()
	}
	return &Worker{
		ID:          id,
		Endpoint:    endpoint,
		master:      master,
		wh:          wh,
		spec:        spec,
		graph:       graph,
		plan:        plan,
		arena:       dwrf.NewArena(),
		proj:        spec.Projection(),
		planFP:      planFP,
		splits:      make(map[int]*splitAcct),
		notEmpty:    make(chan struct{}),
		notFull:     make(chan struct{}),
		splitDone:   make(chan struct{}),
		crashCh:     make(chan struct{}),
		lastStatsAt: time.Now(),
		Node:        hw.CV1,
		ClockGHz:    2.5,
	}, nil
}

// splitAcct is one split's delivery ledger: how many batches entered the
// buffer, how many a client has consumed, and whether production is
// still running. The split completes at the master when producing is
// over and every produced batch was consumed.
type splitAcct struct {
	produced  int
	consumed  int
	producing bool
}

// Spec returns the session spec the worker pulled from the master.
func (w *Worker) Spec() SessionSpec { return w.spec }

// ProcessOneSplit fetches and fully processes one split. It returns
// false when the master has no split to hand out (session done, nothing
// pending, or this worker has been marked draining — see Draining).
func (w *Worker) ProcessOneSplit() (bool, error) {
	split, splitID, ok, draining, err := w.master.NextSplit(w.ID)
	if draining {
		w.setDraining()
	}
	if err != nil {
		return false, err
	}
	if !ok {
		return false, nil
	}
	if err := w.processSplit(split, splitID); err != nil {
		return false, fmt.Errorf("dpp: worker %s split %d: %w", w.ID, splitID, err)
	}
	return true, nil
}

// processSplit runs the extract → transform → load stages for one split
// serially (the baseline data plane) and accounts resources. The split
// is acknowledged to the master by the consumption ledger (see
// splitAcct), not here.
func (w *Worker) processSplit(split warehouse.Split, splitID int) error {
	batch, readStats, err := w.fetchSplit(split, false)
	if err != nil {
		return err
	}
	tr, err := w.transformBatch(batch)
	if err != nil {
		return err
	}
	w.accountSplit(readStats, tr)
	tagBatches(splitID, tr.batches)
	w.beginSplit(splitID)
	err = w.deliverAll(tr.batches, nil)
	w.finishSplit(splitID, err == nil)
	return err
}

// tagBatches stamps one split's batches with their delivery provenance:
// 1-based split ID and 1-based position. Slicing is deterministic, so a
// re-run of the same split reproduces the same tags over the same rows
// and clients can deduplicate redelivery.
func tagBatches(splitID int, batches []*tensor.Batch) {
	for i, b := range batches {
		b.Split = int32(splitID) + 1
		b.Seq = int32(i) + 1
		b.SeqCount = int32(len(batches))
	}
}

// beginSplit opens the delivery ledger for one split.
func (w *Worker) beginSplit(splitID int) {
	w.mu.Lock()
	w.splits[splitID] = &splitAcct{producing: true}
	w.mu.Unlock()
}

// finishSplit closes a split's production ledger. delivered=true means
// every batch reached the buffer (or the sink): the split completes at
// the master once everything produced is consumed — immediately for a
// sink-mode split, whose produced == consumed == 0. delivered=false
// means delivery was cut short (crash or stop): the ledger is dropped
// WITHOUT completing, so the lease stays in flight, the master
// eventually requeues it, and the re-run redelivers the missing tail
// while client-side (Split, Seq) dedup drops the overlap.
func (w *Worker) finishSplit(splitID int, delivered bool) {
	w.mu.Lock()
	a := w.splits[splitID]
	complete := false
	if a != nil {
		if !delivered {
			delete(w.splits, splitID)
		} else {
			a.producing = false
			if a.consumed >= a.produced {
				delete(w.splits, splitID)
				complete = true
			}
		}
	}
	if complete {
		w.completing++
	}
	w.mu.Unlock()
	if complete {
		w.completeSplit(splitID)
	}
}

// ackConsumed records that a client irrevocably consumed a batch (an
// in-process pop, a framed credit grant, or a gracefully rescued stream
// window) and completes any split whose batches have now all been
// consumed. Untagged batches and batches of unknown splits (double acks
// after a requeue race) are ignored.
func (w *Worker) ackConsumed(batches ...*tensor.Batch) {
	var complete []int
	w.mu.Lock()
	for _, b := range batches {
		if b == nil || b.Split == 0 {
			continue
		}
		splitID := int(b.Split) - 1
		a := w.splits[splitID]
		if a == nil {
			continue
		}
		a.consumed++
		if !a.producing && a.consumed >= a.produced {
			delete(w.splits, splitID)
			complete = append(complete, splitID)
		}
	}
	w.completing += len(complete)
	w.mu.Unlock()
	for _, splitID := range complete {
		w.completeSplit(splitID)
	}
}

// completeSplit acknowledges one fully consumed split to the master.
// Errors are dropped: a failed ack leaves the lease in flight, the
// master eventually requeues it, and client-side (Split, Seq)
// deduplication absorbs the re-run — correctness never depends on this
// call landing.
func (w *Worker) completeSplit(splitID int) {
	_ = w.master.CompleteSplit(w.ID, splitID)
	w.mu.Lock()
	w.completing--
	w.report.SplitsDone++
	close(w.splitDone) // wake fetchers waiting to re-check Done
	w.splitDone = make(chan struct{})
	w.mu.Unlock()
}

// pendingSplits reports splits whose consumption ledger is still open,
// plus completion acks in flight to the master.
func (w *Worker) pendingSplits() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.splits) + w.completing
}

// fetchSplit reads and decodes one split, crediting the fetch and
// decode stage stopwatches. The pipelined data plane reads through the
// warehouse reader cache (one footer decode per file); the sequential
// baseline keeps the seed behaviour of opening the file per split, so
// the paper's baseline measurements are unchanged.
func (w *Worker) fetchSplit(split warehouse.Split, cached bool) (*dwrf.Batch, dwrf.ReadStats, error) {
	read := w.wh.ReadSplitBatchArena
	if cached {
		read = w.wh.ReadSplitBatchCachedArena
	}
	start := time.Now()
	batch, readStats, err := read(split, w.proj, w.spec.Read, w.arena)
	wall := time.Since(start)
	// The read's own instrumentation splits storage wait from decode
	// work; everything else (footer cache hits, planning) counts as
	// fetch.
	w.stageDecode.Add(readStats.DecodeWall)
	w.stageFetch.Add(wall - readStats.DecodeWall)
	return batch, readStats, err
}

// UseCache attaches the node-wide content-addressed cache, attributing
// its activity to tenant (the session ID). Call before Run; the
// FleetWorker does so for every pipeline it starts.
func (w *Worker) UseCache(c *ware.Cache, tenant string) {
	w.cache = c
	w.cacheTenant = tenant
}

// fetchSplitThroughCache is the pipelined fetch stage's read path: it
// resolves the split's content-addressed identities and serves the
// batch from the fleet cache when any pipeline on this node — any
// session, any tenant — already decoded (stripe ware) or decoded and
// transformed (xform ware) the same content under the same projection
// and plan. Without a cache it degrades to the plain cached-reader
// fetch. The sequential baseline never comes through here, so the
// paper's uncached measurements are unchanged.
func (w *Worker) fetchSplitThroughCache(split warehouse.Split) (fetchedSplit, error) {
	if w.cache == nil {
		batch, stats, err := w.fetchSplit(split, true)
		return fetchedSplit{batch: batch, stats: stats}, err
	}
	start := time.Now()
	r, err := w.wh.CachedReader(split.Path)
	if err != nil {
		return fetchedSplit{}, err
	}
	sid := ware.StripeID(r.StripeContentHash(split.Stripe), split.Path, split.Stripe, w.proj)
	xid := ware.XformID(sid, w.planFP)

	// Transformed hit: the exact batch this session's plan would
	// produce already exists. Fetch, decode, and transform all skip;
	// the transform stage only materializes tensors (read-only) from
	// the shared batch.
	if b := w.cache.Get(xid, w.cacheTenant); b != nil {
		w.stageFetch.Add(time.Since(start))
		w.noteCacheHit(true, b.MemBytes())
		return fetchedSplit{batch: b, preXformed: true}, nil
	}
	// Stripe hit: decode skips; the transform stage runs the plan over
	// a private Derive view (fresh maps over shared columns), then
	// offers the result under the xform ware.
	if b := w.cache.Get(sid, w.cacheTenant); b != nil {
		view := b.Derive(w.arena)
		w.stageFetch.Add(time.Since(start))
		w.noteCacheHit(false, b.MemBytes())
		return fetchedSplit{batch: view, xformWare: xid}, nil
	}
	// Miss: decode for real and publish the stripe batch. On
	// acceptance the worker transforms a Derive view so the cached
	// columns stay pristine; on refusal (duplicate, over-floor) the
	// batch stays exclusively owned and flows through unchanged.
	batch, stats, err := w.fetchSplit(split, true)
	if err != nil {
		return fetchedSplit{}, err
	}
	w.noteCacheMiss()
	b, shared := w.cache.Insert(sid, batch, w.cacheTenant)
	if shared {
		b = b.Derive(w.arena)
	}
	return fetchedSplit{batch: b, stats: stats, xformWare: xid}, nil
}

// noteCacheHit folds one per-split cache hit into the resource report.
func (w *Worker) noteCacheHit(xform bool, bytes int64) {
	w.mu.Lock()
	if xform {
		w.report.CacheXformHits++
	} else {
		w.report.CacheStripeHits++
	}
	w.report.CacheBytesSaved += bytes
	w.mu.Unlock()
}

// noteCacheMiss folds one per-split cache miss into the resource report.
func (w *Worker) noteCacheMiss() {
	w.mu.Lock()
	w.report.CacheMisses++
	w.mu.Unlock()
}

// transformed bundles one split's transform-stage output.
type transformed struct {
	batches []*tensor.Batch
	xform   transforms.Stats
	rowsOut int64
	txBytes int64
}

// transformBatch runs the preprocessing graph — through the compiled
// slot-indexed plan when it compiled, the interpreter otherwise — and
// materializes tensors, crediting the transform stage stopwatch. The
// columnar batch is released once the tensors (which copy every value)
// are built: for an exclusively owned batch that returns its columns to
// the worker's arena immediately, for a shared one (cached, or a Derive
// view over a cached stripe) it drops this consumer's reference.
func (w *Worker) transformBatch(batch *dwrf.Batch) (transformed, error) {
	return w.transformPublish(batch, ware.WareID{})
}

// transformPublish is transformBatch plus publication: when the fleet
// cache is attached and xw names the transform output, the transformed
// batch is offered to the cache before materialization — post-transform
// nothing mutates it, so other pipelines (any session whose projection
// and plan fingerprint match) may start reading it immediately. Whether
// the cache accepts or refuses, this worker still holds exactly one
// reference, consumed by the Release after materialization.
func (w *Worker) transformPublish(batch *dwrf.Batch, xw ware.WareID) (transformed, error) {
	start := time.Now()
	defer func() { w.stageTransform.Add(time.Since(start)) }()

	var xformStats transforms.Stats
	var err error
	if w.plan != nil {
		xformStats, err = w.plan.Run(batch, w.arena)
	} else {
		xformStats, err = w.graph.Run(batch)
	}
	if err != nil {
		return transformed{}, err
	}
	if w.cache != nil && !xw.IsZero() {
		batch, _ = w.cache.Insert(xw, batch, w.cacheTenant)
	}
	full, err := tensor.Materialize(batch, w.spec.DenseOut, w.spec.SparseOut)
	if err != nil {
		return transformed{}, err
	}
	batch.Release()
	batches := sliceBatches(full, w.spec.BatchSize)
	var txBytes int64
	for _, b := range batches {
		txBytes += b.SizeBytes()
	}
	return transformed{batches: batches, xform: xformStats, rowsOut: int64(full.Rows), txBytes: txBytes}, nil
}

// transformFetched is the pipelined transform stage's entry point. A
// split that hit the transformed-batch cache skips the plan entirely:
// tensor materialization reads the shared batch (Materialize copies
// every value and never writes the batch) and the only reference this
// pipeline holds is released. Everything else transforms normally,
// publishing under the split's xform ware when one was resolved.
func (w *Worker) transformFetched(f fetchedSplit) (transformed, error) {
	if !f.preXformed {
		return w.transformPublish(f.batch, f.xformWare)
	}
	start := time.Now()
	defer func() { w.stageTransform.Add(time.Since(start)) }()
	rows := f.batch.Rows
	full, err := tensor.Materialize(f.batch, w.spec.DenseOut, w.spec.SparseOut)
	f.batch.Release()
	if err != nil {
		return transformed{}, err
	}
	batches := sliceBatches(full, w.spec.BatchSize)
	var txBytes int64
	for _, b := range batches {
		txBytes += b.SizeBytes()
	}
	// No plan ran, so no transform cycles are accounted — that saving
	// is the point; the rows still count as processed.
	return transformed{
		batches: batches,
		xform:   transforms.Stats{RowsIn: rows, RowsOut: full.Rows},
		rowsOut: int64(full.Rows),
		txBytes: txBytes,
	}, nil
}

// accountSplit folds one split's read and transform statistics into the
// worker's cumulative resource report.
func (w *Worker) accountSplit(readStats dwrf.ReadStats, tr transformed) {
	costs := w.spec.Costs
	// The RX tax (storage fetch TLS + decode framing) is encoding-
	// independent; the TX tax depends on the session's modelled
	// encoding: the framed codec's flat append pass replaces gob's
	// reflective encode on every tensor byte sent to trainers.
	txTax := costs.TaxCyclesPerByte
	if w.spec.DataPlane == DataPlaneFramed {
		txTax = costs.FramedTaxCyclesPerByte
	}
	w.mu.Lock()
	r := &w.report
	cpuDiv := costs.cpuDivisor()
	r.ExtractCycles += float64(readStats.BytesDecoded) * costs.ExtractCyclesPerByte * costs.extractMultiplier() / cpuDiv
	r.TransformCycles += tr.xform.TotalCycles() * costs.XformCycleScale / cpuDiv
	r.TaxCycles += float64(readStats.BytesRead)*costs.TaxCyclesPerByte + float64(tr.txBytes)*txTax
	r.MemExtract += float64(readStats.BytesDecoded) * costs.ExtractMemBytesPerByte * costs.extractMultiplier()
	r.MemTransform += tr.xform.MemBytes * costs.XformCycleScale
	r.MemNetRX += float64(readStats.BytesRead) * costs.TLSMemAmplification
	r.MemNetTX += float64(tr.txBytes) * costs.TLSMemAmplification / 2
	r.NICRxBytes += readStats.BytesRead
	r.NICTxBytes += tr.txBytes
	r.StorageWantedBytes += readStats.BytesWanted
	r.DecodedBytes += readStats.BytesDecoded
	r.RowsIn += int64(tr.xform.RowsIn)
	r.RowsOut += tr.rowsOut
	r.BatchesOut += int64(len(tr.batches))
	r.StorageRetries += readStats.Retries
	r.StorageFailovers += readStats.Failovers
	r.HedgedReads += readStats.HedgedReads
	r.HedgeWins += readStats.HedgeWins
	r.CorruptStripes += readStats.CorruptStripes
	r.Quarantines += readStats.Quarantines
	w.mu.Unlock()
}

// noteSplitReleased folds one degraded-mode split release into the
// resource report.
func (w *Worker) noteSplitReleased() {
	w.mu.Lock()
	w.report.SplitsReleased++
	w.mu.Unlock()
}

// deliverAll delivers a split's batches in order, crediting the deliver
// stage stopwatch (including time blocked on backpressure).
func (w *Worker) deliverAll(batches []*tensor.Batch, cancel <-chan struct{}) error {
	start := time.Now()
	defer func() { w.stageDeliver.Add(time.Since(start)) }()
	for _, b := range batches {
		if err := w.deliver(b, cancel); err != nil {
			return err
		}
	}
	return nil
}

// errCanceled aborts delivery when the session is stopped mid-flight.
var errCanceled = errors.New("dpp: delivery canceled")

// deliver hands a batch to the sink or buffers it, blocking while the
// buffer is at capacity (backpressure from slow trainers). The buffer
// admits a batch when it is below BufferDepth batches and below the
// pipeline's byte bound; an empty buffer always admits one batch so
// delivery cannot deadlock on an oversized batch.
func (w *Worker) deliver(b *tensor.Batch, cancel <-chan struct{}) error {
	if w.Sink != nil {
		w.Sink(b)
		return nil
	}
	size := b.SizeBytes()
	maxBytes := w.spec.Pipeline.MaxBufferedBytes
	for {
		w.mu.Lock()
		fits := len(w.buffer) < w.spec.BufferDepth &&
			(maxBytes <= 0 || w.bufBytes+size <= maxBytes)
		if fits || len(w.buffer) == 0 {
			w.buffer = append(w.buffer, b)
			w.bufBytes += size
			if w.bufBytes > w.report.ResidentPeak {
				w.report.ResidentPeak = w.bufBytes
			}
			if b.Split != 0 {
				if a := w.splits[int(b.Split)-1]; a != nil {
					a.produced++
				}
			}
			close(w.notEmpty)
			w.notEmpty = make(chan struct{})
			w.mu.Unlock()
			return nil
		}
		wait := w.notFull
		w.mu.Unlock()
		select {
		case <-wait:
		case <-cancel:
			return errCanceled
		case <-w.crashCh:
			return errCanceled
		case <-time.After(2 * time.Millisecond):
			// Fallback poll so a missed signal can never wedge delivery.
		}
	}
}

// GetBatch pops one buffered batch for direct local consumption (the
// pop counts as consumed for the split ledger). ok=false means the
// worker has finished and the buffer is drained.
func (w *Worker) GetBatch() (*tensor.Batch, bool) {
	for {
		b, ok, done := w.TryGetBatch()
		if ok {
			w.ackConsumed(b)
			return b, true
		}
		if done {
			return nil, false
		}
		w.mu.Lock()
		wait := w.notEmpty
		w.mu.Unlock()
		select {
		case <-wait:
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// TryGetBatch pops a buffered batch without blocking. done=true means
// the worker has finished and drained. The pop is NOT a consumption
// acknowledgement: transports that can still lose the batch (a framed
// stream's in-flight window) ack later, while direct local consumers
// (GetBatch, LocalWorkerAPI) ack immediately after the pop. A crashed
// worker serves nothing and never reports done — it is simply
// unreachable, like a dead process.
func (w *Worker) TryGetBatch() (b *tensor.Batch, ok, done bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.crashed {
		return nil, false, false
	}
	if len(w.buffer) > 0 {
		b = w.buffer[0]
		w.buffer = w.buffer[1:]
		w.bufBytes -= b.SizeBytes()
		if len(w.buffer) < w.minBuffered {
			w.minBuffered = len(w.buffer)
		}
		close(w.notFull)
		w.notFull = make(chan struct{})
		return b, true, false
	}
	return nil, false, w.finished
}

// UngetBatches returns batches to the FRONT of the buffer, preserving
// their order — the framed data plane's recovery path when a stream
// breaks abnormally with sent-but-unconsumed batches in flight (see
// dataplane.go). The buffer's capacity bounds are deliberately ignored:
// these batches were already admitted once, and dropping them would
// lose rows whose splits the master has acknowledged.
func (w *Worker) UngetBatches(batches []*tensor.Batch) {
	if len(batches) == 0 {
		return
	}
	w.mu.Lock()
	buf := make([]*tensor.Batch, 0, len(batches)+len(w.buffer))
	buf = append(buf, batches...)
	w.buffer = append(buf, w.buffer...)
	for _, b := range batches {
		w.bufBytes += b.SizeBytes()
	}
	if w.bufBytes > w.report.ResidentPeak {
		w.report.ResidentPeak = w.bufBytes
	}
	close(w.notEmpty)
	w.notEmpty = make(chan struct{})
	w.mu.Unlock()
}

// addStreamOutstanding implements the data plane's outstandingTracker.
func (w *Worker) addStreamOutstanding(delta int) {
	w.mu.Lock()
	w.outstanding += delta
	w.mu.Unlock()
}

// Undelivered reports batches the worker is still responsible for:
// buffered plus sent into stream windows but not yet granted.
func (w *Worker) Undelivered() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.buffer) + w.outstanding
}

// Buffered reports the number of buffered batches.
func (w *Worker) Buffered() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.buffer)
}

// Finished reports whether Run has completed.
func (w *Worker) Finished() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.finished
}

// Draining reports whether the master has marked this worker for
// removal: it receives no further splits and Run exits once in-flight
// work is delivered.
func (w *Worker) Draining() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.draining
}

func (w *Worker) setDraining() {
	w.mu.Lock()
	w.draining = true
	w.mu.Unlock()
}

// Crash is the fault-injection hook: it kills the worker as a process
// death would, with no drain and no deregistration. The data plane goes
// dark immediately (framed streams sever, the buffer stops serving), heartbeats stop as soon as Run unwinds, and nothing is
// acknowledged or handed off — the master discovers the death through
// ReapDead's heartbeat staleness, requeues the leases of every split the
// crashed worker had not fully delivered, and the session re-runs them
// elsewhere. Idempotent. The worker also crashes itself when the master
// disowns it (heartbeatLoop's consecutive-failure rule): a reaped
// worker's buffered work is unreachable by any client, so abandoning it
// is the only exit that cannot wedge.
func (w *Worker) Crash() {
	w.mu.Lock()
	if !w.crashed {
		w.crashed = true
		close(w.crashCh)
	}
	w.mu.Unlock()
}

// crashedCh implements the data plane's crashSignaler: serving streams
// sever when it closes.
func (w *Worker) crashedCh() <-chan struct{} { return w.crashCh }

// Crashed reports whether the fault-injection hook fired.
func (w *Worker) Crashed() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.crashed
}

// Report snapshots the worker's cumulative resource accounting,
// including the memory-capacity thread limit on the worker's node.
func (w *Worker) Report() ResourceReport {
	w.mu.Lock()
	rep := w.report
	w.mu.Unlock()
	rep.FetchBusy = w.stageFetch.Busy()
	rep.DecodeBusy = w.stageDecode.Busy()
	rep.TransformBusy = w.stageTransform.Busy()
	rep.DeliverBusy = w.stageDeliver.Busy()
	if gb := w.spec.Costs.ThreadResidentGB; gb > 0 {
		rep.ThreadResidentBytes = int64(gb * 1e9)
		limit := int(w.Node.MemoryGB * 0.9 / gb)
		if limit < 1 {
			limit = 1
		}
		rep.ThreadLimit = limit
	}
	return rep
}

// busyFracWindow is the minimum wall window over which BusyFrac is
// re-sampled; faster callers reuse the previous sample so concurrent
// stat readers don't shred the measurement window into noise.
const busyFracWindow = 200 * time.Microsecond

// busyFrac measures the live busy fraction of the data plane since the
// previous sample: productive stage time (fetch, decode, transform —
// not delivery, which counts backpressure blocking) over wall time,
// normalized by the number of stage goroutines.
func (w *Worker) busyFrac() float64 {
	busy := w.stageFetch.Busy() + w.stageDecode.Busy() + w.stageTransform.Busy()
	parallel := 1.0
	if !w.spec.Pipeline.Sequential {
		parallel = float64(w.spec.Pipeline.Prefetchers + w.spec.Pipeline.TransformParallelism)
	}
	now := time.Now()
	w.mu.Lock()
	defer w.mu.Unlock()
	wall := now.Sub(w.lastStatsAt)
	if wall < busyFracWindow {
		return w.lastBusyFrac
	}
	frac := float64(busy-w.lastBusy) / (float64(wall) * parallel)
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	w.lastStatsAt, w.lastBusy, w.lastBusyFrac = now, busy, frac
	return frac
}

// Stats assembles a utilization snapshot: saturation-relative modelled
// utilizations plus buffer occupancy and the live busy fraction. It
// does NOT consume the BusyFrac/MinBuffered measurement windows, so
// external pollers (the Worker.Stats RPC, tests) can call it freely
// without corrupting the signals the auto-scaler keys on; only the
// worker's own heartbeat paths sample-and-reset via heartbeatStats.
func (w *Worker) Stats() WorkerStats { return w.stats(false) }

// heartbeatStats is Stats plus a sample-and-restart of the BusyFrac and
// MinBuffered windows; each heartbeat therefore reports what happened
// since the previous heartbeat.
func (w *Worker) heartbeatStats() WorkerStats { return w.stats(true) }

func (w *Worker) stats(sample bool) WorkerStats {
	rep := w.Report()
	cpu, mem, nic := rep.Utilizations(w.Node, w.ClockGHz)
	var busyFrac float64
	if sample {
		busyFrac = w.busyFrac()
	}
	w.mu.Lock()
	if !sample {
		busyFrac = w.lastBusyFrac
	}
	buffered := len(w.buffer)
	minBuffered := w.minBuffered
	if sample {
		w.minBuffered = buffered // restart the window at the current level
	}
	resident := float64(w.bufBytes)
	w.mu.Unlock()
	return WorkerStats{
		CPUUtil:         cpu,
		MemBWUtil:       mem,
		NICUtil:         nic,
		MemCapacityUtil: resident / (w.Node.MemoryGB * 1e9),
		BufferedBatches: buffered,
		MinBuffered:     minBuffered,
		RowsPerSec:      rep.SaturatedThroughput(w.Node, w.ClockGHz),
		BusyFrac:        busyFrac,
		Stage: StageBusy{
			FetchSeconds:     w.stageFetch.Seconds(),
			DecodeSeconds:    w.stageDecode.Seconds(),
			TransformSeconds: w.stageTransform.Seconds(),
			DeliverSeconds:   w.stageDeliver.Seconds(),
		},
		CacheXformHits:  rep.CacheXformHits,
		CacheStripeHits: rep.CacheStripeHits,
		CacheMisses:     rep.CacheMisses,
		CacheBytesSaved: rep.CacheBytesSaved,

		StorageRetries:   rep.StorageRetries,
		StorageFailovers: rep.StorageFailovers,
		HedgedReads:      rep.HedgedReads,
		HedgeWins:        rep.HedgeWins,
		CorruptStripes:   rep.CorruptStripes,
		Quarantines:      rep.Quarantines,
		SplitsReleased:   rep.SplitsReleased,
	}
}

// finish marks the worker drained-when-empty and wakes all waiters.
func (w *Worker) finish() {
	w.mu.Lock()
	w.finished = true
	close(w.notEmpty)
	w.notEmpty = make(chan struct{})
	close(w.notFull)
	w.notFull = make(chan struct{})
	w.mu.Unlock()
}

// Run processes splits until the master reports the session done, the
// master marks this worker draining (the auto-scaler shrinking the
// pool), or stop is closed. In-flight splits are always delivered before
// Run returns; buffered batches remain fetchable afterwards — follow
// with Retire to serve them out and deregister. By default the data
// plane runs pipelined (fetch, transform, and deliver overlap);
// SessionSpec.Pipeline.Sequential restores the serial baseline loop. Heartbeats are sent after every split, plus a
// background liveness tick so a worker stalled on a slow trainer is
// neither reaped nor has its in-flight leases requeued.
func (w *Worker) Run(stop <-chan struct{}) error {
	defer w.finish()
	hbStop := make(chan struct{})
	defer close(hbStop)
	go w.heartbeatLoop(hbStop)
	if w.spec.Pipeline.Sequential {
		return w.runSequential(stop)
	}
	return w.runPipelined(stop)
}

// heartbeatEvery is the effective background heartbeat period.
func (w *Worker) heartbeatEvery() time.Duration {
	if w.HeartbeatEvery > 0 {
		return w.HeartbeatEvery
	}
	return 500 * time.Millisecond
}

// heartbeatLoop renews liveness — and, at the master, the worker's
// in-flight leases — during stretches where no split completes, e.g.
// delivery blocked on a stalled trainer for longer than the lease
// timeout. Three consecutive *rejections* — the master answering that
// it no longer knows this worker — mean it was disowned (reaped after
// a transient heartbeat lapse): its leases are requeued and it has
// left the membership, so no client will ever be routed here to
// relieve backpressure. Serving on could wedge the delivery stage
// forever on a full buffer; instead the worker abandons its work
// through the crash path — the requeued leases re-run elsewhere and
// client-side dedup keeps delivery exactly-once, exactly as after a
// real death. Transport failures (a master restart, a network blip)
// are NOT disownment and are simply retried: membership and leases are
// intact at the master, so abandoning the fleet's buffered work over a
// brief control-plane hiccup would turn it all into needless re-runs.
func (w *Worker) heartbeatLoop(stop <-chan struct{}) {
	t := time.NewTicker(w.heartbeatEvery())
	defer t.Stop()
	rejections := 0
	for {
		select {
		case <-stop:
			return
		case <-w.crashCh:
			return
		case <-t.C:
			err := w.master.Heartbeat(w.ID, w.heartbeatStats())
			switch {
			case err == nil:
				rejections = 0
			case isDisownedErr(err):
				if rejections++; rejections >= 3 {
					w.Crash()
					return
				}
			}
		}
	}
}

// isDisownedErr reports whether a control-plane error is the master
// actively rejecting this worker (reaped, deregistered, or its whole
// session closed), as opposed to a transport failure. The check is
// textual because the error crosses net/rpc, which flattens error
// values to strings.
func isDisownedErr(err error) bool {
	if err == nil {
		return false
	}
	msg := err.Error()
	return strings.Contains(msg, "unregistered worker") ||
		strings.Contains(msg, "unknown session") ||
		strings.Contains(msg, "session closed")
}

// runSequential is the strictly serial data plane: one split is fetched,
// decoded, transformed, and delivered before the next begins — the stall
// pattern the pipeline removes.
func (w *Worker) runSequential(stop <-chan struct{}) error {
	for {
		select {
		case <-stop:
			return nil
		case <-w.crashCh:
			return nil
		default:
		}
		processed, err := w.ProcessOneSplit()
		if err != nil {
			return err
		}
		if err := w.master.Heartbeat(w.ID, w.heartbeatStats()); err != nil {
			return err
		}
		if processed {
			continue
		}
		if w.Draining() {
			return nil
		}
		done, err := w.master.Done()
		if err != nil {
			return err
		}
		if done {
			return nil
		}
		time.Sleep(time.Millisecond)
	}
}

// Retire serves the worker's remaining buffered batches until consumers
// drain them — heartbeating so the master keeps listing the worker and
// clients keep fetching from it — then removes the worker from the
// master's membership. Closing abandon gives up on undelivered batches
// (forced shutdown; their splits are requeued by DeregisterWorker if
// still leased) but still deregisters. Several consecutive heartbeat
// failures also abandon the buffer: a worker the master no longer
// acknowledges (reaped, or the control connection gone for good) is
// dropped from membership, so no client will ever be routed here to
// drain it and waiting would wedge forever — its leases are requeued
// master-side. A single transient heartbeat error is retried, not
// treated as abandonment. Call after Run returns; the pair is the
// worker half of the graceful drain protocol.
func (w *Worker) Retire(abandon <-chan struct{}) error {
	if w.Crashed() {
		// A crashed worker is a dead process: it neither serves its
		// buffer nor deregisters. The master reaps it and requeues its
		// leases.
		return nil
	}
	hb := time.NewTicker(w.heartbeatEvery())
	defer hb.Stop()
	hbFails := 0
drain:
	// Undelivered (not merely Buffered): batches pushed into a framed
	// stream's un-granted window still belong to this worker — if the
	// stream broke abnormally after deregistration they would be
	// requeued into a worker no client can resolve, losing rows. The
	// pendingSplits term additionally holds deregistration until every
	// consumed split's CompleteSplit ack has landed at the master, so
	// DeregisterWorker does not requeue a lease whose rows were already
	// delivered in full.
	for w.Undelivered() > 0 || w.pendingSplits() > 0 {
		select {
		case <-abandon:
			break drain
		case <-w.crashCh:
			return nil
		case <-hb.C:
			if err := w.master.Heartbeat(w.ID, w.heartbeatStats()); err != nil {
				if hbFails++; hbFails >= 3 {
					break drain
				}
			} else {
				hbFails = 0
			}
		case <-time.After(time.Millisecond):
		}
	}
	// One last best-effort heartbeat so the master holds the worker's
	// final cumulative counters when it leaves membership.
	_ = w.master.Heartbeat(w.ID, w.heartbeatStats())
	return w.master.DeregisterWorker(w.ID)
}

// sliceBatches splits a materialized batch into chunks of at most
// batchSize rows.
func sliceBatches(b *tensor.Batch, batchSize int) []*tensor.Batch {
	if batchSize <= 0 || b.Rows <= batchSize {
		return []*tensor.Batch{b}
	}
	var out []*tensor.Batch
	for start := 0; start < b.Rows; start += batchSize {
		end := start + batchSize
		if end > b.Rows {
			end = b.Rows
		}
		out = append(out, sliceBatch(b, start, end))
	}
	return out
}

// sliceBatch extracts rows [start, end) preserving the CSR layout.
func sliceBatch(b *tensor.Batch, start, end int) *tensor.Batch {
	rows := end - start
	out := &tensor.Batch{
		Rows:            rows,
		DenseFeatureIDs: b.DenseFeatureIDs,
		Labels:          append([]float32(nil), b.Labels[start:end]...),
		Dense: &tensor.Dense2D{
			Rows: rows,
			Cols: b.Dense.Cols,
			Data: append([]float32(nil), b.Dense.Data[start*b.Dense.Cols:end*b.Dense.Cols]...),
		},
	}
	for _, s := range b.Sparse {
		lo, hi := s.Offsets[start], s.Offsets[end]
		ns := &tensor.SparseTensor{
			Feature: s.Feature,
			Offsets: make([]int32, rows+1),
			Indices: append([]int64(nil), s.Indices[lo:hi]...),
		}
		for i := 0; i <= rows; i++ {
			ns.Offsets[i] = s.Offsets[start+i] - lo
		}
		out.Sparse = append(out.Sparse, ns)
	}
	return out
}
