package dpp

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sort"
	"sync"
	"time"

	"dsi/internal/warehouse"
)

// WorkerStats is the utilization snapshot each Worker reports with its
// heartbeat; the Master's auto-scaling controller consumes these
// (§3.2.1: "CPU, memory, and network statistics and the number of
// buffered tensors").
type WorkerStats struct {
	CPUUtil         float64
	MemBWUtil       float64
	MemCapacityUtil float64
	NICUtil         float64
	BufferedBatches int
	// MinBuffered is the lowest buffered-batch level observed since the
	// previous heartbeat. The instantaneous BufferedBatches is scheduling
	// noise on a loaded host (a burst-scheduled worker can report a full
	// buffer an instant after trainers drained it dry); the windowed
	// minimum answers the question the scaler actually asks — did this
	// worker's buffer ever run dry? — and is what the scale-up and
	// scale-down rules key on.
	MinBuffered int
	RowsPerSec  float64
	// BusyFrac is the measured fraction of the last heartbeat window the
	// worker's stage goroutines spent busy (fetching, decoding, or
	// transforming). Unlike the modelled utilizations above — which are
	// saturation-relative, so the bottleneck domain always reads 1.0 —
	// BusyFrac drops toward zero when the pipeline is blocked on
	// backpressure from slow trainers, making it the oversupply signal
	// the auto-scaler's drain decision keys on.
	BusyFrac float64
	// Stage is the cumulative per-stage busy-time breakdown of the
	// worker's pipelined data plane (the Figure 9 measurement: where do
	// worker cycles actually go?).
	Stage StageBusy

	// Fleet content-addressed cache counters (cumulative; zero for
	// uncached workers). In a FleetWorker's aggregate these are the
	// node-wide cache totals across every tenant it hosts.
	CacheXformHits  int64
	CacheStripeHits int64
	CacheMisses     int64
	CacheBytesSaved int64

	// Storage self-healing counters (cumulative; gob-optional, zero
	// from older senders): replica retries/failovers, hedged reads
	// fired/won, corrupt stripe fetches, replicas quarantined, and
	// splits released back for requeue under degraded mode.
	StorageRetries   int64
	StorageFailovers int64
	HedgedReads      int64
	HedgeWins        int64
	CorruptStripes   int64
	Quarantines      int64
	SplitsReleased   int64
}

// addRecovery adds o's storage self-healing counters to s.
func (s *WorkerStats) addRecovery(o WorkerStats) {
	s.StorageRetries += o.StorageRetries
	s.StorageFailovers += o.StorageFailovers
	s.HedgedReads += o.HedgedReads
	s.HedgeWins += o.HedgeWins
	s.CorruptStripes += o.CorruptStripes
	s.Quarantines += o.Quarantines
	s.SplitsReleased += o.SplitsReleased
}

// CacheHits sums transform- and stripe-level hits.
func (s WorkerStats) CacheHits() int64 { return s.CacheXformHits + s.CacheStripeHits }

// StageBusy is the cumulative wall time each data-plane stage has spent
// busy, in seconds. Fetch is time waiting on storage, Decode is
// decrypt+decompress+decode into columnar batches, Transform is the
// preprocessing graph plus tensor materialization, and Deliver is
// handing tensors to the buffer — including time blocked on the
// bounded buffer, i.e. backpressure from slow trainers.
type StageBusy struct {
	FetchSeconds     float64
	DecodeSeconds    float64
	TransformSeconds float64
	DeliverSeconds   float64
}

// Total sums the per-stage busy seconds.
func (s StageBusy) Total() float64 {
	return s.FetchSeconds + s.DecodeSeconds + s.TransformSeconds + s.DeliverSeconds
}

// WorkerEndpoint is one registered worker's identity and data-plane
// address, as resolved by ListWorkers. Clients use it to build and
// rebalance their connection set as the pool grows and shrinks.
type WorkerEndpoint struct {
	ID       string
	Endpoint string
	Draining bool
}

// MasterAPI is the control-plane surface Workers and Clients depend on.
// The Master implements it directly; the TCP transport wraps it.
type MasterAPI interface {
	// RegisterWorker announces a worker together with its data-plane
	// endpoint (the address Clients fetch tensors from) and returns the
	// session spec (workers pull their transformations from the master
	// on startup).
	RegisterWorker(workerID, endpoint string) (SessionSpec, error)
	// DeregisterWorker removes a worker from the session's membership.
	// Workers call it after they have finished (or finished draining)
	// and their buffer has been fully consumed, so Clients never lose
	// buffered rows when the worker disappears from ListWorkers.
	DeregisterWorker(workerID string) error
	// NextSplit leases the next unprocessed split. ok=false means no
	// work is currently available (done, draining, or everything is in
	// flight); draining=true tells the worker it has been marked for
	// removal and should exit once its in-flight work is delivered.
	NextSplit(workerID string) (split warehouse.Split, splitID int, ok bool, draining bool, err error)
	// CompleteSplit acknowledges a finished split.
	CompleteSplit(workerID string, splitID int) error
	// ReleaseSplit returns a leased split to the pending queue after a
	// retryable storage failure, so another worker (or this one, once
	// the fault clears) picks it up — degraded throughput instead of a
	// dead session. Each release increments the split's poison counter;
	// when it exhausts the retry budget, requeued=false is returned and
	// the session is failed (Done reports the error to every worker).
	ReleaseSplit(workerID string, splitID int, reason string) (requeued bool, err error)
	// Heartbeat reports liveness and utilization.
	Heartbeat(workerID string, stats WorkerStats) error
	// ListWorkers resolves the session's current worker membership.
	ListWorkers() ([]WorkerEndpoint, error)
	// Done reports whether every split has completed.
	Done() (bool, error)
}

// Master is the DPP control plane for one training session.
type Master struct {
	spec   SessionSpec
	splits []warehouse.Split

	// table is set for unbounded sessions: the master polls it for
	// newly sealed partitions (discovery-on-poll; no background
	// goroutine) and for the producer's stream-close.
	table warehouse.TableReader

	mu        sync.Mutex
	closed    bool
	pending   []int
	inflight  map[int]*lease
	completed []bool
	nComplete int
	workers   map[string]*workerInfo
	// retired sums, per worker ID, the recovery counters last reported
	// by incarnations that have left membership (deregistered or
	// reaped): a fleet worker re-joining a session starts a fresh
	// pipeline with zeroed counters, and WorkerStatsByID must stay
	// cumulative across that churn.
	retired map[string]WorkerStats
	// seenParts / discovered / lastGen drive incremental split
	// discovery on unbounded sessions; freshness accumulates per-split
	// event-time→completion lag samples.
	seenParts  map[string]bool
	discovered []string
	lastGen    int64
	freshness  []FreshnessSample
	// poison counts ReleaseSplit returns per split; failErr latches the
	// session failure once a split exhausts its retry budget.
	poison  map[int]int
	failErr error

	// now is injectable for deterministic tests.
	now func() time.Time

	// LeaseTimeout is how long a split may stay leased to a silent
	// worker before ReapDead reassigns it. Heartbeats renew leases, so
	// the timeout measures liveness, not progress.
	LeaseTimeout time.Duration
	// MaxLeaseAge caps how long a split may stay leased regardless of
	// heartbeats, so a live-but-wedged worker (e.g. a fetch hung on a
	// bad storage node) cannot hold a split forever. Zero defaults to
	// 10x LeaseTimeout; the requeued split may be processed twice if
	// the wedged worker eventually recovers, which split idempotence
	// makes safe.
	MaxLeaseAge time.Duration
	// MaxSplitRetries is the per-split poison budget: how many times a
	// split may be released back (retryable storage failure) before the
	// session fails rather than requeueing a split no worker can read.
	// Zero defaults to DefaultSplitRetries.
	MaxSplitRetries int
}

// DefaultSplitRetries is the default per-split release budget. Sized so
// a split placed entirely on braindead nodes fails fast, while a
// transient brownout (one or two release/requeue round trips until the
// window passes or another worker wins the lease) rides through.
const DefaultSplitRetries = 8

type lease struct {
	worker  string
	since   time.Time // renewed by heartbeats
	granted time.Time // fixed at lease time
}

type workerInfo struct {
	endpoint string
	lastSeen time.Time
	stats    WorkerStats
	draining bool
}

// NewMaster plans the session: it enumerates splits over the requested
// partitions and prepares the lease table.
func NewMaster(wh *warehouse.Warehouse, spec SessionSpec) (*Master, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	spec = spec.withDefaults()
	tbl, err := wh.Table(spec.Table)
	if err != nil {
		return nil, err
	}
	if spec.Unbounded && !tbl.Unbounded() {
		return nil, fmt.Errorf("dpp: unbounded session over static table %s (create it with CreateUnboundedTable)", spec.Table)
	}
	m := &Master{
		spec:            spec,
		inflight:        make(map[int]*lease),
		workers:         make(map[string]*workerInfo),
		retired:         make(map[string]WorkerStats),
		poison:          make(map[int]int),
		seenParts:       make(map[string]bool),
		lastGen:         -1,
		now:             time.Now,
		LeaseTimeout:    30 * time.Second,
		MaxSplitRetries: spec.RetryBudget,
	}
	if spec.Unbounded {
		// Split discovery is incremental: whatever is visible now seeds
		// the queue, and refreshLocked picks up partitions as the ETL
		// seals them. The pipeline cannot be sized to a final split
		// count, so planning keeps the configured parallelism.
		m.table = tbl
		m.spec.Pipeline = m.spec.Pipeline.withDefaults()
		if err := m.refreshLocked(); err != nil {
			return nil, err
		}
		return m, nil
	}
	splits, err := tbl.Splits(spec.Partitions)
	if err != nil {
		return nil, err
	}
	if len(splits) == 0 {
		return nil, fmt.Errorf("dpp: session over %s selects no splits", spec.Table)
	}
	// Session planning sizes each worker's pipeline to the actual work:
	// the planned knobs reach workers through RegisterWorker.
	m.spec.Pipeline = m.spec.Pipeline.planFor(len(splits))
	m.splits = splits
	m.completed = make([]bool, len(splits))
	for i := range splits {
		m.pending = append(m.pending, i)
	}
	return m, nil
}

// refreshLocked discovers splits of partitions sealed since the last
// poll. It reads the table generation BEFORE enumerating partitions, so
// a partition sealed mid-enumeration is re-examined (and deduplicated by
// key) on the next poll rather than lost. Callers hold m.mu.
func (m *Master) refreshLocked() error {
	if m.table == nil {
		return nil
	}
	gen := m.table.Generation()
	if gen == m.lastGen {
		return nil
	}
	for _, p := range m.table.Partitions() { // sorted by key
		if m.seenParts[p.Key] {
			continue
		}
		splits, err := m.table.PartitionSplits(p.Key)
		if err != nil {
			return err
		}
		m.seenParts[p.Key] = true
		m.discovered = append(m.discovered, p.Key)
		for _, sp := range splits {
			m.splits = append(m.splits, sp)
			m.completed = append(m.completed, false)
			m.pending = append(m.pending, len(m.splits)-1)
		}
	}
	m.lastGen = gen
	return nil
}

// Spec returns the session spec.
func (m *Master) Spec() SessionSpec { return m.spec }

// SplitCount reports the total number of splits discovered so far (the
// final count, for bounded sessions).
func (m *Master) SplitCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	_ = m.refreshLocked()
	return len(m.splits)
}

// DiscoveredPartitions lists the partition keys an unbounded session has
// discovered, in discovery order (nil for bounded sessions). E2E tests
// use it to assert that partitions sealed after session start were
// picked up live.
func (m *Master) DiscoveredPartitions() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	_ = m.refreshLocked()
	return append([]string(nil), m.discovered...)
}

// Close marks the session's control plane closed: every subsequent
// worker-facing call fails with a closed-session error. Pipelines that
// kept direct in-process pointers to a Master after its Service
// registry entry was removed (CloseSession) therefore learn about the
// closure exactly like RPC workers of an unknown session do — their
// fetch loops abort and their heartbeat loops treat the rejection as
// disownment and abandon the now-unconsumable buffered work.
func (m *Master) Close() {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
}

// errClosed is the worker-facing rejection of a closed session;
// isDisownedErr matches it.
func (m *Master) errClosed() error {
	return fmt.Errorf("dpp: session closed")
}

// RegisterWorker implements MasterAPI.
func (m *Master) RegisterWorker(workerID, endpoint string) (SessionSpec, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return SessionSpec{}, m.errClosed()
	}
	m.workers[workerID] = &workerInfo{endpoint: endpoint, lastSeen: m.now()}
	return m.spec, nil
}

// DeregisterWorker implements MasterAPI. Any splits still leased to the
// worker are requeued, so a worker that deregisters with work in flight
// (e.g. forced shutdown) loses no data.
func (m *Master) DeregisterWorker(workerID string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.workers[workerID]; !ok {
		return fmt.Errorf("dpp: unregistered worker %q", workerID)
	}
	m.retireLocked(workerID)
	for splitID, l := range m.inflight {
		if l.worker == workerID {
			delete(m.inflight, splitID)
			m.pending = append(m.pending, splitID)
		}
	}
	return nil
}

// NextSplit implements MasterAPI.
func (m *Master) NextSplit(workerID string) (warehouse.Split, int, bool, bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return warehouse.Split{}, 0, false, false, m.errClosed()
	}
	w, ok := m.workers[workerID]
	if !ok {
		return warehouse.Split{}, 0, false, false, fmt.Errorf("dpp: unregistered worker %q", workerID)
	}
	w.lastSeen = m.now()
	if len(m.pending) == 0 {
		// Unbounded sessions poll the table for freshly sealed
		// partitions exactly when a worker runs out of work — workers'
		// fetch loops re-poll on a short backoff, so no notification
		// plumbing is needed.
		if err := m.refreshLocked(); err != nil {
			return warehouse.Split{}, 0, false, false, err
		}
	}
	if w.draining || len(m.pending) == 0 {
		return warehouse.Split{}, 0, false, w.draining, nil
	}
	id := m.pending[0]
	m.pending = m.pending[1:]
	now := m.now()
	m.inflight[id] = &lease{worker: workerID, since: now, granted: now}
	return m.splits[id], id, true, false, nil
}

// CompleteSplit implements MasterAPI.
func (m *Master) CompleteSplit(workerID string, splitID int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if splitID < 0 || splitID >= len(m.splits) {
		return fmt.Errorf("dpp: split id %d out of range", splitID)
	}
	l, ok := m.inflight[splitID]
	if !ok {
		// Already completed or reassigned; treat the duplicate ack as
		// benign (workers may be restarted mid-split).
		return nil
	}
	if l.worker != workerID {
		return fmt.Errorf("dpp: split %d leased to %s, completed by %s", splitID, l.worker, workerID)
	}
	delete(m.inflight, splitID)
	if !m.completed[splitID] {
		m.completed[splitID] = true
		m.nComplete++
		// CompleteSplit is consumption-acked — the trainer has the rows —
		// so completion time is the trainer-side end of the freshness
		// window opened when the events were logged.
		if sp := m.splits[splitID]; sp.MaxEventTime > 0 {
			m.freshness = append(m.freshness, FreshnessSample{
				Partition:    sp.Partition,
				Stripe:       sp.Stripe,
				MinEventTime: sp.MinEventTime,
				MaxEventTime: sp.MaxEventTime,
				CompletedAt:  m.now().UnixNano(),
			})
		}
	}
	return nil
}

// Heartbeat implements MasterAPI. A heartbeat also renews the worker's
// in-flight leases: a pipelined worker holds several splits at once
// (prefetched, transforming, or buffered behind a stalled trainer), and
// without renewal a trainer stall longer than the lease timeout would
// make ReapDead requeue splits that are still alive inside the worker —
// delivering their rows twice.
func (m *Master) Heartbeat(workerID string, stats WorkerStats) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return m.errClosed()
	}
	w, ok := m.workers[workerID]
	if !ok {
		return fmt.Errorf("dpp: unregistered worker %q", workerID)
	}
	now := m.now()
	w.lastSeen = now
	w.stats = stats
	for _, l := range m.inflight {
		if l.worker == workerID {
			l.since = now
		}
	}
	return nil
}

// ReleaseSplit implements MasterAPI: the degraded-mode requeue. A
// release from a worker that no longer holds the lease (it was reaped
// or aged out meanwhile) is benign, like a duplicate CompleteSplit ack.
// The split requeues at the back of the pending queue so healthy work
// goes first and a different worker most likely picks it up.
func (m *Master) ReleaseSplit(workerID string, splitID int, reason string) (bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return false, m.errClosed()
	}
	if splitID < 0 || splitID >= len(m.splits) {
		return false, fmt.Errorf("dpp: release of unknown split %d", splitID)
	}
	if m.completed[splitID] {
		return true, nil
	}
	l, ok := m.inflight[splitID]
	if !ok || l.worker != workerID {
		return true, nil
	}
	delete(m.inflight, splitID)
	budget := m.MaxSplitRetries
	if budget == 0 {
		budget = DefaultSplitRetries
	}
	m.poison[splitID]++
	if m.poison[splitID] >= budget {
		m.failErr = fmt.Errorf("dpp: split %d poisoned after %d releases (last: %s)", splitID, m.poison[splitID], reason)
		return false, nil
	}
	m.pending = append(m.pending, splitID)
	return true, nil
}

// SplitReleases reports how many times each split has been released
// back for requeue (for tests and experiments).
func (m *Master) SplitReleases() map[int]int {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[int]int, len(m.poison))
	for k, v := range m.poison {
		out[k] = v
	}
	return out
}

// Done implements MasterAPI. Once a split has exhausted its poison
// budget the session can never finish; Done surfaces that as an error
// so every worker's fetch loop fails the session instead of spinning.
//
// An unbounded session is done only after the producer closed the
// table's stream AND every discovered split has completed. The
// stream-close check happens after a refresh, and closing itself bumps
// the table generation, so a second refresh after observing the close
// is guaranteed to see every partition sealed before it — no split can
// slip between "looks done" and "stream closed".
func (m *Master) Done() (bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.failErr != nil {
		return false, m.failErr
	}
	if m.table != nil {
		if err := m.refreshLocked(); err != nil {
			return false, err
		}
		if m.table.StreamOpen() {
			return false, nil
		}
		if err := m.refreshLocked(); err != nil {
			return false, err
		}
	}
	return m.nComplete == len(m.splits), nil
}

// ListWorkers implements MasterAPI. Draining workers stay listed until
// they deregister: their buffers may still hold undelivered tensors.
// The result is sorted by worker ID so every client resolves the same
// membership order and partitioned connection caps stay disjoint.
func (m *Master) ListWorkers() ([]WorkerEndpoint, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]WorkerEndpoint, 0, len(m.workers))
	for id, w := range m.workers {
		out = append(out, WorkerEndpoint{ID: id, Endpoint: w.endpoint, Draining: w.draining})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// Progress reports completed and total split counts.
func (m *Master) Progress() (completed, total int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.nComplete, len(m.splits)
}

// ReapDead re-queues splits leased to workers that have not been seen
// within the lease timeout, and forgets those workers; it also requeues
// leases older than MaxLeaseAge even when the holder still heartbeats
// (a wedged-but-live worker). Workers are stateless, so reassignment
// needs no checkpoint restore (§3.2.1). It returns the number of splits
// reassigned.
func (m *Master) ReapDead() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	now := m.now()
	maxAge := m.MaxLeaseAge
	if maxAge == 0 {
		maxAge = 10 * m.LeaseTimeout
	}
	dead := make(map[string]bool)
	for id, w := range m.workers {
		if now.Sub(w.lastSeen) > m.LeaseTimeout {
			dead[id] = true
		}
	}
	reassigned := 0
	for splitID, l := range m.inflight {
		if dead[l.worker] || now.Sub(l.since) > m.LeaseTimeout || now.Sub(l.granted) > maxAge {
			delete(m.inflight, splitID)
			m.pending = append(m.pending, splitID)
			reassigned++
		}
	}
	for id := range dead {
		m.retireLocked(id)
	}
	return reassigned
}

// retireLocked removes a worker from membership, keeping its last
// reported recovery counters in retired.
func (m *Master) retireLocked(workerID string) {
	r := m.retired[workerID]
	r.addRecovery(m.workers[workerID].stats)
	m.retired[workerID] = r
	delete(m.workers, workerID)
}

// Drain marks a worker as draining: it receives no further splits but may
// finish its current one (used by the auto-scaler to shrink the pool).
func (m *Master) Drain(workerID string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	w, ok := m.workers[workerID]
	if !ok {
		return fmt.Errorf("dpp: unregistered worker %q", workerID)
	}
	w.draining = true
	return nil
}

// WorkerCount reports registered (non-drained) workers.
func (m *Master) WorkerCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, w := range m.workers {
		if !w.draining {
			n++
		}
	}
	return n
}

// PolicyStats implements the Orchestrator's ControlPlane surface: the
// scaling policy evaluates the session's live worker stats.
func (m *Master) PolicyStats() []WorkerStats { return m.WorkerStatsSnapshot() }

// WorkerStatsByID returns the latest reported stats of every
// registered worker (draining included), keyed by worker ID — the view
// chaos tests and dashboards use to follow cumulative recovery counters
// across worker churn. The recovery counters cover every incarnation of
// the ID in this session, and an ID that has left membership keeps
// reporting the counters it departed with.
func (m *Master) WorkerStatsByID() map[string]WorkerStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]WorkerStats, len(m.workers)+len(m.retired))
	for id, r := range m.retired {
		out[id] = r
	}
	for id, w := range m.workers {
		st := w.stats
		st.addRecovery(m.retired[id])
		out[id] = st
	}
	return out
}

// WorkerStatsSnapshot returns the latest stats of live workers.
func (m *Master) WorkerStatsSnapshot() []WorkerStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]WorkerStats, 0, len(m.workers))
	for _, w := range m.workers {
		if !w.draining {
			out = append(out, w.stats)
		}
	}
	return out
}

// checkpointState is the serialized reader state.
type checkpointState struct {
	Completed []bool
}

// Checkpoint serializes the session's reader state (which splits have
// completed). In-flight leases are intentionally not persisted: on
// restore they simply re-run, which is safe because split processing is
// idempotent.
func (m *Master) Checkpoint() ([]byte, error) {
	m.mu.Lock()
	state := checkpointState{Completed: append([]bool(nil), m.completed...)}
	m.mu.Unlock()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&state); err != nil {
		return nil, fmt.Errorf("dpp: checkpoint: %w", err)
	}
	return buf.Bytes(), nil
}

// RestoreMaster builds a replacement Master (e.g. the replica taking
// over, §3.2.1) from a checkpoint. Splits are re-enumerated from the
// warehouse and completed ones skipped.
func RestoreMaster(wh *warehouse.Warehouse, spec SessionSpec, checkpoint []byte) (*Master, error) {
	m, err := NewMaster(wh, spec)
	if err != nil {
		return nil, err
	}
	var state checkpointState
	if err := gob.NewDecoder(bytes.NewReader(checkpoint)).Decode(&state); err != nil {
		return nil, fmt.Errorf("dpp: restore: %w", err)
	}
	if m.table != nil {
		// Unbounded sessions may have sealed more partitions since the
		// checkpoint. Partitions seal in monotonic key order and
		// discovery enumerates in sorted key order, so split indices are
		// stable across restarts and the checkpoint restores as a prefix;
		// splits discovered after it stay pending.
		if len(state.Completed) > len(m.splits) {
			return nil, fmt.Errorf("dpp: checkpoint covers %d splits, session has %d", len(state.Completed), len(m.splits))
		}
	} else if len(state.Completed) != len(m.splits) {
		return nil, fmt.Errorf("dpp: checkpoint covers %d splits, session has %d", len(state.Completed), len(m.splits))
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.pending = m.pending[:0]
	for i := range m.splits {
		done := i < len(state.Completed) && state.Completed[i]
		m.completed[i] = done
		if done {
			m.nComplete++
		} else {
			m.pending = append(m.pending, i)
		}
	}
	return m, nil
}

// AutoScaler is the Master's scaling controller: it evaluates worker
// utilization and buffer occupancy and decides how many workers to launch
// or drain, "maintaining a non-zero number of buffered tensors and
// maximum CPU, network, and memory utilization" (§3.2.1).
type AutoScaler struct {
	// MinWorkers and MaxWorkers bound the pool.
	MinWorkers, MaxWorkers int
	// LowBuffer is the buffered-batch level (windowed minimum,
	// WorkerStats.MinBuffered) below which trainers are at risk of
	// stalling (scale up).
	LowBuffer int
	// HighBuffer is the level the windowed-minimum buffer must stay
	// above for a worker to count as oversupplied (scale down if also
	// under-utilized).
	HighBuffer int
	// IdleUtil is the live busy fraction (WorkerStats.BusyFrac) below
	// which an oversupplied worker is considered drainable. The modelled
	// saturation-relative utilizations cannot serve here: the bottleneck
	// domain always reads 1.0 however idle the worker actually is.
	IdleUtil float64
	// StepUp caps how many workers are added per evaluation.
	StepUp int
}

// NewAutoScaler returns a controller with the given pool bounds.
func NewAutoScaler(minWorkers, maxWorkers int) *AutoScaler {
	return &AutoScaler{
		MinWorkers: minWorkers,
		MaxWorkers: maxWorkers,
		LowBuffer:  1,
		HighBuffer: 6,
		IdleUtil:   0.45,
		StepUp:     4,
	}
}

// Evaluate returns the worker-count delta (positive: launch, negative:
// drain) for the current stats.
func (a *AutoScaler) Evaluate(stats []WorkerStats) int {
	n := len(stats)
	if n == 0 {
		if a.MinWorkers > 0 {
			return a.MinWorkers
		}
		return 1
	}
	starving := 0
	drainable := 0
	for _, s := range stats {
		if s.MinBuffered <= a.LowBuffer {
			starving++
		}
		if s.MinBuffered >= a.HighBuffer && s.BusyFrac < a.IdleUtil {
			drainable++
		}
	}
	switch {
	case starving*2 > n: // majority near-empty buffers: data stall risk
		add := starving
		if add > a.StepUp {
			add = a.StepUp
		}
		if n+add > a.MaxWorkers {
			add = a.MaxWorkers - n
		}
		if add < 0 {
			add = 0
		}
		return add
	case drainable > 0 && n > a.MinWorkers:
		drop := drainable
		if n-drop < a.MinWorkers {
			drop = n - a.MinWorkers
		}
		return -drop
	default:
		return 0
	}
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
