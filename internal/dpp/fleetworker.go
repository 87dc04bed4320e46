package dpp

import (
	"fmt"
	"net"
	"sync"
	"time"

	"dsi/internal/dwrf"
	"dsi/internal/ware"
	"dsi/internal/warehouse"
)

// FleetWorker is one node of the shared multi-tenant fleet: a single
// registered identity and one shared data-plane listener hosting one
// preprocessing pipeline (a Worker) per assigned session. Assignments
// arrive with every fleet heartbeat (FleetControl.FleetHeartbeat); a
// granted session starts a pipeline that registers with that session's
// master, and a revoked session drains through the ordinary drain
// protocol — the session master stops leasing to it, the pipeline
// delivers its in-flight splits, serves out its buffer, and
// deregisters. The data plane demultiplexes per session: each framed
// stream hello carries a session ID that routes to the matching
// pipeline's buffer.
type FleetWorker struct {
	ID string
	// Endpoint is the shared data-plane address registered with the
	// service and with every session master the worker joins.
	Endpoint string
	// HeartbeatEvery is the fleet heartbeat (and assignment
	// reconciliation) period; default 500ms. Per-session pipelines keep
	// their own session-master heartbeats.
	HeartbeatEvery time.Duration
	// Tune, when set, adjusts each per-session pipeline worker after
	// construction, before it runs.
	Tune func(*Worker)
	// OnError receives per-session pipeline failures (default ignored:
	// the session master reaps the pipeline and requeues its leases).
	OnError func(sessionID string, err error)

	// CacheBytes sizes the node's shared content-addressed batch cache:
	// 0 uses DefaultFleetCacheBytes, negative disables caching. Set
	// before Run (the cache is created when the first pipeline starts).
	CacheBytes int64

	ctrl FleetControl
	wh   *warehouse.Warehouse
	// arena is the node-wide column arena every hosted pipeline decodes
	// and transforms through — required for sharing, since a cached
	// batch's columns outlive the pipeline that decoded them and may be
	// freed (last reference dropped) by a different session's pipeline.
	arena *dwrf.Arena

	cacheOnce sync.Once
	cache     *ware.Cache

	mu        sync.Mutex
	pipelines map[string]*fleetPipeline
	crashed   bool
	crashCh   chan struct{}
}

// DefaultFleetCacheBytes is the default per-node budget of the shared
// content-addressed batch cache.
const DefaultFleetCacheBytes = 256 << 20

// Cache returns the node's shared batch cache, creating it on first
// use; nil when CacheBytes is negative (caching disabled).
func (fw *FleetWorker) Cache() *ware.Cache {
	fw.cacheOnce.Do(func() {
		size := fw.CacheBytes
		if size == 0 {
			size = DefaultFleetCacheBytes
		}
		if size > 0 {
			fw.cache = ware.NewCache(size)
		}
	})
	return fw.cache
}

// fleetPipeline is one hosted per-session pipeline.
type fleetPipeline struct {
	w    *Worker
	stop chan struct{}
	once sync.Once
	done chan struct{}
}

func (p *fleetPipeline) forceStop() { p.once.Do(func() { close(p.stop) }) }

// NewFleetWorker registers a fleet worker with the service control
// plane. endpoint is the shared data-plane address clients will dial
// (empty for in-process fleets dialed by identity).
func NewFleetWorker(id, endpoint string, ctrl FleetControl, wh *warehouse.Warehouse) (*FleetWorker, error) {
	if err := ctrl.RegisterFleetWorker(id, endpoint); err != nil {
		return nil, fmt.Errorf("dpp: fleet worker %s register: %w", id, err)
	}
	return &FleetWorker{
		ID:        id,
		Endpoint:  endpoint,
		ctrl:      ctrl,
		wh:        wh,
		arena:     dwrf.NewArena(),
		pipelines: make(map[string]*fleetPipeline),
		crashCh:   make(chan struct{}),
	}, nil
}

// Pipeline returns the hosted pipeline worker for one session (nil when
// the session is not assigned here) — the in-process data-plane lookup.
func (fw *FleetWorker) Pipeline(sessionID string) *Worker {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	if p := fw.pipelines[sessionID]; p != nil {
		return p.w
	}
	return nil
}

// Sessions lists the sessions with a live pipeline on this worker.
func (fw *FleetWorker) Sessions() []string {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	out := make([]string, 0, len(fw.pipelines))
	for id := range fw.pipelines {
		out = append(out, id)
	}
	return out
}

// source is the data plane's per-session routing (a sourceResolver): a
// stream addressed to a session lands on that session's pipeline
// buffer.
func (fw *FleetWorker) source(sessionID string) (BatchSource, error) {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	p := fw.pipelines[sessionID]
	if p == nil {
		return nil, fmt.Errorf("dpp: fleet worker %s hosts no session %q", fw.ID, sessionID)
	}
	return p.w, nil
}

// AggregateStats folds the live pipelines into one fleet-level
// utilization snapshot (summed buffers, worst-case minimum, mean busy
// fraction). A worker with no assignments reports an idle, drainable
// profile. The snapshot is non-consuming: the per-session heartbeat
// windows belong to the pipelines' own session-master heartbeats.
func (fw *FleetWorker) AggregateStats() WorkerStats {
	fw.mu.Lock()
	workers := make([]*Worker, 0, len(fw.pipelines))
	for _, p := range fw.pipelines {
		workers = append(workers, p.w)
	}
	fw.mu.Unlock()
	// Node-wide cache counters come from the cache itself (pipelines
	// retire with their sessions; the cache outlives them all).
	var cacheStats WorkerStats
	if c := fw.Cache(); c != nil {
		cs := c.Stats()
		cacheStats = WorkerStats{
			CacheXformHits:  cs.XformHits,
			CacheStripeHits: cs.StripeHits,
			CacheMisses:     cs.Misses,
			CacheBytesSaved: cs.BytesSaved,
		}
	}
	if len(workers) == 0 {
		idle := cacheStats
		idle.BufferedBatches = idleBuffered
		idle.MinBuffered = idleBuffered
		return idle
	}
	agg := cacheStats
	agg.MinBuffered = idleBuffered
	for _, w := range workers {
		st := w.Stats()
		agg.BufferedBatches += st.BufferedBatches
		if st.MinBuffered < agg.MinBuffered {
			agg.MinBuffered = st.MinBuffered
		}
		agg.BusyFrac += st.BusyFrac
		agg.CPUUtil = maxf(agg.CPUUtil, st.CPUUtil)
		agg.MemBWUtil = maxf(agg.MemBWUtil, st.MemBWUtil)
		agg.NICUtil = maxf(agg.NICUtil, st.NICUtil)
		agg.MemCapacityUtil += st.MemCapacityUtil
		agg.RowsPerSec += st.RowsPerSec
		agg.Stage.FetchSeconds += st.Stage.FetchSeconds
		agg.Stage.DecodeSeconds += st.Stage.DecodeSeconds
		agg.Stage.TransformSeconds += st.Stage.TransformSeconds
		agg.Stage.DeliverSeconds += st.Stage.DeliverSeconds
		agg.addRecovery(st)
	}
	agg.BusyFrac /= float64(len(workers))
	return agg
}

// heartbeatEvery resolves the effective fleet heartbeat period.
func (fw *FleetWorker) heartbeatEvery() time.Duration {
	if fw.HeartbeatEvery > 0 {
		return fw.HeartbeatEvery
	}
	return 500 * time.Millisecond
}

// Crash is the fleet-level fault-injection hook: every hosted pipeline
// crashes (data plane severs, heartbeats stop, nothing deregisters) and
// the fleet worker goes silent, exactly as a killed node would. The
// service and the session masters discover the death through heartbeat
// staleness and requeue every lease the node held.
func (fw *FleetWorker) Crash() {
	fw.mu.Lock()
	if fw.crashed {
		fw.mu.Unlock()
		return
	}
	fw.crashed = true
	close(fw.crashCh)
	workers := make([]*Worker, 0, len(fw.pipelines))
	for _, p := range fw.pipelines {
		workers = append(workers, p.w)
	}
	fw.mu.Unlock()
	for _, w := range workers {
		w.Crash()
	}
}

// Crashed reports whether the fault-injection hook fired.
func (fw *FleetWorker) Crashed() bool {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	return fw.crashed
}

// startPipeline launches one session's pipeline: a Worker that
// registers with the session master, runs the pipelined data plane, and
// retires itself (serve remaining buffer, deregister) when the session
// completes, drains it, or the fleet worker force-stops.
func (fw *FleetWorker) startPipeline(sessionID string) {
	sm, err := fw.ctrl.SessionMaster(sessionID)
	if err != nil {
		if fw.OnError != nil {
			fw.OnError(sessionID, err)
		}
		return
	}
	w, err := NewWorkerWithEndpoint(fw.ID, fw.Endpoint, sm, fw.wh)
	if err != nil {
		if fw.OnError != nil {
			fw.OnError(sessionID, err)
		}
		return
	}
	// All pipelines on the node share one arena and one content-
	// addressed cache, so any session's decode or transform output can
	// serve any other session — cross-tenant dedup. The session is the
	// cache's tenant, weighted like the service's fair-share scheduler
	// weights it.
	w.arena = fw.arena
	if c := fw.Cache(); c != nil {
		c.RegisterTenant(sessionID, w.spec.Weight)
		w.UseCache(c, sessionID)
	}
	if fw.Tune != nil {
		fw.Tune(w)
	}
	p := &fleetPipeline{w: w, stop: make(chan struct{}), done: make(chan struct{})}
	fw.mu.Lock()
	if fw.crashed || fw.pipelines[sessionID] != nil {
		fw.mu.Unlock()
		_ = sm.DeregisterWorker(fw.ID)
		return
	}
	fw.pipelines[sessionID] = p
	fw.mu.Unlock()
	go func() {
		defer close(p.done)
		if err := w.Run(p.stop); err != nil && fw.OnError != nil {
			fw.OnError(sessionID, err)
		}
		_ = w.Retire(p.stop)
		fw.mu.Lock()
		if fw.pipelines[sessionID] == p {
			delete(fw.pipelines, sessionID)
		}
		fw.mu.Unlock()
	}()
}

// reconcile starts pipelines for newly granted sessions. Revoked
// sessions need no action here: the service already marked them
// draining at their session masters, and the pipelines retire through
// the drain protocol on their own (a re-granted session waits for the
// old pipeline to finish retiring before a fresh one starts).
func (fw *FleetWorker) reconcile(target []string) {
	for _, sessionID := range target {
		fw.mu.Lock()
		exists := fw.pipelines[sessionID] != nil
		crashed := fw.crashed
		fw.mu.Unlock()
		if exists || crashed {
			continue
		}
		fw.startPipeline(sessionID)
	}
}

// stopPipelines force-stops every pipeline and waits for them to
// retire (buffered batches are abandoned; their splits requeue).
func (fw *FleetWorker) stopPipelines() {
	fw.mu.Lock()
	ps := make([]*fleetPipeline, 0, len(fw.pipelines))
	for _, p := range fw.pipelines {
		ps = append(ps, p)
	}
	fw.mu.Unlock()
	for _, p := range ps {
		p.forceStop()
	}
	for _, p := range ps {
		<-p.done
	}
}

// pipelineCount reports live pipelines.
func (fw *FleetWorker) pipelineCount() int {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	return len(fw.pipelines)
}

// Run drives the fleet worker: heartbeat the service, reconcile the
// assignment set, and exit once the service drains this worker and its
// pipelines have retired (deregistering from the fleet), the control
// plane disappears, stop closes (force-stop: pipelines abandon their
// buffers), or Crash fires (nothing deregisters; the service reaps).
func (fw *FleetWorker) Run(stop <-chan struct{}) error {
	t := time.NewTicker(fw.heartbeatEvery())
	defer t.Stop()
	hbFails := 0
	for {
		d, err := fw.ctrl.FleetHeartbeat(fw.ID, fw.AggregateStats())
		if err != nil {
			if hbFails++; hbFails >= 3 {
				// The service no longer acknowledges us (reaped, or the
				// control connection is gone for good): abandon and exit.
				// Leases requeue service-side.
				fw.stopPipelines()
				return fmt.Errorf("dpp: fleet worker %s lost control plane: %w", fw.ID, err)
			}
		} else {
			hbFails = 0
			fw.reconcile(d.Sessions)
			if d.Drain && fw.pipelineCount() == 0 {
				return fw.ctrl.DeregisterFleetWorker(fw.ID)
			}
		}
		select {
		case <-stop:
			fw.stopPipelines()
			return fw.ctrl.DeregisterFleetWorker(fw.ID)
		case <-fw.crashCh:
			return nil
		case <-t.C:
		}
	}
}

// ListenAndServeFleetWorker binds addr, registers a fleet worker
// announcing the bound address as its shared data-plane endpoint, and
// serves every hosted pipeline on it — framed streams are routed to
// pipelines by the session ID in their hello. tune adjusts
// the FleetWorker (heartbeat period, per-pipeline Tune) before serving
// begins. The returned stop closes the listener.
func ListenAndServeFleetWorker(id, addr string, ctrl FleetControl, wh *warehouse.Warehouse, tune func(*FleetWorker)) (*FleetWorker, func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	fw, err := NewFleetWorker(id, advertiseAddr(ln.Addr()), ctrl, wh)
	if err != nil {
		ln.Close()
		return nil, nil, err
	}
	if tune != nil {
		tune(fw)
	}
	return fw, serveDataPlaneOn(fw.source, ln), nil
}

// InProcessFleetLauncher launches fleet workers as goroutines against
// an in-process Service — the transport fleet simulations and
// deterministic tests use. SessionDialer provides the matching
// per-session WorkerDialer.
type InProcessFleetLauncher struct {
	Service FleetControl
	WH      *warehouse.Warehouse
	// HeartbeatEvery and Tune configure each launched fleet worker and
	// its per-session pipelines.
	HeartbeatEvery time.Duration
	Tune           func(*Worker)
	OnError        func(id string, err error)
	// CacheBytes sizes each worker's shared batch cache (see
	// FleetWorker.CacheBytes: 0 = default, negative = disabled).
	CacheBytes int64

	mu       sync.Mutex
	workers  map[string]*FleetWorker
	launched []*FleetWorker
}

// Launch implements WorkerLauncher.
func (l *InProcessFleetLauncher) Launch(id string) (WorkerHandle, error) {
	fw, err := NewFleetWorker(id, "inproc://"+id, l.Service, l.WH)
	if err != nil {
		return nil, err
	}
	fw.HeartbeatEvery = l.HeartbeatEvery
	fw.Tune = l.Tune
	fw.CacheBytes = l.CacheBytes
	if l.OnError != nil {
		fw.OnError = func(session string, err error) { l.OnError(id+"/"+session, err) }
	}
	l.mu.Lock()
	if l.workers == nil {
		l.workers = make(map[string]*FleetWorker)
	}
	l.workers[id] = fw
	l.launched = append(l.launched, fw)
	l.mu.Unlock()
	h := &procHandle{id: id, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		if err := fw.Run(h.stop); err != nil && l.OnError != nil {
			l.OnError(id, err)
		}
		if !fw.Crashed() {
			l.mu.Lock()
			delete(l.workers, id)
			l.mu.Unlock()
		}
	}()
	return h, nil
}

// Worker returns a launched fleet worker by ID (nil when unknown).
func (l *InProcessFleetLauncher) Worker(id string) *FleetWorker {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.workers[id]
}

// Launched returns every fleet worker this launcher ever started,
// including retired ones. Experiments and tests read the per-node
// caches through it after the fleet has drained (a retired worker's
// cache and its counters stay intact).
func (l *InProcessFleetLauncher) Launched() []*FleetWorker {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]*FleetWorker(nil), l.launched...)
}

// Crash crash-kills one launched fleet worker (fault injection),
// reporting whether it was found.
func (l *InProcessFleetLauncher) Crash(id string) bool {
	fw := l.Worker(id)
	if fw == nil {
		return false
	}
	fw.Crash()
	return true
}

// SessionDialer returns the WorkerDialer resolving one session's
// pipelines on this launcher's fleet workers by identity.
func (l *InProcessFleetLauncher) SessionDialer(sessionID string) WorkerDialer {
	return func(ep WorkerEndpoint) (WorkerAPI, error) {
		fw := l.Worker(ep.ID)
		if fw == nil {
			return nil, fmt.Errorf("dpp: unknown in-process fleet worker %q", ep.ID)
		}
		if fw.Crashed() {
			return nil, fmt.Errorf("dpp: fleet worker %q crashed", ep.ID)
		}
		w := fw.Pipeline(sessionID)
		if w == nil {
			return nil, fmt.Errorf("dpp: fleet worker %q hosts no session %q", ep.ID, sessionID)
		}
		return LocalWorkerAPI(w), nil
	}
}

// rpcFleetEntry tracks one RPC-launched fleet worker for fault
// injection.
type rpcFleetEntry struct {
	fw        *FleetWorker
	stopServe func()
}

// RPCFleetLauncher launches fleet workers that reach the service over
// net/rpc and serve their shared data plane on their own TCP listener —
// the disaggregated multi-tenant deployment, hosted as goroutines so a
// single dppd process can operate the fleet.
type RPCFleetLauncher struct {
	// ServiceAddr is the service's RPC address.
	ServiceAddr string
	// WH is the worker-side warehouse handle.
	WH *warehouse.Warehouse
	// ListenAddr is the bind address pattern for worker data planes
	// (default "127.0.0.1:0").
	ListenAddr string
	// HeartbeatEvery, Tune, OnError mirror InProcessFleetLauncher.
	HeartbeatEvery time.Duration
	Tune           func(*Worker)
	OnError        func(id string, err error)
	// CacheBytes sizes each worker's shared batch cache (see
	// FleetWorker.CacheBytes: 0 = default, negative = disabled).
	CacheBytes int64

	mu      sync.Mutex
	workers map[string]*rpcFleetEntry
}

// Launch implements WorkerLauncher.
func (l *RPCFleetLauncher) Launch(id string) (WorkerHandle, error) {
	remote, err := DialService(l.ServiceAddr)
	if err != nil {
		return nil, err
	}
	addr := l.ListenAddr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	fw, stopServe, err := ListenAndServeFleetWorker(id, addr, remote, l.WH, func(fw *FleetWorker) {
		fw.HeartbeatEvery = l.HeartbeatEvery
		fw.Tune = l.Tune
		fw.CacheBytes = l.CacheBytes
		if l.OnError != nil {
			fw.OnError = func(session string, err error) { l.OnError(id+"/"+session, err) }
		}
	})
	if err != nil {
		remote.Close()
		return nil, err
	}
	l.mu.Lock()
	if l.workers == nil {
		l.workers = make(map[string]*rpcFleetEntry)
	}
	l.workers[id] = &rpcFleetEntry{fw: fw, stopServe: stopServe}
	l.mu.Unlock()
	h := &procHandle{id: id, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		defer remote.Close()
		defer stopServe()
		if err := fw.Run(h.stop); err != nil && l.OnError != nil {
			l.OnError(id, err)
		}
		if !fw.Crashed() {
			l.mu.Lock()
			delete(l.workers, id)
			l.mu.Unlock()
		}
	}()
	return h, nil
}

// Worker returns a launched fleet worker by ID (nil when unknown or
// already retired).
func (l *RPCFleetLauncher) Worker(id string) *FleetWorker {
	l.mu.Lock()
	defer l.mu.Unlock()
	if e := l.workers[id]; e != nil {
		return e.fw
	}
	return nil
}

// Crash crash-kills one launched fleet worker: its pipelines die and
// its data-plane listener closes mid-stream, with no drain and no
// deregistration — the closest in-process stand-in for kill -9 on a
// worker node. Reports whether the worker was found.
func (l *RPCFleetLauncher) Crash(id string) bool {
	l.mu.Lock()
	e := l.workers[id]
	l.mu.Unlock()
	if e == nil {
		return false
	}
	e.fw.Crash()
	e.stopServe()
	return true
}
