package dpp

import (
	"fmt"
	"sync"
	"time"

	"dsi/internal/clock"
	"dsi/internal/warehouse"
)

// This file closes the auto-scaling loop the paper attributes to the DPP
// Master (§3.2.1: the Master "auto-scales the worker pool to eliminate
// data stalls"). The AutoScaler stays a pure policy function; the
// Orchestrator is the mechanism that runs it periodically — evaluate
// worker stats, launch or drain workers through a WorkerLauncher, reap
// workers that finished draining, requeue leases of dead workers, and
// checkpoint reader state — with scale cooldowns so the controller does
// not flap. Cooldowns are measured on an internal/clock virtual clock
// that Run advances once per control interval, so tests drive the exact
// same control law deterministically by calling Step and Advance.

// WorkerHandle is one launched worker as the Orchestrator tracks it.
type WorkerHandle interface {
	// ID is the worker ID registered with the master.
	ID() string
	// Stop asks the worker to shut down without waiting for its buffer
	// to be consumed (forced shutdown; idempotent). Undelivered leases
	// are requeued at deregistration, so no rows are lost to the
	// session — they are re-processed elsewhere.
	Stop()
	// Drained reports whether the worker has fully retired: its Run loop
	// exited, its buffer was served out (or abandoned after Stop), and
	// it deregistered from the master.
	Drained() bool
}

// WorkerLauncher creates workers on behalf of the Orchestrator. A
// launched worker registers with the master, runs the session data
// plane, and retires itself (serve remaining buffer, then deregister)
// when the session completes, the master drains it, or its handle is
// stopped.
type WorkerLauncher interface {
	Launch(id string) (WorkerHandle, error)
}

// procHandle is the goroutine-backed handle shared by the in-process
// and RPC launchers.
type procHandle struct {
	id       string
	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

func (h *procHandle) ID() string { return h.id }

func (h *procHandle) Stop() { h.stopOnce.Do(func() { close(h.stop) }) }

func (h *procHandle) Drained() bool {
	select {
	case <-h.done:
		return true
	default:
		return false
	}
}

// InProcessLauncher launches workers as goroutines against an in-process
// (or remote) master, the transport simulations and tests use. Its Dial
// method is the matching WorkerDialer for NewSessionClient.
type InProcessLauncher struct {
	Master MasterAPI
	WH     *warehouse.Warehouse
	// Tune, when set, adjusts each worker (heartbeat period, node model,
	// sink) after construction, before Run starts.
	Tune func(*Worker)
	// OnError receives worker Run failures (default: ignored; the master
	// reaps the worker and requeues its leases).
	OnError func(id string, err error)

	mu      sync.Mutex
	workers map[string]*Worker
}

// Launch implements WorkerLauncher.
func (l *InProcessLauncher) Launch(id string) (WorkerHandle, error) {
	w, err := NewWorkerWithEndpoint(id, "inproc://"+id, l.Master, l.WH)
	if err != nil {
		return nil, err
	}
	if l.Tune != nil {
		l.Tune(w)
	}
	l.mu.Lock()
	if l.workers == nil {
		l.workers = make(map[string]*Worker)
	}
	l.workers[id] = w
	l.mu.Unlock()
	h := &procHandle{id: id, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		if err := w.Run(h.stop); err != nil && l.OnError != nil {
			l.OnError(id, err)
		}
		_ = w.Retire(h.stop)
		// The worker has deregistered; drop it so a long churning
		// session doesn't accumulate retired Worker state, and so Dial
		// fails fast for it (clients skip unreachable workers).
		l.mu.Lock()
		delete(l.workers, id)
		l.mu.Unlock()
	}()
	return h, nil
}

// Worker returns a launched worker by ID (nil when unknown).
func (l *InProcessLauncher) Worker(id string) *Worker {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.workers[id]
}

// Dial is the WorkerDialer resolving this launcher's workers by ID.
func (l *InProcessLauncher) Dial(ep WorkerEndpoint) (WorkerAPI, error) {
	w := l.Worker(ep.ID)
	if w == nil {
		return nil, fmt.Errorf("dpp: unknown in-process worker %q", ep.ID)
	}
	return LocalWorkerAPI(w), nil
}

// managedWorker is the Orchestrator's view of one launched worker.
type managedWorker struct {
	handle   WorkerHandle
	seq      int
	draining bool
}

// ControlPlane is the surface the Orchestrator's loop steers: the
// single-session Master implements it directly, and the multi-tenant
// Service implements it fleet-wide (Done = every session done, Drain =
// drain a fleet member, PolicyStats = tenant-aggregated utilization),
// so one control law serves both deployments.
type ControlPlane interface {
	// ReapDead requeues the leases of silent workers.
	ReapDead() int
	// Done reports whether all work has completed.
	Done() (bool, error)
	// PolicyStats snapshots the utilization the scaling policy evaluates.
	PolicyStats() []WorkerStats
	// Drain marks one launched worker for graceful removal.
	Drain(workerID string) error
	// Checkpoint serializes reader state for replica takeover.
	Checkpoint() ([]byte, error)
}

// rebalancer is the optional ControlPlane extension the fleet control
// plane implements: every Step re-divides capacity among tenants by
// weighted fair share.
type rebalancer interface {
	Rebalance()
}

// OrchestratorStatus is a snapshot of the control loop's state.
type OrchestratorStatus struct {
	// Live is the number of tracked workers not yet fully retired.
	Live int
	// Draining is how many tracked workers are draining right now.
	Draining int
	// Launched and Drained count lifetime scale-up and scale-down
	// actions; Peak is the largest concurrently-live pool observed.
	Launched, Drained, Peak int
	// Checkpoints counts reader-state checkpoints taken.
	Checkpoints int
}

// Orchestrator runs the Master's closed scaling loop over a worker pool
// it owns through a WorkerLauncher.
type Orchestrator struct {
	// IDPrefix names launched workers "<prefix>-<seq>" (default "dpp-w").
	IDPrefix string
	// ScaleInterval is the control period of Run (default 250ms). Each
	// Run tick advances Clock by ScaleInterval.
	ScaleInterval time.Duration
	// ScaleUpCooldown and ScaleDownCooldown are the minimum virtual time
	// between successive scaling actions in either direction (defaults:
	// one and three ScaleIntervals). Any scaling action arms both, so a
	// drain can never immediately chase a launch or vice versa — the
	// anti-flap hysteresis on top of the AutoScaler's buffer thresholds.
	ScaleUpCooldown   time.Duration
	ScaleDownCooldown time.Duration
	// CheckpointEvery is the virtual-time period between reader-state
	// checkpoints (0 disables). The latest checkpoint is retained for a
	// replica master takeover (RestoreMaster).
	CheckpointEvery time.Duration
	// Clock is the virtual clock cooldowns are measured on. Run advances
	// it; deterministic tests advance it directly between Steps.
	Clock *clock.Clock
	// OnEvaluate, when set, observes every control decision: the stats
	// snapshot the policy saw and the delta it returned (before
	// cooldown/bound clamping). For logging and tests.
	OnEvaluate func(stats []WorkerStats, delta int)
	// OnError, when set, receives non-fatal control-loop errors (a
	// failed worker launch, a failed checkpoint). The loop retries on
	// its next tick rather than tearing down the session: a transient
	// launch hiccup must not abandon workers' buffered batches, whose
	// splits are already acknowledged.
	OnError func(err error)
	// Persistent keeps Run alive after all current work completes: a
	// multi-tenant service outlives any one session, so its fleet
	// controller only exits when stopped. Single-session loops leave it
	// false and Run returns at completion.
	Persistent bool

	plane    ControlPlane
	launcher WorkerLauncher
	scaler   *AutoScaler

	mu          sync.Mutex
	handles     map[string]*managedWorker
	seq         int
	lastUpEver  bool
	lastUp      time.Duration
	lastDown    time.Duration
	downEver    bool
	ckptEver    bool
	lastCkpt    time.Duration
	checkpoint  []byte
	launched    int
	drained     int
	peak        int
	checkpoints int
}

// NewOrchestrator assembles a control loop over master, launching
// workers with launcher under scaler's policy. Interval and cooldown
// defaults suit the cmd/dppd deployment; tests shrink them.
func NewOrchestrator(master *Master, launcher WorkerLauncher, scaler *AutoScaler) *Orchestrator {
	return newOrchestrator(master, launcher, scaler)
}

// NewFleetOrchestrator assembles the fleet-level control loop of a
// multi-tenant Service: the same law as the single-session loop, but
// the pool is sized from tenant-aggregated signals, scale-down drains
// whole fleet members, and every Step re-runs the weighted fair-share
// rebalance that divides the fleet among live sessions. The launcher
// must launch fleet workers (InProcessFleetLauncher, RPCFleetLauncher).
// The loop is Persistent by default — a service outlives its sessions.
func NewFleetOrchestrator(svc *Service, launcher WorkerLauncher, scaler *AutoScaler) *Orchestrator {
	o := newOrchestrator(svc, launcher, scaler)
	o.IDPrefix = "dpp-fw"
	o.Persistent = true
	return o
}

func newOrchestrator(plane ControlPlane, launcher WorkerLauncher, scaler *AutoScaler) *Orchestrator {
	return &Orchestrator{
		IDPrefix:      "dpp-w",
		ScaleInterval: 250 * time.Millisecond,
		Clock:         clock.New(),
		plane:         plane,
		launcher:      launcher,
		scaler:        scaler,
		handles:       make(map[string]*managedWorker),
	}
}

// Scaler returns the policy the loop runs.
func (o *Orchestrator) Scaler() *AutoScaler { return o.scaler }

// upCooldown and downCooldown resolve defaults.
func (o *Orchestrator) upCooldown() time.Duration {
	if o.ScaleUpCooldown > 0 {
		return o.ScaleUpCooldown
	}
	return o.ScaleInterval
}

func (o *Orchestrator) downCooldown() time.Duration {
	if o.ScaleDownCooldown > 0 {
		return o.ScaleDownCooldown
	}
	return 3 * o.ScaleInterval
}

// Status snapshots the loop's state.
func (o *Orchestrator) Status() OrchestratorStatus {
	o.mu.Lock()
	defer o.mu.Unlock()
	s := OrchestratorStatus{
		Launched:    o.launched,
		Drained:     o.drained,
		Peak:        o.peak,
		Checkpoints: o.checkpoints,
	}
	for _, mw := range o.handles {
		s.Live++
		if mw.draining {
			s.Draining++
		}
	}
	return s
}

// LastCheckpoint returns the most recent reader-state checkpoint taken
// by the loop (nil before the first).
func (o *Orchestrator) LastCheckpoint() []byte {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.checkpoint
}

// Step runs one control iteration: requeue dead workers' leases, drop
// workers that finished retiring, take a due checkpoint, then evaluate
// the scaling policy and launch or drain under the cooldowns. Transient
// control failures (launch, checkpoint) go to OnError and are retried
// next Step; the returned error is reserved for master failures. Step
// is the deterministic unit Run ticks and tests call directly.
func (o *Orchestrator) Step() error {
	o.plane.ReapDead()
	o.reapRetired()
	if rb, ok := o.plane.(rebalancer); ok {
		// Fleet mode: re-divide the live fleet among tenants by
		// weighted fair share before sizing the pool.
		rb.Rebalance()
	}
	now := o.Clock.Now()
	o.maybeCheckpoint(now)
	if done, err := o.plane.Done(); err != nil {
		return err
	} else if done && !o.Persistent {
		// Scaling a finished session is moot; remaining workers notice
		// Done on their own and retire. A Persistent (fleet) loop keeps
		// evaluating instead: its idle members must still drain back to
		// the minimum between sessions rather than sit at the last peak.
		return nil
	}
	stats := o.plane.PolicyStats()
	delta := o.scaler.Evaluate(stats)
	if o.OnEvaluate != nil {
		o.OnEvaluate(stats, delta)
	}
	switch {
	case delta > 0:
		o.scaleUp(now, delta)
	case delta < 0:
		o.scaleDown(now, -delta)
	}
	return nil
}

// notify reports a non-fatal control error.
func (o *Orchestrator) notify(err error) {
	if o.OnError != nil {
		o.OnError(err)
	}
}

// reapRetired forgets workers that deregistered after draining (or
// after the session completed).
func (o *Orchestrator) reapRetired() {
	o.mu.Lock()
	defer o.mu.Unlock()
	for id, mw := range o.handles {
		if mw.handle.Drained() {
			mw.handle.Stop() // idempotent; releases any forced-stop waiters
			delete(o.handles, id)
		}
	}
}

// maybeCheckpoint serializes reader state when the checkpoint period has
// elapsed. Failures are reported to OnError and retried next Step — the
// previous checkpoint stays valid.
func (o *Orchestrator) maybeCheckpoint(now time.Duration) {
	o.mu.Lock()
	due := o.CheckpointEvery > 0 && (!o.ckptEver || now-o.lastCkpt >= o.CheckpointEvery)
	o.mu.Unlock()
	if !due {
		return
	}
	ckpt, err := o.plane.Checkpoint()
	if err != nil {
		o.notify(fmt.Errorf("dpp: checkpoint: %w", err))
		return
	}
	o.mu.Lock()
	o.checkpoint = ckpt
	o.ckptEver = true
	o.lastCkpt = now
	o.checkpoints++
	o.mu.Unlock()
}

// coolingDown reports whether any recent scaling action still blocks the
// next one.
func (o *Orchestrator) coolingDown(now time.Duration) bool {
	if o.lastUpEver && now-o.lastUp < o.upCooldown() {
		return true
	}
	if o.downEver && now-o.lastDown < o.downCooldown() {
		return true
	}
	return false
}

// scaleUp launches up to delta workers, clamped so tracked live workers
// never exceed the policy's MaxWorkers. Launch failures go to OnError;
// lastUp is only armed by a successful launch, so the next Step retries
// without waiting out a cooldown.
func (o *Orchestrator) scaleUp(now time.Duration, delta int) {
	o.mu.Lock()
	if o.coolingDown(now) {
		o.mu.Unlock()
		return
	}
	// The bound caps concurrently running workers: draining workers
	// still occupy their nodes until they retire, so they count against
	// MaxWorkers and a replacement launch waits for the retirement.
	live := len(o.handles)
	if max := o.scaler.MaxWorkers; max > 0 && live+delta > max {
		delta = max - live
	}
	if delta <= 0 {
		o.mu.Unlock()
		return
	}
	type slot struct {
		id  string
		seq int
	}
	slots := make([]slot, 0, delta)
	for i := 0; i < delta; i++ {
		slots = append(slots, slot{id: fmt.Sprintf("%s-%d", o.IDPrefix, o.seq), seq: o.seq})
		o.seq++
	}
	o.mu.Unlock()

	for _, s := range slots {
		h, err := o.launcher.Launch(s.id)
		if err != nil {
			o.notify(fmt.Errorf("dpp: launch %s: %w", s.id, err))
			continue
		}
		o.mu.Lock()
		o.handles[s.id] = &managedWorker{handle: h, seq: s.seq}
		o.launched++
		if n := len(o.handles); n > o.peak {
			o.peak = n
		}
		o.lastUpEver, o.lastUp = true, now
		o.mu.Unlock()
	}
}

// scaleDown marks the delta most recently launched live workers as
// draining (LIFO keeps the longest-running, warmest workers serving).
func (o *Orchestrator) scaleDown(now time.Duration, delta int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.coolingDown(now) {
		return
	}
	for i := 0; i < delta; i++ {
		var victim *managedWorker
		for _, mw := range o.handles {
			if mw.draining {
				continue
			}
			if victim == nil || mw.seq > victim.seq {
				victim = mw
			}
		}
		if victim == nil {
			return
		}
		// An unknown-worker error means the victim retired concurrently;
		// reapRetired collects it next Step either way.
		_ = o.plane.Drain(victim.handle.ID())
		victim.draining = true
		o.drained++
		o.downEver, o.lastDown = true, now
	}
}

// Finished reports whether the session has completed and every launched
// worker has retired. A Persistent loop never finishes on its own.
func (o *Orchestrator) Finished() bool {
	if o.Persistent {
		return false
	}
	done, err := o.plane.Done()
	if err != nil || !done {
		return false
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.handles) == 0
}

// StopAll force-stops every tracked worker and waits for them to retire.
// Buffered batches not yet consumed are abandoned; their splits were
// already acknowledged, so StopAll is for shutdown, not failover.
func (o *Orchestrator) StopAll() {
	o.mu.Lock()
	handles := make([]WorkerHandle, 0, len(o.handles))
	for _, mw := range o.handles {
		handles = append(handles, mw.handle)
	}
	o.mu.Unlock()
	for _, h := range handles {
		h.Stop()
	}
	for _, h := range handles {
		for !h.Drained() {
			time.Sleep(time.Millisecond)
		}
	}
	o.reapRetired()
}

// Run drives the control loop every ScaleInterval of wall time,
// advancing the virtual clock in lockstep, until the session completes
// and the pool has fully retired, the master fails, or stop is closed
// (which force-stops the pool). Transient control errors go to OnError
// and are retried. The first Step runs immediately, bootstrapping the
// pool to the policy's minimum.
func (o *Orchestrator) Run(stop <-chan struct{}) error {
	ticker := time.NewTicker(o.ScaleInterval)
	defer ticker.Stop()
	for {
		if err := o.Step(); err != nil {
			o.StopAll()
			return err
		}
		if o.Finished() {
			return nil
		}
		select {
		case <-stop:
			o.StopAll()
			return nil
		case <-ticker.C:
			o.Clock.Advance(o.ScaleInterval)
		}
	}
}
