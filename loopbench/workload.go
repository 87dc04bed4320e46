package main

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"dsi/internal/datagen"
	"dsi/internal/dpp"
	"dsi/internal/dwrf"
	"dsi/internal/etl"
	"dsi/internal/logdevice"
	"dsi/internal/schema"
	"dsi/internal/scribe"
	"dsi/internal/tectonic"
	"dsi/internal/tensor"
	"dsi/internal/transforms"
	"dsi/internal/warehouse"
)

const (
	wIngestBacklog = "ingest-backlog"
	wLiveTail      = "live-tail"
	wReplayShared  = "replay-shared"
)

var workloadNames = []string{wIngestBacklog, wLiveTail, wReplayShared}

// params is one workload's configuration. Everything the program under
// test receives is generated from Seed and these sizes.
type params struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Profile  string  `json:"profile"`
	Scale    float64 `json:"feature_scale"`

	// Requests is the serving backlog published during set-up
	// (ingest-backlog).
	Requests int `json:"requests,omitempty"`
	// RatePerSec and TailSeconds shape live-tail's open-loop generator:
	// one request every 1/RatePerSec seconds for TailSeconds.
	RatePerSec  float64 `json:"rate_per_s,omitempty"`
	TailSeconds float64 `json:"tail_seconds,omitempty"`
	// Partitions x RowsPerPart is replay-shared's bounded table; tenant B
	// opens once tenant A has consumed OpenBAfterRows rows.
	Partitions     int `json:"partitions,omitempty"`
	RowsPerPart    int `json:"rows_per_partition,omitempty"`
	OpenBAfterRows int `json:"open_b_after_rows,omitempty"`
	// WindowsPerBuild is how many windows re-read one replay-shared
	// table, each through a fresh service and fleet worker.
	WindowsPerBuild int `json:"windows_per_build,omitempty"`

	// PartitionRows is the ETL's seal threshold (ingest workloads).
	PartitionRows int `json:"etl_partition_rows,omitempty"`
	RowsPerStripe int `json:"rows_per_stripe"`
	BatchSize     int `json:"batch_size"`

	// MinRounds is the fewest set-up + window rounds a run makes.
	MinRounds int `json:"min_rounds"`
}

// workloadParams returns the benchmark's configuration for a workload.
// tiny shrinks every size for the package's own tests.
func workloadParams(workload string, seed int64, tiny bool) (params, error) {
	p := params{Workload: workload, Seed: seed, Profile: "RM1", Scale: 0.01, MinRounds: 3}
	switch workload {
	case wIngestBacklog:
		p.Requests = 2048
		p.PartitionRows = 512
		p.RowsPerStripe = 128
		p.BatchSize = 64
		if tiny {
			p.Requests, p.PartitionRows, p.RowsPerStripe = 96, 40, 16
		}
	case wLiveTail:
		p.Scale = 0.002
		p.RatePerSec = 540
		p.TailSeconds = 2.5
		p.PartitionRows = 32
		p.RowsPerStripe = 32
		p.BatchSize = 32
		if tiny {
			p.RatePerSec, p.TailSeconds, p.PartitionRows, p.RowsPerStripe = 400, 0.15, 16, 16
		}
	case wReplayShared:
		p.Partitions = 4
		p.RowsPerPart = 1024
		p.RowsPerStripe = 128
		p.BatchSize = 64
		p.WindowsPerBuild = 128
		if tiny {
			p.Partitions, p.RowsPerPart, p.RowsPerStripe = 2, 64, 16
			p.WindowsPerBuild = 2
		}
		p.OpenBAfterRows = p.Partitions * p.RowsPerPart / 4
	default:
		return params{}, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloadNames)
	}
	if tiny {
		p.MinRounds = 1
	}
	return p, nil
}

// requests is how many serving requests one round generates.
func (p params) requests() int {
	switch p.Workload {
	case wIngestBacklog:
		return p.Requests
	case wLiveTail:
		return int(math.Round(p.RatePerSec * p.TailSeconds))
	}
	return 0
}

// rowsPerTenant is how many rows each trainer must receive in a round.
func (p params) rowsPerTenant() int {
	if p.Workload == wReplayShared {
		return p.Partitions * p.RowsPerPart
	}
	return p.requests()
}

func (p params) tenants() []string {
	if p.Workload == wReplayShared {
		return []string{"tenant-a", "tenant-b"}
	}
	return []string{"tenant-a"}
}

// model names the serving model whose Scribe categories the ETL tails.
const model = "rm1"

// passthrough names the raw features every session materializes
// untransformed, so trainer output can be checked against a replay of
// the generator.
type passthrough struct {
	denseA, denseB, sparseA, sparseB schema.FeatureID
}

func passthroughOf(spec datagen.DatasetSpec) passthrough {
	return passthrough{
		denseA: 1, denseB: 2,
		sparseA: schema.FeatureID(spec.DenseFeats + 1),
		sparseB: schema.FeatureID(spec.DenseFeats + 2),
	}
}

func (pt passthrough) ids() []schema.FeatureID {
	return []schema.FeatureID{pt.denseA, pt.denseB, pt.sparseA, pt.sparseB}
}

// sessionSpec builds the DPP session every tenant of the workload runs.
// Ingest workloads project the four passthrough features and hash one:
// the read side does little. replay-shared projects an RM1 job's
// features through the standard transform graph, the paper's
// preprocessing shape.
func sessionSpec(p params, spec datagen.DatasetSpec) (dpp.SessionSpec, error) {
	pt := passthroughOf(spec)
	s := dpp.SessionSpec{
		Table:     "loop",
		BatchSize: p.BatchSize,
		Read:      dwrf.ReadOptions{CoalesceBytes: dwrf.DefaultCoalesceBytes, Flatmap: true},
		DataPlane: dpp.DataPlaneFramed,
		Pipeline:  dpp.PipelineOptions{Prefetchers: 1, TransformParallelism: 1},
	}
	if p.Workload != wReplayShared {
		hashed := schema.FeatureID(1 << 20)
		s.Unbounded = true
		s.Features = pt.ids()
		s.Ops = []transforms.Op{&transforms.SigridHash{In: pt.sparseA, Out: hashed, Salt: 3, MaxValue: 1 << 16}}
		s.DenseOut = []schema.FeatureID{pt.denseA, pt.denseB}
		s.SparseOut = []schema.FeatureID{pt.sparseA, pt.sparseB, hashed}
		return s, nil
	}
	ts := spec.BuildSchema()
	// The job's projection is fixed (job seed 1): the seed varies the
	// data, not which features the model reads.
	proj := datagen.NewGenerator(spec, p.Seed).Projection(1)
	for _, id := range pt.ids() {
		proj.Add(id)
	}
	var dense, sparse []schema.FeatureID
	for _, id := range proj.IDs() {
		col, ok := ts.Column(id)
		if !ok {
			return dpp.SessionSpec{}, fmt.Errorf("projected feature %d not in schema", id)
		}
		if col.Kind == schema.Dense {
			dense = append(dense, id)
		} else {
			sparse = append(sparse, id)
		}
	}
	g := transforms.StandardGraph(dense, sparse, 4, 1<<20)
	// Materialize the graph's terminal outputs plus the passthrough
	// features, the way cmd/dppd's workload picks its outputs.
	consumed := map[schema.FeatureID]bool{}
	for _, op := range g.Ops() {
		for _, in := range op.Inputs() {
			consumed[in] = true
		}
	}
	denseOut := []schema.FeatureID{pt.denseA, pt.denseB}
	sparseOut := []schema.FeatureID{pt.sparseA, pt.sparseB}
	for _, op := range g.Ops() {
		if consumed[op.Output()] {
			continue
		}
		switch op.(type) {
		case *transforms.Logit, *transforms.BoxCox, *transforms.Clamp, *transforms.GetLocalHour:
			denseOut = append(denseOut, op.Output())
		case *transforms.ComputeScore, *transforms.Sampling:
		default:
			sparseOut = append(sparseOut, op.Output())
		}
	}
	s.Features = proj.IDs()
	s.Ops = g.Ops()
	s.DenseOut = denseOut
	s.SparseOut = sparseOut
	return s, nil
}

// truth replays the generator with the workload's seed and digests the
// passthrough features of the rows every trainer must receive.
func truth(p params, spec datagen.DatasetSpec) *tensor.ContentSum {
	pt := passthroughOf(spec)
	want := tensor.NewContentSum()
	gen := datagen.NewGenerator(spec, p.Seed)
	for i := 0; i < p.rowsPerTenant(); i++ {
		s := gen.Sample()
		want.Rows++
		label := s.Label
		if p.Workload != wReplayShared {
			// The joiner labels from the observed event: engaged iff the
			// generated label was positive.
			label = 0
			if s.Label > 0 {
				label = 1
			}
		}
		want.AddLabel(label)
		want.AddDense(pt.denseA, s.DenseFeatures[pt.denseA])
		want.AddDense(pt.denseB, s.DenseFeatures[pt.denseB])
		want.AddSparse(pt.sparseA, s.SparseFeatures[pt.sparseA])
		want.AddSparse(pt.sparseB, s.SparseFeatures[pt.sparseB])
	}
	return want
}

// onlyPassthrough copies the digest's passthrough-feature entries.
func onlyPassthrough(c *tensor.ContentSum, pt passthrough) *tensor.ContentSum {
	out := tensor.NewContentSum()
	out.Rows, out.Labels = c.Rows, c.Labels
	for _, id := range pt.ids() {
		if v, ok := c.Dense[id]; ok {
			out.Dense[id] = v
		}
		if v, ok := c.Sparse[id]; ok {
			out.Sparse[id] = v
		}
		if v, ok := c.Counts[id]; ok {
			out.Counts[id] = v
		}
	}
	return out
}

// tenant is one training job: a DPP session and the trainer loop that
// consumes it through dpp.Client.Next.
type tenant struct {
	id     string
	client *dpp.Client
	master *dpp.Master
	got    *tensor.ContentSum
	rows   atomic.Int64
	waits  []time.Duration
	// cur is the open "trainer.wait/next" span, parent of wire fetches.
	cur  atomic.Int64
	err  error
	done chan struct{}
}

// stack is one round's composition of the production system.
type stack struct {
	p    params
	spec datagen.DatasetSpec
	tr   *tracer

	// Ingestion plane (ingest workloads).
	store   *logdevice.Store
	bus     *scribe.Bus
	daemon  *scribe.Daemon
	cursors *etl.CursorStore
	pipe    *etl.Pipeline
	joiner  *etl.Joiner

	cluster *tectonic.Cluster
	wh      *warehouse.Warehouse
	tbl     *warehouse.Table

	// DPP: one Service, one FleetWorker on a loopback framed data plane.
	session dpp.SessionSpec
	svc     *dpp.Service
	ctrl    dpp.FleetControl
	fw      *dpp.FleetWorker
	stopDP  func()
	fwStop  chan struct{}
	fwDone  chan error
	leases  *leaseLog
	wmu     sync.Mutex
	workers []*dpp.Worker

	tenants []*tenant

	// Accounting filled in by the loops in drive.go.
	served      atomic.Int64 // requests handed to Scribe
	rowsWritten int64        // rows in sealed partitions
	partitions  int
	sealedAt    map[string]time.Time
	late        []time.Duration
	backlog     []float64
	logBytes    int64
	etlDone     chan error
}

func newStack(p params, tr *tracer) (*stack, error) {
	prof, err := datagen.ProfileByName(p.Profile)
	if err != nil {
		return nil, err
	}
	rows := p.rowsPerTenant()
	spec := prof.Scale(p.Scale, 1, rows)
	s := &stack{p: p, spec: spec, tr: tr, sealedAt: map[string]time.Time{}}
	s.session, err = sessionSpec(p, spec)
	if err != nil {
		return nil, err
	}
	s.cluster, err = tectonic.NewCluster(tectonic.Options{Nodes: 4, Replication: 2})
	if err != nil {
		return nil, err
	}
	s.wh = warehouse.New(s.cluster)
	return s, nil
}

// buildIngestPlane creates Scribe over LogDevice, the ETL's cursor log,
// and the unbounded destination table.
func (s *stack) buildIngestPlane() error {
	s.store = logdevice.NewStore()
	s.bus = scribe.NewBus(s.store)
	s.daemon = scribe.NewDaemon("serving-1", s.bus)
	var err error
	s.tbl, err = s.wh.CreateUnboundedTable(s.session.Table, s.spec.BuildSchema(),
		dwrf.WriterOptions{Flatten: true, RowsPerStripe: s.p.RowsPerStripe})
	if err != nil {
		return err
	}
	s.cursors, err = etl.NewCursorStore(s.store, "etl/"+model+"/cursors")
	if err != nil {
		return err
	}
	if s.tr == nil {
		s.pipe = &etl.Pipeline{
			Joiner:        etl.NewJoiner(model, s.bus, nil),
			Table:         s.tbl,
			Cursors:       s.cursors,
			PartitionRows: s.p.PartitionRows,
		}
		s.joiner = s.pipe.Joiner
	}
	return nil
}

// startETL runs the ETL on its own goroutine: the production
// etl.Pipeline, or in a traced round the same public calls driven from
// the benchmark with spans around each.
func (s *stack) startETL() {
	s.etlDone = make(chan error, 1)
	if s.tr == nil {
		go func() { s.etlDone <- s.pipe.Run(nil) }()
		return
	}
	sink := &etlSink{s: s}
	s.joiner = etl.NewJoiner(model, s.bus, sink)
	go func() { s.etlDone <- s.driveETL(sink) }()
}

// startDPP brings up the service with the first tenant's session, one
// fleet worker serving the framed data plane on loopback, and the
// worker's control loop. With assign, the session is assigned before the
// worker's first heartbeat, which then starts its pipeline at once;
// otherwise openTenant assigns it later.
func (s *stack) startDPP(first string, assign bool) error {
	s.svc = dpp.NewService(s.wh)
	s.ctrl = s.svc
	if s.tr != nil {
		s.leases = &leaseLog{first: map[string]time.Time{}}
		s.ctrl = tracingControl{FleetControl: s.svc, tr: s.tr, leases: s.leases}
	}
	fw, stop, err := dpp.ListenAndServeFleetWorker("fleet-0", "127.0.0.1:0", s.ctrl, s.wh, func(fw *dpp.FleetWorker) {
		if !assign {
			// A session assigned mid-window reaches the worker on its
			// next heartbeat; keep that delay small next to the window.
			fw.HeartbeatEvery = 2 * time.Millisecond
		}
		fw.Tune = func(w *dpp.Worker) {
			s.wmu.Lock()
			s.workers = append(s.workers, w)
			s.wmu.Unlock()
		}
	})
	if err != nil {
		return err
	}
	s.fw, s.stopDP = fw, stop
	if err := s.createSession(first); err != nil {
		return err
	}
	if assign {
		s.svc.Rebalance()
	}
	s.fwStop = make(chan struct{})
	s.fwDone = make(chan error, 1)
	go func() { s.fwDone <- fw.Run(s.fwStop) }()
	return nil
}

// createSession registers a tenant's session with the service.
func (s *stack) createSession(id string) error {
	return s.svc.CreateSession(id, s.session)
}

// resetDPP forgets the previous window's service, fleet worker and
// tenants, so the next window starts them afresh over the same table.
func (s *stack) resetDPP() {
	s.teardown()
	s.svc, s.ctrl, s.fw, s.leases = nil, nil, nil, nil
	s.workers = nil
	s.tenants = nil
}

// openTenant assigns an already created session to the fleet and opens
// its trainer's client (one loopback connection at most).
func (s *stack) openTenant(id string) (*tenant, error) {
	s.svc.Rebalance()
	dial, err := dpp.SessionWorkerDialer(dpp.DataPlaneFramed, id)
	if err != nil {
		return nil, err
	}
	tn := &tenant{id: id, got: tensor.NewContentSum(), done: make(chan struct{})}
	tn.cur.Store(-1)
	if s.tr != nil {
		dial = tracingDialer(dial, s.tr, &tn.cur)
	}
	tn.client, err = dpp.NewTenantClient(s.ctrl, id, dial, 1, 0)
	if err != nil {
		return nil, err
	}
	tn.master, err = s.svc.Master(id)
	if err != nil {
		return nil, err
	}
	s.tenants = append(s.tenants, tn)
	return tn, nil
}

// waitPipeline blocks until the fleet worker hosts the session's
// pipeline.
func (s *stack) waitPipeline(id string) error {
	deadline := time.Now().Add(30 * time.Second)
	for s.fw.Pipeline(id) == nil {
		if time.Now().After(deadline) {
			return fmt.Errorf("fleet worker never started a pipeline for %s", id)
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

// consume is the trainer: it pulls batches as fast as the session
// delivers them and digests every row. onRows sees the running row
// count after each batch.
func (s *stack) consume(tn *tenant, onRows func(int64)) {
	defer close(tn.done)
	for {
		w := s.tr.start("trainer.wait/next", tn.id, -1, false)
		tn.cur.Store(int64(w))
		t0 := time.Now()
		b, ok, err := tn.client.Next()
		if s.tr != nil {
			s.tr.finish(w)
			tn.waits = append(tn.waits, time.Since(t0))
		}
		if err != nil {
			tn.err = err
			return
		}
		if !ok {
			// The session is done. Revoke its assignment, as a fleet
			// controller's periodic rebalance would; otherwise the fleet
			// worker restarts a pipeline for it on every heartbeat.
			s.svc.Rebalance()
			return
		}
		i := s.tr.start("trainer/sum", tn.id, -1, false)
		rows := int64(b.Rows)
		tn.got.AddBatch(b)
		b.Release()
		s.tr.finish(i)
		n := tn.rows.Add(rows)
		if onRows != nil {
			onRows(n)
		}
	}
}

// pipelineWorkers lists the per-session pipeline workers the fleet
// worker started.
func (s *stack) pipelineWorkers() []*dpp.Worker {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	return append([]*dpp.Worker(nil), s.workers...)
}

// teardown stops the fleet worker and its data plane and waits for
// them. It is idempotent.
func (s *stack) teardown() {
	if s.fwStop != nil {
		close(s.fwStop)
		<-s.fwDone
		s.fwStop = nil
	}
	if s.stopDP != nil {
		s.stopDP()
		s.stopDP = nil
	}
}
