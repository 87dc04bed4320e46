package dsi_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"dsi/internal/datagen"
	"dsi/internal/dpp"
	"dsi/internal/dwrf"
	"dsi/internal/schema"
	"dsi/internal/tectonic"
	"dsi/internal/tensor"
	"dsi/internal/trainer"
	"dsi/internal/transforms"
	"dsi/internal/warehouse"
)

// TestEndToEndPipelinedSessionChecksums drives the full DSI flow —
// datagen synthesizes samples, dwrf writes them through the warehouse,
// a DPP master plans the session, pipelined workers extract/transform/
// load, and the trainer-side client consumes every batch — and asserts
// the delivered tensors carry exactly the written rows: row counts and
// order-independent feature checksums must match the generated data.
func TestEndToEndPipelinedSessionChecksums(t *testing.T) {
	const (
		partitions  = 2
		rowsPerPart = 384
	)
	p, err := datagen.ProfileByName("RM1")
	if err != nil {
		t.Fatal(err)
	}
	spec := p.Scale(0.01, partitions, rowsPerPart)
	gen := datagen.NewGenerator(spec, 7)

	cluster, err := tectonic.NewCluster(tectonic.Options{Nodes: 4, Replication: 2})
	if err != nil {
		t.Fatal(err)
	}
	wh := warehouse.New(cluster)
	tbl, err := wh.CreateTable("e2e", spec.BuildSchema(), dwrf.WriterOptions{Flatten: true, RowsPerStripe: 64})
	if err != nil {
		t.Fatal(err)
	}

	// The session materializes two raw dense and two raw sparse features
	// untouched (checksummable against the generated samples) plus two
	// transformed outputs.
	denseA, denseB := schema.FeatureID(1), schema.FeatureID(2)
	sparseA := schema.FeatureID(spec.DenseFeats + 1)
	sparseB := schema.FeatureID(spec.DenseFeats + 2)
	const (
		hashedOut = schema.FeatureID(1 << 20)
		logitOut  = schema.FeatureID(1<<20 + 1)
		hashMax   = int64(1) << 16
	)

	// Generate, write, and digest the ground truth in one pass.
	want := tensor.NewContentSum()
	for part := 0; part < partitions; part++ {
		pw, err := tbl.NewPartition(fmt.Sprintf("2026-07-%02d", part+1))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < rowsPerPart; i++ {
			s := gen.Sample()
			if err := pw.WriteRow(s); err != nil {
				t.Fatal(err)
			}
			want.Rows++
			want.AddLabel(s.Label)
			want.AddDense(denseA, s.DenseFeatures[denseA]) // absent → 0, matching materialization
			want.AddDense(denseB, s.DenseFeatures[denseB])
			want.AddSparse(sparseA, s.SparseFeatures[sparseA])
			want.AddSparse(sparseB, s.SparseFeatures[sparseB])
		}
		if err := pw.Close(); err != nil {
			t.Fatal(err)
		}
	}

	session := dpp.SessionSpec{
		Table:    "e2e",
		Features: []schema.FeatureID{denseA, denseB, sparseA, sparseB},
		Ops: []transforms.Op{
			&transforms.SigridHash{In: sparseA, Out: hashedOut, Salt: 3, MaxValue: hashMax},
			&transforms.Logit{In: denseA, Out: logitOut},
		},
		DenseOut:  []schema.FeatureID{denseA, denseB, logitOut},
		SparseOut: []schema.FeatureID{sparseA, sparseB, hashedOut},
		BatchSize: 32,
		Read:      dwrf.ReadOptions{CoalesceBytes: dwrf.DefaultCoalesceBytes, Flatmap: true},
		Pipeline:  dpp.PipelineOptions{Prefetchers: 3, TransformParallelism: 3},
	}
	m, err := dpp.NewMaster(wh, session)
	if err != nil {
		t.Fatal(err)
	}

	var workers []*dpp.Worker
	var apis []dpp.WorkerAPI
	for i := 0; i < 2; i++ {
		w, err := dpp.NewWorker(fmt.Sprintf("e2e-w%d", i), m, wh)
		if err != nil {
			t.Fatal(err)
		}
		workers = append(workers, w)
		apis = append(apis, dpp.LocalWorkerAPI(w))
	}
	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func(w *dpp.Worker) {
			defer wg.Done()
			if err := w.Run(nil); err != nil {
				t.Error(err)
			}
		}(w)
	}

	// The trainer-side consumption loop: every delivered batch is
	// digested exactly as the training loop would load it.
	client, err := dpp.NewClient(apis, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := tensor.NewContentSum()
	batches := 0
	for {
		b, ok, err := client.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		batches++
		if b.Rows > session.BatchSize {
			t.Fatalf("batch of %d rows exceeds batch size %d", b.Rows, session.BatchSize)
		}
		got.AddBatch(b)
		for _, s := range b.Sparse {
			if s.Feature != hashedOut {
				continue
			}
			for _, idx := range s.Indices {
				if idx < 0 || idx >= hashMax {
					t.Fatalf("unhashed index %d in transformed feature", idx)
				}
			}
		}
	}
	wg.Wait()

	if got.Rows != int64(partitions*rowsPerPart) {
		t.Fatalf("trainer consumed %d rows, want %d", got.Rows, partitions*rowsPerPart)
	}
	// Drop the transformed outputs from the delivered digest: the
	// ground-truth digest covers the raw passthrough features.
	delete(got.Dense, logitOut)
	delete(got.Sparse, hashedOut)
	delete(got.Counts, hashedOut)
	if !got.Equal(want) {
		t.Fatalf("content checksums diverge:\n got %+v\nwant %+v", got, want)
	}
	if batches == 0 {
		t.Fatal("no batches delivered")
	}

	// The workers' per-stage accounting must cover the whole flow. A
	// worker can legitimately process zero splits (its sibling leased
	// them all first under slow -race scheduling), so the per-worker
	// check applies only where work happened; at least one worker must
	// have done some.
	busyWorkers := 0
	for _, w := range workers {
		stage := w.Stats().Stage
		if w.Report().SplitsDone == 0 {
			continue
		}
		busyWorkers++
		if stage.Total() <= 0 {
			t.Fatalf("worker %s processed splits but reported no stage busy time: %+v", w.ID, stage)
		}
	}
	if busyWorkers == 0 {
		t.Fatal("no worker reported any processed splits")
	}

	// A trainer over a fresh identical session observes the same row
	// count through its own consumption loop.
	m2, err := dpp.NewMaster(wh, session)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := dpp.NewWorker("e2e-trainer-w", m2, wh)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		if err := w2.Run(nil); err != nil {
			t.Error(err)
		}
	}()
	client2, err := dpp.NewClient([]dpp.WorkerAPI{dpp.LocalWorkerAPI(w2)}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	tr := trainer.NewTrainer(client2)
	if _, err := tr.Run(0); err != nil {
		t.Fatal(err)
	}
	if tr.RowsConsumed != int64(partitions*rowsPerPart) {
		t.Fatalf("trainer consumed %d rows, want %d", tr.RowsConsumed, partitions*rowsPerPart)
	}
}

// TestEndToEndElasticSessionChecksums drives a full session through the
// closed scaling loop: the Orchestrator owns the worker pool, the
// trainer-side client resolves membership from the master, and the test
// only modulates consumption speed. A fast-consuming trainer starves the
// pool (the Orchestrator scales up), a pause oversupplies it (the
// Orchestrator drains workers back down and they deregister), and the
// trainer still receives every generated row exactly once — asserted by
// row counts and order-independent feature checksums as in the pipelined
// e2e test above.
func TestEndToEndElasticSessionChecksums(t *testing.T) {
	const (
		partitions  = 2
		rowsPerPart = 1536
		batchSize   = 16
	)
	p, err := datagen.ProfileByName("RM1")
	if err != nil {
		t.Fatal(err)
	}
	spec := p.Scale(0.01, partitions, rowsPerPart)
	gen := datagen.NewGenerator(spec, 11)

	cluster, err := tectonic.NewCluster(tectonic.Options{Nodes: 4, Replication: 2})
	if err != nil {
		t.Fatal(err)
	}
	wh := warehouse.New(cluster)
	tbl, err := wh.CreateTable("e2e-elastic", spec.BuildSchema(), dwrf.WriterOptions{Flatten: true, RowsPerStripe: 64})
	if err != nil {
		t.Fatal(err)
	}

	denseA, denseB := schema.FeatureID(1), schema.FeatureID(2)
	sparseA := schema.FeatureID(spec.DenseFeats + 1)
	sparseB := schema.FeatureID(spec.DenseFeats + 2)
	const (
		hashedOut = schema.FeatureID(1 << 20)
		hashMax   = int64(1) << 16
	)

	want := tensor.NewContentSum()
	for part := 0; part < partitions; part++ {
		pw, err := tbl.NewPartition(fmt.Sprintf("2026-07-%02d", part+1))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < rowsPerPart; i++ {
			s := gen.Sample()
			if err := pw.WriteRow(s); err != nil {
				t.Fatal(err)
			}
			want.Rows++
			want.AddLabel(s.Label)
			want.AddDense(denseA, s.DenseFeatures[denseA])
			want.AddDense(denseB, s.DenseFeatures[denseB])
			want.AddSparse(sparseA, s.SparseFeatures[sparseA])
			want.AddSparse(sparseB, s.SparseFeatures[sparseB])
		}
		if err := pw.Close(); err != nil {
			t.Fatal(err)
		}
	}

	session := dpp.SessionSpec{
		Table:    "e2e-elastic",
		Features: []schema.FeatureID{denseA, denseB, sparseA, sparseB},
		Ops: []transforms.Op{
			&transforms.SigridHash{In: sparseA, Out: hashedOut, Salt: 3, MaxValue: hashMax},
		},
		DenseOut:  []schema.FeatureID{denseA, denseB},
		SparseOut: []schema.FeatureID{sparseA, sparseB, hashedOut},
		BatchSize: batchSize,
		Read:      dwrf.ReadOptions{CoalesceBytes: dwrf.DefaultCoalesceBytes, Flatmap: true},
	}
	m, err := dpp.NewMaster(wh, session)
	if err != nil {
		t.Fatal(err)
	}

	launcher := &dpp.InProcessLauncher{
		Master: m,
		WH:     wh,
		Tune:   func(w *dpp.Worker) { w.HeartbeatEvery = time.Millisecond },
	}
	o := dpp.NewOrchestrator(m, launcher, dpp.NewAutoScaler(1, 4))
	o.ScaleInterval = time.Millisecond
	o.ScaleUpCooldown = time.Millisecond
	o.ScaleDownCooldown = 3 * time.Millisecond
	o.CheckpointEvery = 10 * time.Millisecond
	runDone := make(chan error, 1)
	go func() { runDone <- o.Run(nil) }()

	client, err := dpp.NewSessionClient(m, launcher.Dial, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	client.RefreshEvery = 500 * time.Microsecond

	got := tensor.NewContentSum()
	batches := 0
	consume := func() bool {
		b, ok, err := client.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return false
		}
		if b.Rows > batchSize {
			t.Fatalf("batch of %d rows exceeds batch size %d", b.Rows, batchSize)
		}
		batches++
		got.AddBatch(b)
		return true
	}

	// Phase 1: consume as fast as possible. Worker buffers stay empty,
	// the scaler sees starvation, and the pool grows past one.
	for o.Status().Peak < 2 && batches < 80 {
		if !consume() {
			t.Fatalf("session ended during scale-up phase after %d batches", batches)
		}
	}
	// Phase 2: the trainer pauses. Buffers fill, the data planes go
	// idle, and the Orchestrator drains workers back down; drained
	// workers retire and deregister once phase 3 empties their buffers.
	drainDeadline := time.Now().Add(20 * time.Second)
	for o.Status().Drained == 0 && time.Now().Before(drainDeadline) {
		time.Sleep(time.Millisecond)
	}
	// Phase 3: consume the rest of the session.
	for consume() {
	}

	select {
	case err := <-runDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(120 * time.Second):
		t.Fatal("orchestrator did not finish")
	}

	st := o.Status()
	if st.Peak < 2 {
		t.Fatalf("pool never scaled up: %+v", st)
	}
	if st.Drained == 0 {
		t.Fatalf("pool never drained back down: %+v", st)
	}
	if st.Live != 0 {
		t.Fatalf("workers still tracked after completion: %+v", st)
	}
	eps, err := m.ListWorkers()
	if err != nil {
		t.Fatal(err)
	}
	if len(eps) != 0 {
		t.Fatalf("drained workers leaked in master membership: %+v", eps)
	}

	if got.Rows != int64(partitions*rowsPerPart) {
		t.Fatalf("trainer consumed %d rows, want %d", got.Rows, partitions*rowsPerPart)
	}
	// Drop the transformed output from the delivered digest: the
	// ground-truth digest covers the raw passthrough features.
	delete(got.Sparse, hashedOut)
	delete(got.Counts, hashedOut)
	if !got.Equal(want) {
		t.Fatalf("content checksums diverge across elastic churn:\n got %+v\nwant %+v", got, want)
	}
	if batches == 0 {
		t.Fatal("no batches delivered")
	}
}

// TestEndToEndElasticSessionChecksumsFramed is the elastic exactly-once
// test over the framed streaming data plane on the served stack: one
// session is submitted to a Service served over real TCP loopback, a
// fleet controller launches TCP fleet workers, and the trainer-side
// tenant client streams length-prefixed batch frames with credit flow
// control. Scale-up, drain-down, worker deregistration, and the
// client's window-rescue on connection removal must all preserve
// exactly-once delivery — asserted by row counts and order-independent
// feature checksums.
func TestEndToEndElasticSessionChecksumsFramed(t *testing.T) {
	fx := buildE2EFixture(t, "e2e-framed", 13, 1536)
	// Serial workers, so a trainer consuming at full speed reliably
	// outpaces one of them and the controller sees starvation.
	fx.session.Pipeline.Sequential = true
	const sessionID = "s1"

	svc := dpp.NewService(fx.wh)
	svc.FleetLeaseTimeout = 150 * time.Millisecond
	ln, stopService, err := dpp.ServeService(svc, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stopService()
	rs, err := dpp.DialService(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	if err := rs.CreateSession(sessionID, fx.session); err != nil {
		t.Fatal(err)
	}
	m, err := svc.Master(sessionID)
	if err != nil {
		t.Fatal(err)
	}

	launcher := &dpp.RPCFleetLauncher{
		ServiceAddr:    ln.Addr().String(),
		WH:             fx.wh,
		HeartbeatEvery: time.Millisecond,
		Tune:           func(w *dpp.Worker) { w.HeartbeatEvery = time.Millisecond },
	}
	o := dpp.NewFleetOrchestrator(svc, launcher, dpp.NewAutoScaler(1, 4))
	o.ScaleInterval = time.Millisecond
	o.ScaleUpCooldown = time.Millisecond
	o.ScaleDownCooldown = 3 * time.Millisecond
	o.CheckpointEvery = 10 * time.Millisecond
	stop := make(chan struct{})
	runDone := make(chan error, 1)
	go func() { runDone <- o.Run(stop) }()

	dial, err := dpp.SessionWorkerDialer(dpp.DataPlaneFramed, sessionID)
	if err != nil {
		t.Fatal(err)
	}
	client, err := dpp.NewTenantClient(rs, sessionID, dial, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	client.RefreshEvery = 500 * time.Microsecond

	got := tensor.NewContentSum()
	batches := 0
	consume := func() bool {
		b, ok, err := client.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return false
		}
		if b.Rows > fx.session.BatchSize {
			t.Fatalf("batch of %d rows exceeds batch size %d", b.Rows, fx.session.BatchSize)
		}
		batches++
		got.AddBatch(b)
		b.Release()
		return true
	}

	// Phase 1: consume as fast as possible until the fleet grows.
	for o.Status().Peak < 2 && batches < 80 {
		if !consume() {
			t.Fatalf("session ended during scale-up phase after %d batches", batches)
		}
	}
	// Phase 2: the trainer pauses; buffers fill and the controller
	// drains oversupply.
	drainDeadline := time.Now().Add(20 * time.Second)
	for o.Status().Drained == 0 && time.Now().Before(drainDeadline) {
		time.Sleep(time.Millisecond)
	}
	// Phase 3: consume the rest of the session.
	for consume() {
	}

	close(stop)
	select {
	case err := <-runDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("fleet controller did not stop")
	}

	st := o.Status()
	if st.Peak < 2 {
		t.Fatalf("pool never scaled up: %+v", st)
	}
	if st.Drained == 0 {
		t.Fatalf("pool never drained back down: %+v", st)
	}
	eps, err := m.ListWorkers()
	if err != nil {
		t.Fatal(err)
	}
	if len(eps) != 0 {
		t.Fatalf("drained workers leaked in session membership: %+v", eps)
	}
	if batches == 0 {
		t.Fatal("no batches delivered")
	}
	assertExactDelivery(t, fx, got, "trainer")
}
