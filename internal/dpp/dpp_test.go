package dpp

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"dsi/internal/dwrf"
	"dsi/internal/schema"
	"dsi/internal/tectonic"
	"dsi/internal/tensor"
	"dsi/internal/transforms"
	"dsi/internal/warehouse"
)

// blob abbreviates the tensor batch type in test closures.
type blob = tensor.Batch

// buildFixture creates a warehouse with one flattened table of two
// partitions and returns (warehouse, spec). Features: dense 1-4, sparse
// 5-8. Transform: SigridHash(5)->100, Logit(1)->101.
func buildFixture(t testing.TB, rowsPerPart, rowsPerStripe int) (*warehouse.Warehouse, SessionSpec) {
	t.Helper()
	cluster, err := tectonic.NewCluster(tectonic.Options{Nodes: 4, Replication: 2, ChunkSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	wh := warehouse.New(cluster)
	ts := schema.NewTableSchema("rm")
	for i := 1; i <= 4; i++ {
		if err := ts.AddColumn(schema.Column{ID: schema.FeatureID(i), Kind: schema.Dense, Name: fmt.Sprintf("d%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 5; i <= 8; i++ {
		if err := ts.AddColumn(schema.Column{ID: schema.FeatureID(i), Kind: schema.Sparse, Name: fmt.Sprintf("s%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	tbl, err := wh.CreateTable("rm", ts, dwrf.WriterOptions{Flatten: true, RowsPerStripe: rowsPerStripe})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for _, key := range []string{"p1", "p2"} {
		pw, err := tbl.NewPartition(key)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < rowsPerPart; i++ {
			s := schema.NewSample()
			s.Label = float32(rng.Intn(2))
			for id := schema.FeatureID(1); id <= 4; id++ {
				s.DenseFeatures[id] = rng.Float32()
			}
			for id := schema.FeatureID(5); id <= 8; id++ {
				n := 1 + rng.Intn(6)
				vals := make([]int64, n)
				for j := range vals {
					vals[j] = rng.Int63n(1 << 20)
				}
				s.SparseFeatures[id] = vals
			}
			if err := pw.WriteRow(s); err != nil {
				t.Fatal(err)
			}
		}
		if err := pw.Close(); err != nil {
			t.Fatal(err)
		}
	}
	spec := SessionSpec{
		Table:    "rm",
		Features: []schema.FeatureID{1, 2, 5, 6},
		Ops: []transforms.Op{
			&transforms.SigridHash{In: 5, Out: 100, Salt: 1, MaxValue: 1 << 16},
			&transforms.Logit{In: 1, Out: 101},
		},
		DenseOut:  []schema.FeatureID{101, 2},
		SparseOut: []schema.FeatureID{100, 6},
		BatchSize: 16,
		Read:      dwrf.ReadOptions{CoalesceBytes: dwrf.DefaultCoalesceBytes, Flatmap: true},
	}
	return wh, spec
}

func TestSessionSpecValidate(t *testing.T) {
	cases := []SessionSpec{
		{},
		{Table: "t", BatchSize: 8},
		{Table: "t", Features: []schema.FeatureID{1}},
	}
	for i, s := range cases {
		if err := s.Validate(); err == nil {
			t.Fatalf("case %d accepted: %+v", i, s)
		}
	}
	good := SessionSpec{Table: "t", Features: []schema.FeatureID{1}, BatchSize: 8}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMasterPlansSplits(t *testing.T) {
	wh, spec := buildFixture(t, 64, 16)
	m, err := NewMaster(wh, spec)
	if err != nil {
		t.Fatal(err)
	}
	if m.SplitCount() != 8 { // 2 partitions x 4 stripes
		t.Fatalf("SplitCount = %d, want 8", m.SplitCount())
	}
	done, err := m.Done()
	if err != nil || done {
		t.Fatalf("fresh session done=%v err=%v", done, err)
	}
}

func TestMasterRejectsEmptySession(t *testing.T) {
	wh, spec := buildFixture(t, 16, 16)
	spec.Partitions = []string{"p1", "p1"} // valid
	if _, err := NewMaster(wh, spec); err != nil {
		t.Fatal(err)
	}
	spec.Table = "missing"
	if _, err := NewMaster(wh, spec); err == nil {
		t.Fatal("missing table accepted")
	}
}

func TestMasterLeaseLifecycle(t *testing.T) {
	wh, spec := buildFixture(t, 32, 16)
	m, err := NewMaster(wh, spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, _, err := m.NextSplit("ghost"); err == nil {
		t.Fatal("unregistered worker got a split")
	}
	if _, err := m.RegisterWorker("w1", ""); err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for {
		_, id, ok, _, err := m.NextSplit("w1")
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if seen[id] {
			t.Fatalf("split %d leased twice", id)
		}
		seen[id] = true
		if err := m.CompleteSplit("w1", id); err != nil {
			t.Fatal(err)
		}
	}
	if len(seen) != m.SplitCount() {
		t.Fatalf("leased %d of %d splits", len(seen), m.SplitCount())
	}
	done, _ := m.Done()
	if !done {
		t.Fatal("session should be done")
	}
}

func TestMasterCompleteValidation(t *testing.T) {
	wh, spec := buildFixture(t, 32, 16)
	m, err := NewMaster(wh, spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.RegisterWorker("w1", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := m.RegisterWorker("w2", ""); err != nil {
		t.Fatal(err)
	}
	_, id, ok, _, err := m.NextSplit("w1")
	if err != nil || !ok {
		t.Fatal(err)
	}
	if err := m.CompleteSplit("w2", id); err == nil {
		t.Fatal("wrong-worker completion accepted")
	}
	if err := m.CompleteSplit("w1", 9999); err == nil {
		t.Fatal("out-of-range split accepted")
	}
	if err := m.CompleteSplit("w1", id); err != nil {
		t.Fatal(err)
	}
	// Duplicate ack after completion is benign.
	if err := m.CompleteSplit("w1", id); err != nil {
		t.Fatalf("duplicate ack rejected: %v", err)
	}
}

func TestMasterReapDeadReassigns(t *testing.T) {
	wh, spec := buildFixture(t, 32, 16)
	m, err := NewMaster(wh, spec)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1000, 0)
	m.now = func() time.Time { return now }
	m.LeaseTimeout = 10 * time.Second

	if _, err := m.RegisterWorker("w1", ""); err != nil {
		t.Fatal(err)
	}
	_, id, ok, _, err := m.NextSplit("w1")
	if err != nil || !ok {
		t.Fatal("no split leased")
	}
	// Worker dies; time passes.
	now = now.Add(11 * time.Second)
	if got := m.ReapDead(); got != 1 {
		t.Fatalf("ReapDead = %d, want 1", got)
	}
	// Split must be leasable again by a fresh worker.
	if _, err := m.RegisterWorker("w2", ""); err != nil {
		t.Fatal(err)
	}
	var found bool
	for {
		_, id2, ok, _, err := m.NextSplit("w2")
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if id2 == id {
			found = true
		}
		if err := m.CompleteSplit("w2", id2); err != nil {
			t.Fatal(err)
		}
	}
	if !found {
		t.Fatalf("reaped split %d never reassigned", id)
	}
}

// TestMasterWorkerStatsCumulativeAcrossChurn checks that recovery
// counters survive a worker leaving membership (deregistered or reaped)
// and add up across incarnations of the same worker ID.
func TestMasterWorkerStatsCumulativeAcrossChurn(t *testing.T) {
	wh, spec := buildFixture(t, 32, 16)
	m, err := NewMaster(wh, spec)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1000, 0)
	m.now = func() time.Time { return now }
	m.LeaseTimeout = 10 * time.Second

	beat := func(hedges, quarantines int64) {
		t.Helper()
		if err := m.Heartbeat("w1", WorkerStats{HedgedReads: hedges, Quarantines: quarantines, BufferedBatches: 7}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.RegisterWorker("w1", ""); err != nil {
		t.Fatal(err)
	}
	beat(1, 2)
	if err := m.DeregisterWorker("w1"); err != nil {
		t.Fatal(err)
	}
	if st := m.WorkerStatsByID()["w1"]; st.HedgedReads != 1 || st.Quarantines != 2 || st.BufferedBatches != 0 {
		t.Fatalf("departed worker stats = %+v, want its final recovery counters only", st)
	}

	// A second incarnation starts from zeroed counters; the view adds
	// the first one's on top.
	if _, err := m.RegisterWorker("w1", ""); err != nil {
		t.Fatal(err)
	}
	beat(3, 0)
	if st := m.WorkerStatsByID()["w1"]; st.HedgedReads != 4 || st.Quarantines != 2 || st.BufferedBatches != 7 {
		t.Fatalf("re-registered worker stats = %+v, want hedges 4, quarantines 2, buffered 7", st)
	}

	// Reaping retires the incarnation the same way.
	now = now.Add(11 * time.Second)
	m.ReapDead()
	if eps, _ := m.ListWorkers(); len(eps) != 0 {
		t.Fatalf("reaped worker still listed: %+v", eps)
	}
	if st := m.WorkerStatsByID()["w1"]; st.HedgedReads != 4 || st.Quarantines != 2 {
		t.Fatalf("reaped worker stats = %+v, want hedges 4, quarantines 2", st)
	}
	if snap := m.WorkerStatsSnapshot(); len(snap) != 0 {
		t.Fatalf("policy snapshot includes departed workers: %+v", snap)
	}
}

func TestMasterDrain(t *testing.T) {
	wh, spec := buildFixture(t, 32, 16)
	m, err := NewMaster(wh, spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.RegisterWorker("w1", ""); err != nil {
		t.Fatal(err)
	}
	if err := m.Drain("w1"); err != nil {
		t.Fatal(err)
	}
	_, _, ok, draining, err := m.NextSplit("w1")
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("draining worker received a split")
	}
	if !draining {
		t.Fatal("drained worker not told to drain")
	}
	if m.WorkerCount() != 0 {
		t.Fatalf("WorkerCount = %d, want 0 after drain", m.WorkerCount())
	}
	if err := m.Drain("nope"); err == nil {
		t.Fatal("draining unknown worker accepted")
	}
}

// TestDeregisterShrinksMembership is the drained-worker leak regression:
// before DeregisterWorker, a drained worker that finished stayed in the
// master's worker map forever, heartbeating and polluting
// WorkerStatsSnapshot with stale stats.
func TestDeregisterShrinksMembership(t *testing.T) {
	wh, spec := buildFixture(t, 32, 16)
	m, err := NewMaster(wh, spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"w1", "w2", "w3"} {
		if _, err := m.RegisterWorker(id, "addr:"+id); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Drain("w2"); err != nil {
		t.Fatal(err)
	}
	eps, err := m.ListWorkers()
	if err != nil {
		t.Fatal(err)
	}
	if len(eps) != 3 {
		t.Fatalf("ListWorkers = %d entries, want 3 (draining workers stay listed)", len(eps))
	}
	if eps[0].ID != "w1" || eps[1].ID != "w2" || eps[2].ID != "w3" {
		t.Fatalf("ListWorkers not ID-sorted: %+v", eps)
	}
	if !eps[1].Draining || eps[1].Endpoint != "addr:w2" {
		t.Fatalf("w2 entry = %+v, want draining with endpoint", eps[1])
	}

	if err := m.DeregisterWorker("w2"); err != nil {
		t.Fatal(err)
	}
	m.mu.Lock()
	n := len(m.workers)
	m.mu.Unlock()
	if n != 2 {
		t.Fatalf("worker map holds %d entries after deregister, want 2 (drained-worker leak)", n)
	}
	if got := len(m.WorkerStatsSnapshot()); got != 2 {
		t.Fatalf("WorkerStatsSnapshot = %d entries, want 2", got)
	}
	if err := m.DeregisterWorker("w2"); err == nil {
		t.Fatal("double deregister accepted")
	}

	// Deregistering with a split in flight requeues the lease.
	_, id, ok, _, err := m.NextSplit("w1")
	if err != nil || !ok {
		t.Fatal("lease failed")
	}
	if err := m.DeregisterWorker("w1"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.RegisterWorker("w4", ""); err != nil {
		t.Fatal(err)
	}
	seen := false
	for {
		_, id2, ok, _, err := m.NextSplit("w4")
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if id2 == id {
			seen = true
		}
		if err := m.CompleteSplit("w4", id2); err != nil {
			t.Fatal(err)
		}
	}
	if !seen {
		t.Fatalf("split %d leased to deregistered worker never requeued", id)
	}
}

func TestMasterCheckpointRestore(t *testing.T) {
	wh, spec := buildFixture(t, 32, 16)
	m, err := NewMaster(wh, spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.RegisterWorker("w1", ""); err != nil {
		t.Fatal(err)
	}
	// Complete half the splits.
	half := m.SplitCount() / 2
	for i := 0; i < half; i++ {
		_, id, ok, _, err := m.NextSplit("w1")
		if err != nil || !ok {
			t.Fatal("lease failed")
		}
		if err := m.CompleteSplit("w1", id); err != nil {
			t.Fatal(err)
		}
	}
	ckpt, err := m.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	// Replica takes over from the checkpoint.
	m2, err := RestoreMaster(wh, spec, ckpt)
	if err != nil {
		t.Fatal(err)
	}
	c, total := m2.Progress()
	if c != half || total != m.SplitCount() {
		t.Fatalf("restored progress = %d/%d, want %d/%d", c, total, half, m.SplitCount())
	}
	// The remaining splits are each leased exactly once.
	if _, err := m2.RegisterWorker("w2", ""); err != nil {
		t.Fatal(err)
	}
	count := 0
	for {
		_, id, ok, _, err := m2.NextSplit("w2")
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		count++
		if err := m2.CompleteSplit("w2", id); err != nil {
			t.Fatal(err)
		}
	}
	if count != total-half {
		t.Fatalf("restored session leased %d, want %d", count, total-half)
	}
	done, _ := m2.Done()
	if !done {
		t.Fatal("restored session should complete")
	}
}

func TestRestoreMasterRejectsBadCheckpoint(t *testing.T) {
	wh, spec := buildFixture(t, 32, 16)
	if _, err := RestoreMaster(wh, spec, []byte("junk")); err == nil {
		t.Fatal("junk checkpoint accepted")
	}
}

func TestWorkerProcessesSession(t *testing.T) {
	wh, spec := buildFixture(t, 64, 16)
	m, err := NewMaster(wh, spec)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorker("w1", m, wh)
	if err != nil {
		t.Fatal(err)
	}
	var got []int
	w.Sink = func(b *blob) { got = append(got, b.Rows) }

	for {
		ok, err := w.ProcessOneSplit()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
	}
	done, _ := m.Done()
	if !done {
		t.Fatal("session not done after worker drained it")
	}
	var rows int
	for _, r := range got {
		rows += r
		if r > spec.BatchSize {
			t.Fatalf("batch of %d rows exceeds batch size %d", r, spec.BatchSize)
		}
	}
	if rows != 128 {
		t.Fatalf("worker emitted %d rows, want 128", rows)
	}
	rep := w.Report()
	if rep.SplitsDone != 8 || rep.RowsIn != 128 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.ExtractCycles <= 0 || rep.TransformCycles <= 0 || rep.TaxCycles <= 0 {
		t.Fatalf("cycle accounting missing: %+v", rep)
	}
	if rep.NICRxBytes <= 0 || rep.NICTxBytes <= 0 {
		t.Fatalf("nic accounting missing: %+v", rep)
	}
}

func TestWorkerTensorsCarryTransformedFeatures(t *testing.T) {
	wh, spec := buildFixture(t, 32, 32)
	m, err := NewMaster(wh, spec)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorker("w1", m, wh)
	if err != nil {
		t.Fatal(err)
	}
	var batches []*blob
	w.Sink = func(b *blob) { batches = append(batches, b) }
	for {
		ok, err := w.ProcessOneSplit()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
	}
	if len(batches) == 0 {
		t.Fatal("no batches")
	}
	b := batches[0]
	if b.Dense.Cols != 2 {
		t.Fatalf("dense cols = %d, want 2", b.Dense.Cols)
	}
	if len(b.Sparse) != 2 {
		t.Fatalf("sparse tensors = %d, want 2", len(b.Sparse))
	}
	// Sparse feature 100 is SigridHash output: every index < 2^16.
	for _, s := range b.Sparse {
		if s.Feature == 100 {
			for _, idx := range s.Indices {
				if idx < 0 || idx >= 1<<16 {
					t.Fatalf("unhashed index %d in transformed tensor", idx)
				}
			}
		}
	}
}

func TestWorkerRunAndClient(t *testing.T) {
	wh, spec := buildFixture(t, 64, 16)
	m, err := NewMaster(wh, spec)
	if err != nil {
		t.Fatal(err)
	}
	var workers []*Worker
	var apis []WorkerAPI
	for i := 0; i < 3; i++ {
		w, err := NewWorker(fmt.Sprintf("w%d", i), m, wh)
		if err != nil {
			t.Fatal(err)
		}
		workers = append(workers, w)
		apis = append(apis, LocalWorkerAPI(w))
	}
	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func(w *Worker) {
			defer wg.Done()
			if err := w.Run(nil); err != nil {
				t.Error(err)
			}
		}(w)
	}

	client, err := NewClient(apis, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	var rows int
	for {
		b, ok, err := client.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		rows += b.Rows
	}
	wg.Wait()
	if rows != 128 {
		t.Fatalf("client saw %d rows, want 128", rows)
	}
	if client.BatchesFetched == 0 || client.BytesFetched == 0 {
		t.Fatal("client counters empty")
	}
}

func TestClientConnectionCap(t *testing.T) {
	wh, spec := buildFixture(t, 16, 16)
	m, err := NewMaster(wh, spec)
	if err != nil {
		t.Fatal(err)
	}
	var apis []WorkerAPI
	for i := 0; i < 6; i++ {
		w, err := NewWorker(fmt.Sprintf("w%d", i), m, wh)
		if err != nil {
			t.Fatal(err)
		}
		apis = append(apis, LocalWorkerAPI(w))
	}
	c, err := NewClient(apis, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if c.Connections() != 2 {
		t.Fatalf("Connections = %d, want 2", c.Connections())
	}
	if _, err := NewClient(nil, 0, 0); err == nil {
		t.Fatal("empty worker list accepted")
	}
}

func TestWorkerStatelessRestart(t *testing.T) {
	// A worker dying mid-split must not lose data: the master reassigns
	// the lease and a replacement worker reprocesses it.
	wh, spec := buildFixture(t, 64, 16)
	m, err := NewMaster(wh, spec)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(0, 0)
	m.now = func() time.Time { return now }
	m.LeaseTimeout = 5 * time.Second

	w1, err := NewWorker("w1", m, wh)
	if err != nil {
		t.Fatal(err)
	}
	_ = w1
	// w1 leases a split and crashes (never completes).
	if _, _, ok, _, err := m.NextSplit("w1"); err != nil || !ok {
		t.Fatal("lease failed")
	}
	now = now.Add(6 * time.Second)
	if m.ReapDead() != 1 {
		t.Fatal("dead lease not reaped")
	}

	w2, err := NewWorker("w2", m, wh)
	if err != nil {
		t.Fatal(err)
	}
	var rows int
	w2.Sink = func(b *blob) { rows += b.Rows }
	for {
		ok, err := w2.ProcessOneSplit()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
	}
	if rows != 128 {
		t.Fatalf("replacement worker emitted %d rows, want 128 (no data loss)", rows)
	}
}

func TestAutoScalerScalesUpOnStarvation(t *testing.T) {
	a := NewAutoScaler(1, 50)
	stats := []WorkerStats{
		{BufferedBatches: 0, CPUUtil: 0.95},
		{BufferedBatches: 1, CPUUtil: 0.9},
		{BufferedBatches: 0, CPUUtil: 0.99},
	}
	delta := a.Evaluate(stats)
	if delta <= 0 {
		t.Fatalf("Evaluate = %d, want scale-up", delta)
	}
}

func TestAutoScalerScalesDownWhenIdle(t *testing.T) {
	a := NewAutoScaler(1, 50)
	// Full buffers plus a low measured busy fraction mark a worker
	// drainable. The modelled utilizations are saturation-relative (the
	// bottleneck domain always reads 1.0), so they must not veto the
	// drain: these stats pin CPUUtil at 1.0 exactly as a real
	// backpressured worker reports it.
	stats := []WorkerStats{
		{BufferedBatches: 8, MinBuffered: 8, CPUUtil: 1.0, MemBWUtil: 0.6, NICUtil: 0.1, BusyFrac: 0.05},
		{BufferedBatches: 7, MinBuffered: 7, CPUUtil: 1.0, MemBWUtil: 0.5, NICUtil: 0.1, BusyFrac: 0.1},
	}
	delta := a.Evaluate(stats)
	if delta >= 0 {
		t.Fatalf("Evaluate = %d, want scale-down", delta)
	}
	// Never below MinWorkers.
	if len(stats)+delta < a.MinWorkers {
		t.Fatalf("scaled below MinWorkers: %d", len(stats)+delta)
	}
	// A busy worker with full buffers (fast producer, keeping up) is not
	// drainable.
	busy := []WorkerStats{
		{BufferedBatches: 8, MinBuffered: 8, BusyFrac: 0.9},
		{BufferedBatches: 7, MinBuffered: 7, BusyFrac: 0.8},
	}
	if delta := a.Evaluate(busy); delta != 0 {
		t.Fatalf("Evaluate(busy) = %d, want 0", delta)
	}
}

func TestAutoScalerSteadyState(t *testing.T) {
	a := NewAutoScaler(1, 50)
	stats := []WorkerStats{
		{BufferedBatches: 3, MinBuffered: 3, CPUUtil: 0.8},
		{BufferedBatches: 4, MinBuffered: 4, CPUUtil: 0.85},
	}
	if delta := a.Evaluate(stats); delta != 0 {
		t.Fatalf("Evaluate = %d, want 0", delta)
	}
}

func TestAutoScalerEmptyPool(t *testing.T) {
	a := NewAutoScaler(2, 50)
	if delta := a.Evaluate(nil); delta != 2 {
		t.Fatalf("Evaluate(empty) = %d, want MinWorkers", delta)
	}
}

func TestAutoScalerRespectsMax(t *testing.T) {
	a := NewAutoScaler(1, 3)
	stats := []WorkerStats{
		{BufferedBatches: 0}, {BufferedBatches: 0}, {BufferedBatches: 0},
	}
	if delta := a.Evaluate(stats); delta != 0 {
		t.Fatalf("Evaluate at max = %d, want 0", delta)
	}
}

func TestEndToEndAutoscaledSession(t *testing.T) {
	// Master + autoscaler-driven worker pool + client, driven to
	// completion.
	wh, spec := buildFixture(t, 96, 16)
	m, err := NewMaster(wh, spec)
	if err != nil {
		t.Fatal(err)
	}
	scaler := NewAutoScaler(1, 8)
	var (
		mu      sync.Mutex
		workers []*Worker
		apis    []WorkerAPI
		wg      sync.WaitGroup
		widx    int
	)
	launch := func(n int) {
		mu.Lock()
		defer mu.Unlock()
		for i := 0; i < n; i++ {
			w, err := NewWorker(fmt.Sprintf("auto-%d", widx), m, wh)
			if err != nil {
				t.Error(err)
				return
			}
			widx++
			workers = append(workers, w)
			apis = append(apis, LocalWorkerAPI(w))
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := w.Run(nil); err != nil {
					t.Error(err)
				}
			}()
		}
	}
	launch(scaler.Evaluate(m.WorkerStatsSnapshot()))

	// Consume from a client while periodically evaluating the scaler.
	time.Sleep(2 * time.Millisecond)
	mu.Lock()
	client, err := NewClient(apis, 0, 0)
	mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	iter := 0
	for {
		b, ok, err := client.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		rows += b.Rows
		iter++
		if iter%4 == 0 {
			if delta := scaler.Evaluate(m.WorkerStatsSnapshot()); delta > 0 {
				launch(delta)
			}
		}
	}
	wg.Wait()
	if rows != 192 {
		t.Fatalf("rows = %d, want 192", rows)
	}
}

func TestCostKnobsChangeThroughput(t *testing.T) {
	// FM and LO must improve modelled worker throughput, as in Table 12.
	run := func(costs CostParams) float64 {
		wh, spec := buildFixture(t, 64, 16)
		spec.Costs = costs
		m, err := NewMaster(wh, spec)
		if err != nil {
			t.Fatal(err)
		}
		w, err := NewWorker("w", m, wh)
		if err != nil {
			t.Fatal(err)
		}
		w.Sink = func(*blob) {}
		for {
			ok, err := w.ProcessOneSplit()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
		}
		return w.Report().CPUBoundThroughput(w.Node, w.ClockGHz)
	}
	base := run(CostParams{})
	fm := run(CostParams{Flatmap: true})
	fmLO := run(CostParams{Flatmap: true, LocalOpt: true})
	if !(fm > base && fmLO > fm) {
		t.Fatalf("throughput ordering violated: base %.0f fm %.0f fm+lo %.0f", base, fm, fmLO)
	}
}
