package dwrf

import (
	"bytes"
	"runtime"
	"testing"

	"dsi/internal/datagen"
	"dsi/internal/schema"
	"dsi/internal/tectonic"
	"dsi/internal/tectonic/faults"
)

// rm1Partition returns the schema and rows of one ETL-sized RM1
// partition: 512 rows of the RM1 profile at 1% feature scale (121 dense
// and 18 sparse features, so ~140 streams per stripe).
func rm1Partition(t testing.TB) (*schema.TableSchema, []*schema.Sample) {
	t.Helper()
	p, err := datagen.ProfileByName("RM1")
	if err != nil {
		t.Fatal(err)
	}
	spec := p.Scale(0.01, 1, 512)
	gen := datagen.NewGenerator(spec, 1)
	rows := make([]*schema.Sample, 512)
	for i := range rows {
		rows[i] = gen.Sample()
	}
	return spec.BuildSchema(), rows
}

// writeRM1Partition writes rows to a fresh file as four 128-row
// flattened stripes and returns the closed writer and the file's length
// on storage.
func writeRM1Partition(t testing.TB, ts *schema.TableSchema, rows []*schema.Sample) (*Writer, int64) {
	t.Helper()
	c, err := tectonic.NewCluster(tectonic.Options{Nodes: 3, Replication: 2})
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWriter(c, "rm1.dwrf", ts, WriterOptions{Flatten: true, RowsPerStripe: 128})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if err := w.WriteRow(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	size, err := c.Size("rm1.dwrf")
	if err != nil {
		t.Fatal(err)
	}
	return w, size
}

// TestWriterGoldenBytes pins the writer's output for a fixed partition:
// every stripe's content hash (an FNV-1a digest over its compressed
// stream bytes) and the file length were recorded from a writer that
// built a fresh deflate compressor per stream. The writer now reuses one
// compressor per stripe through flate.Writer.Reset; matching digests
// prove the reuse emits the same deflate streams.
func TestWriterGoldenBytes(t *testing.T) {
	ts, rows := rm1Partition(t)
	w, size := writeRM1Partition(t, ts, rows)

	want := []uint64{0x91814f90977ade7b, 0x4593544e43330a37, 0xab045c8e08ec08f, 0x5a5da1ff6d37112a}
	const wantSize = 397984
	if len(w.footer.Stripes) != len(want) {
		t.Fatalf("wrote %d stripes, want %d", len(w.footer.Stripes), len(want))
	}
	for i, s := range w.footer.Stripes {
		if s.ContentHash != want[i] {
			t.Errorf("stripe %d ContentHash = %#x, want %#x", i, s.ContentHash, want[i])
		}
	}
	if size != wantSize {
		t.Errorf("file length = %d, want %d", size, wantSize)
	}
}

// TestWriterAllocBudget gates the write path's allocated bytes, which are
// deterministic for a given GOMAXPROCS. A fresh flate compressor per
// stream cost ~670 MiB for this partition (4 stripes x ~140 streams x
// ~1.2 MiB). Writer-lifetime encode lanes leave 7-10 MiB: one compressor
// per lane (1 at GOMAXPROCS=1, up to 3 for a 128-row RM1 stripe), replica
// chunk growth in tectonic and the compressed stream buffers. CI runs it
// at -cpu 1,2,8.
func TestWriterAllocBudget(t *testing.T) {
	ts, rows := rm1Partition(t)
	writeRM1Partition(t, ts, rows) // warm the AES block and schema caches
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	writeRM1Partition(t, ts, rows)
	runtime.ReadMemStats(&after)
	const budget = 12 << 20
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("one 512-row, 4-stripe RM1 partition allocated %.1f MiB", float64(got)/(1<<20))
	if got > budget {
		t.Fatalf("writing one RM1 partition allocated %d bytes, budget %d", got, budget)
	}
}

// TestWriterLanesLifecycle pins the encode lanes' lifetime: a 128-row
// RM1 stripe at GOMAXPROCS=8 gets 1 + rows*streams/laneCells lanes, they
// stay on the writer between flushes, and Close drops them.
func TestWriterLanesLifecycle(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	ts, rows := rm1Partition(t)
	c, err := tectonic.NewCluster(tectonic.Options{Nodes: 3, Replication: 2})
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWriter(c, "lanes.dwrf", ts, WriterOptions{Flatten: true, RowsPerStripe: 128})
	if err != nil {
		t.Fatal(err)
	}
	if w.lanes != nil {
		t.Fatal("a writer that has not flushed holds encode lanes")
	}
	for _, r := range rows[:256] {
		if err := w.WriteRow(r); err != nil {
			t.Fatal(err)
		}
	}
	streams := len(w.footer.Stripes[0].Streams)
	want := min(8, 1+128*streams/laneCells)
	if want < 2 {
		t.Fatalf("a %d-stream stripe gets %d lane; the test needs parallel lanes", streams, want)
	}
	if len(w.lanes) != want {
		t.Fatalf("writer holds %d lanes after two %d-stream stripes, want %d", len(w.lanes), streams, want)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.lanes != nil {
		t.Fatalf("Close left %d encode lanes on the writer", len(w.lanes))
	}
}

// TestWriterFailedAppendsJoinLanes fails every append of a stripe on
// every node. The flush must return the storage error with every lane
// already joined: when WriteRow returns, no goroutine is still encoding,
// and the goroutine count returns to its baseline.
func TestWriterFailedAppendsJoinLanes(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	ts, rows := rm1Partition(t)
	const nodes = 3
	c, err := tectonic.NewCluster(tectonic.Options{
		Nodes: nodes, Replication: 2,
		Retry: tectonic.RetryPolicy{MaxAttempts: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWriter(c, "fail.dwrf", ts, WriterOptions{Flatten: true, RowsPerStripe: 128})
	if err != nil {
		t.Fatal(err)
	}
	sched := faults.NewSchedule(3)
	for n := 0; n < nodes; n++ {
		sched.FailWrites(n, 0, 0, 1)
	}
	c.SetFaultSchedule(sched)

	base := runtime.NumGoroutine()
	for _, r := range rows[:127] {
		if err := w.WriteRow(r); err != nil {
			t.Fatalf("buffered row failed: %v", err)
		}
	}
	err = w.WriteRow(rows[127])
	if !faults.IsRetryable(err) {
		t.Fatalf("flush under a total write storm returned %v, want a storage error", err)
	}
	stacks := make([]byte, 1<<20)
	stacks = stacks[:runtime.Stack(stacks, true)]
	if bytes.Contains(stacks, []byte("(*encodeLane).encode")) {
		t.Fatalf("a lane is still encoding after the failed flush returned:\n%s", stacks)
	}
	// A joined lane may still be unwinding from wg.Done; yielding lets
	// it exit. A lane that was never joined keeps the count up.
	for i := 0; i < 1000 && runtime.NumGoroutine() > base; i++ {
		runtime.Gosched()
	}
	if got := runtime.NumGoroutine(); got > base {
		t.Fatalf("%d goroutines after the failed flush, %d before: a lane outlived it", got, base)
	}
}

// TestWriterLaneCountKeepsBytes writes the same PlainEncodings partition
// on one lane and on several: the stripes' content hashes (over every
// compressed stream, in on-disk order) and the file length must match.
func TestWriterLaneCountKeepsBytes(t *testing.T) {
	ts, rows := rm1Partition(t)
	write := func(procs int) ([]uint64, int64) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		c, err := tectonic.NewCluster(tectonic.Options{Nodes: 3, Replication: 2})
		if err != nil {
			t.Fatal(err)
		}
		w, err := NewWriter(c, "plain.dwrf", ts, WriterOptions{Flatten: true, RowsPerStripe: 128, PlainEncodings: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			if err := w.WriteRow(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		var hashes []uint64
		for _, s := range w.footer.Stripes {
			hashes = append(hashes, s.ContentHash)
		}
		size, err := c.Size("plain.dwrf")
		if err != nil {
			t.Fatal(err)
		}
		return hashes, size
	}
	oneHashes, oneSize := write(1)
	manyHashes, manySize := write(8)
	if len(oneHashes) != 4 || len(manyHashes) != len(oneHashes) {
		t.Fatalf("stripes: %d on one lane, %d on many, want 4", len(oneHashes), len(manyHashes))
	}
	for i := range oneHashes {
		if oneHashes[i] != manyHashes[i] {
			t.Errorf("stripe %d ContentHash %#x on one lane, %#x on many", i, oneHashes[i], manyHashes[i])
		}
	}
	if oneSize != manySize {
		t.Errorf("file length %d on one lane, %d on many", oneSize, manySize)
	}
}
