package dwrf

import (
	"runtime"
	"testing"

	"dsi/internal/datagen"
	"dsi/internal/schema"
	"dsi/internal/tectonic"
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
// deterministic. A fresh flate compressor per stream cost ~670 MiB for
// this partition (4 stripes x ~140 streams x ~1.2 MiB). One per stripe
// leaves ~10.5 MiB: four compressors, replica chunk growth in tectonic
// and the compressed stream buffers.
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
