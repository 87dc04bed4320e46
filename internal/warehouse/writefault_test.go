package warehouse

import (
	"math/rand"
	"testing"

	"dsi/internal/dwrf"
	"dsi/internal/schema"
	"dsi/internal/tectonic"
	"dsi/internal/tectonic/faults"
)

func writeRows(t *testing.T, pw *PartitionWriter, rows int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < rows; i++ {
		s := schema.NewSample()
		s.Label = float32(rng.Intn(2))
		for id := schema.FeatureID(1); id <= 4; id++ {
			s.DenseFeatures[id] = rng.Float32()
		}
		if err := pw.WriteRow(s); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPartitionPublishFailureRollsBackVisibility pins the write-side
// atomicity contract: a publish that fails (here the backing file's seal
// keeps failing) leaves the table exactly as it was — no partition
// entry, no generation bump, no Changed wake-up — and Abort reclaims the
// orphan so the same key can be re-produced once the storm lifts.
func TestPartitionPublishFailureRollsBackVisibility(t *testing.T) {
	cluster, err := tectonic.NewCluster(tectonic.Options{
		Nodes: 4, Replication: 2, ChunkSize: 1 << 20,
		Retry: tectonic.RetryPolicy{MaxAttempts: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	wh := New(cluster)
	tbl, err := wh.CreateTable("rm", testSchema(t), dwrf.WriterOptions{Flatten: true, RowsPerStripe: 16})
	if err != nil {
		t.Fatal(err)
	}

	cluster.SetFaultSchedule(faults.NewSchedule(5).FailSeals(0, 0, 1))
	genBefore := tbl.Generation()
	changed := tbl.Changed()
	pw, err := tbl.NewPartition("day1")
	if err != nil {
		t.Fatal(err)
	}
	writeRows(t, pw, 40, 1)
	if err := pw.Close(); err == nil {
		t.Fatal("publish under p=1 seal failures succeeded")
	}
	if _, err := tbl.Partition("day1"); err == nil {
		t.Fatal("failed publish left the partition visible")
	}
	if tbl.Generation() != genBefore {
		t.Fatalf("failed publish bumped generation %d -> %d", genBefore, tbl.Generation())
	}
	if fired(changed) {
		t.Fatal("failed publish closed the Changed channel")
	}
	if err := pw.Abort(); err != nil {
		t.Fatal(err)
	}
	if fired(changed) {
		t.Fatal("Abort closed the Changed channel")
	}
	if cluster.Exists("warehouse/rm/day1.dwrf") {
		t.Fatal("Abort left the orphan backing file behind")
	}
	if err := pw.Abort(); err != nil {
		t.Fatalf("Abort is not idempotent: %v", err)
	}

	// Storm over: the same key re-produces cleanly.
	cluster.SetFaultSchedule(nil)
	pw2, err := tbl.NewPartition("day1")
	if err != nil {
		t.Fatal(err)
	}
	writeRows(t, pw2, 40, 1)
	if err := pw2.Close(); err != nil {
		t.Fatal(err)
	}
	p, err := tbl.Partition("day1")
	if err != nil || p.Rows != 40 {
		t.Fatalf("re-produced partition = %+v, %v", p, err)
	}
	if tbl.Generation() != genBefore+1 {
		t.Fatalf("generation = %d, want exactly one bump", tbl.Generation())
	}
	if !fired(changed) {
		t.Fatal("publish did not close the Changed channel")
	}
}
