package dwrf

import (
	"encoding/binary"
	"testing"

	"dsi/internal/schema"
)

// fuzzRows is the fixed row count every fuzzed decode runs against;
// payloads claiming more rows must error, never panic or overrun.
const fuzzRows = 8

// fuzzSeedPayloads produces one valid payload per (kind, encoding)
// pair by running the real stripe encoder over a small crafted stripe,
// plus hand-built malformed vectors for the validation paths.
func fuzzSeedPayloads() [][]byte {
	rows := make([]*schema.Sample, fuzzRows)
	for i := range rows {
		s := schema.NewSample()
		s.Label = float32(i % 2)
		if i%2 == 0 {
			s.DenseFeatures[1] = float32(i)
		}
		// Low cardinality (dict-friendly).
		s.SparseFeatures[2] = []int64{int64(i % 3), 7, int64(i % 3)}
		// Strictly ascending (delta-friendly).
		s.SparseFeatures[3] = []int64{int64(10 * i), int64(10*i + 3), int64(10*i + 9)}
		s.ScoreListFeatures[4] = []schema.ScoredValue{{Value: int64(i % 2), Score: 0.5}}
		rows[i] = s
	}
	var enc stripeEncoder
	var seeds [][]byte
	add := func(p []byte, _ StreamEncoding) {
		seeds = append(seeds, append([]byte(nil), p...))
	}
	add(enc.encodeDense(rows, 1, false))
	add(enc.encodeDense(rows, 1, true))
	add(enc.encodeSparse(rows, 2, false))
	add(enc.encodeSparse(rows, 3, false))
	add(enc.encodeSparse(rows, 2, true))
	add(enc.encodeScoreList(rows, 4, false))
	add(enc.encodeScoreList(rows, 4, true))
	seeds = append(seeds, enc.encodeLabels(rows))

	// Malformed: truncated header, out-of-order rows, row beyond stripe,
	// dict index past the dictionary, non-ascending delta, overlapping
	// RLE runs, giant claimed counts.
	seeds = append(seeds,
		[]byte{},
		[]byte{1, 2, 3},
		binary.LittleEndian.AppendUint32(nil, 1<<30),
		func() []byte { // dense RLE with runs past the row count
			b := binary.LittleEndian.AppendUint32(nil, 2) // count
			b = binary.LittleEndian.AppendUint32(b, 1)    // runs
			b = binary.LittleEndian.AppendUint32(b, 7)    // start
			b = binary.LittleEndian.AppendUint32(b, 5)    // len > rows-start
			return b
		}(),
		func() []byte { // dict sparse with an index >= dictLen
			b := binary.LittleEndian.AppendUint32(nil, 1) // entries
			b = binary.LittleEndian.AppendUint32(b, 1)    // dictLen
			b = binary.LittleEndian.AppendUint64(b, 42)   // dict[0]
			b = binary.LittleEndian.AppendUint32(b, 0)    // row
			b = binary.LittleEndian.AppendUint32(b, 1)    // n
			return append(b, 9)                           // idx 9 out of range
		}(),
	)
	return seeds
}

// fuzzDecodeAll throws the payload at every decoder under every
// encoding it accepts. Decoders must either succeed with a structurally
// sound column or return an error — never panic, never allocate
// unboundedly from claimed lengths.
func fuzzDecodeAll(t testing.TB, data []byte) {
	t.Helper()
	for enc := StreamEncoding(0); enc < encMax; enc++ {
		// Decoders write into pre-sized columns, exactly as the arena
		// hands them to decodeStripeBatch.
		dc := DenseColumn{Present: make([]bool, fuzzRows), Values: make([]float32, fuzzRows)}
		_ = decodeDenseInto(data, enc, fuzzRows, &dc)
		sc := SparseColumn{Offsets: make([]int32, fuzzRows+1)}
		if err := decodeSparseInto(data, enc, fuzzRows, &sc); err == nil {
			checkSparseShape(t, enc, &sc)
		}
		lc := ScoreListColumn{Offsets: make([]int32, fuzzRows+1)}
		if err := decodeScoreListInto(data, enc, fuzzRows, &lc); err == nil {
			if int(lc.Offsets[fuzzRows]) != len(lc.Values) {
				t.Fatalf("scorelist %v: inconsistent offsets", enc)
			}
		}
	}
	if labels, err := decodeLabels(data, nil); err == nil && len(labels) > len(data) {
		t.Fatalf("labels: %d decoded from %d bytes", len(labels), len(data))
	}
	_, _ = decodeRowData(data)
}

func checkSparseShape(t testing.TB, enc StreamEncoding, c *SparseColumn) {
	t.Helper()
	if int(c.Offsets[fuzzRows]) != len(c.Values) {
		t.Fatalf("sparse %v: inconsistent offsets", enc)
	}
	for i := 0; i < fuzzRows; i++ {
		if c.Offsets[i] > c.Offsets[i+1] {
			t.Fatalf("sparse %v: offsets not monotonic at %d", enc, i)
		}
	}
	if c.IsDict() {
		d := int64(len(c.Dict))
		for _, idx := range c.Values {
			if idx < 0 || idx >= d {
				t.Fatalf("sparse %v: dict index %d out of range %d", enc, idx, d)
			}
		}
	}
}

func FuzzStripeStreamDecode(f *testing.F) {
	for _, seed := range fuzzSeedPayloads() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzDecodeAll(t, data)
	})
}

// TestFuzzStripeStreamDecodeSeedCorpus runs the whole seed corpus
// through the fuzz body deterministically, so plain `go test` (and the
// race-enabled CI job) keeps the coverage without the fuzz engine.
func TestFuzzStripeStreamDecodeSeedCorpus(t *testing.T) {
	for i, seed := range fuzzSeedPayloads() {
		i, seed := i, seed
		t.Run("", func(t *testing.T) {
			_ = i
			fuzzDecodeAll(t, seed)
		})
	}
}
