package dsi_test

import (
	"io"
	"math/rand"
	"testing"
	"time"

	"dsi/internal/dpp"
	"dsi/internal/schema"
	"dsi/internal/tensor"
)

// wireBenchBatch builds one batch of the standard session shape (the
// benchSessionSpec delivery: BatchSize 128 rows, two dense columns, two
// sparse features at ~16 indices per row) for wire-format benchmarks.
func wireBenchBatch() *tensor.Batch {
	const rows = 128
	rng := rand.New(rand.NewSource(42))
	b := &tensor.Batch{
		Rows:            rows,
		DenseFeatureIDs: []schema.FeatureID{2, 101},
		Labels:          make([]float32, rows),
		Dense:           &tensor.Dense2D{Rows: rows, Cols: 2, Data: make([]float32, rows*2)},
	}
	for i := range b.Labels {
		b.Labels[i] = rng.Float32()
	}
	for i := range b.Dense.Data {
		b.Dense.Data[i] = rng.Float32()
	}
	for _, id := range []schema.FeatureID{18, 100} {
		st := &tensor.SparseTensor{Feature: id, Offsets: make([]int32, 1, rows+1)}
		for r := 0; r < rows; r++ {
			for j := 0; j < 16; j++ {
				st.Indices = append(st.Indices, rng.Int63n(1<<18))
			}
			st.Offsets = append(st.Offsets, int32(len(st.Indices)))
		}
		b.Sparse = append(b.Sparse, st)
	}
	return b
}

// endlessSource serves the same batch forever — the steady-state worker
// buffer a saturated trainer sees, isolating the wire path from session
// setup.
type endlessSource struct{ batch *tensor.Batch }

func (s endlessSource) TryGetBatch() (*tensor.Batch, bool, bool) { return s.batch, true, false }

// benchWireTransport measures one-batch delivery over a real loopback
// TCP connection through the framed data plane.
func benchWireTransport(b *testing.B) {
	b.Helper()
	batch := wireBenchBatch()
	ln, stop, err := dpp.ServeBatchSource(endlessSource{batch: batch}, "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer stop()
	api, err := dpp.DialWorkerFramed(ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer api.(io.Closer).Close()
	b.SetBytes(batch.SizeBytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for {
			bb, ok, done, err := api.FetchBatch()
			if err != nil {
				b.Fatal(err)
			}
			if done {
				b.Fatal("endless source reported done")
			}
			if ok {
				bb.Release()
				break
			}
			// Streamed frames can momentarily lag the consumer. Poll
			// with a short sleep, not a bare yield: on a single-core
			// host a yield spin keeps the netpoller from ever waking
			// the stream's reader goroutine.
			time.Sleep(10 * time.Microsecond)
		}
	}
	b.StopTimer()
}

// BenchmarkDPPWireFormat measures the worker→trainer wire end to end
// over loopback TCP for the standard session shape: the framed
// streaming plane's credit-windowed push of pooled flat-binary frames,
// Batch.Release recycling the decoded tensors. BENCH_wire.json records
// a reference run.
func BenchmarkDPPWireFormat(b *testing.B) {
	b.Run("framed-streaming", benchWireTransport)
}

// BenchmarkTensorWireCodec isolates the codec itself (no network): one
// encode into a pooled frame plus one decode and release — see
// BenchmarkDPPWireFormat for the transport-inclusive cost.
func BenchmarkTensorWireCodec(b *testing.B) {
	batch := wireBenchBatch()
	b.SetBytes(batch.SizeBytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frame := tensor.GetFrameBuf()
		frame = batch.AppendBinary(frame)
		dec, _, err := tensor.DecodeBinary(frame)
		if err != nil {
			b.Fatal(err)
		}
		dec.Release()
		tensor.PutFrameBuf(frame)
	}
}
