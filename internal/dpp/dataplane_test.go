package dpp

import (
	"encoding/binary"
	"io"
	"math/rand"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"dsi/internal/schema"
	"dsi/internal/tensor"
)

// dataplaneTestBatch builds a deterministic batch for transport tests.
func dataplaneTestBatch(rows int, seed int64) *tensor.Batch {
	rng := rand.New(rand.NewSource(seed))
	b := &tensor.Batch{
		Rows:            rows,
		DenseFeatureIDs: []schema.FeatureID{1, 2},
		Labels:          make([]float32, rows),
		Dense:           &tensor.Dense2D{Rows: rows, Cols: 2, Data: make([]float32, rows*2)},
	}
	for i := range b.Labels {
		b.Labels[i] = rng.Float32()
	}
	for i := range b.Dense.Data {
		b.Dense.Data[i] = rng.Float32()
	}
	st := &tensor.SparseTensor{Feature: 17, Offsets: make([]int32, 1, rows+1)}
	for r := 0; r < rows; r++ {
		for j := 0; j < 4; j++ {
			st.Indices = append(st.Indices, rng.Int63n(1<<18))
		}
		st.Offsets = append(st.Offsets, int32(len(st.Indices)))
	}
	b.Sparse = []*tensor.SparseTensor{st}
	return b
}

// countedSource serves copies of one batch a fixed number of times,
// tracking how many have been popped.
type countedSource struct {
	mu        sync.Mutex
	batch     *tensor.Batch
	remaining int
	popped    int
}

func (s *countedSource) TryGetBatch() (*tensor.Batch, bool, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.remaining <= 0 {
		return nil, false, true
	}
	s.remaining--
	s.popped++
	return s.batch, true, false
}

func (s *countedSource) Popped() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.popped
}

func TestFramedStreamTransport(t *testing.T) {
	const n = 25
	batch := dataplaneTestBatch(32, 1)
	src := &countedSource{batch: batch, remaining: n}
	ln, stop, err := ServeBatchSource(src, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	api, err := DialWorkerFramed(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	sw, ok := api.(*StreamWorker)
	if !ok {
		t.Fatalf("dial returned %T, want *StreamWorker", api)
	}
	defer sw.Close()

	want := tensor.NewContentSum()
	for i := 0; i < n; i++ {
		want.AddBatch(batch)
	}
	got := tensor.NewContentSum()
	received := 0
	deadline := time.Now().Add(10 * time.Second)
	for {
		b, ok, done, err := api.FetchBatch()
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
		if !ok {
			if time.Now().After(deadline) {
				t.Fatalf("stream stalled after %d batches", received)
			}
			time.Sleep(100 * time.Microsecond)
			continue
		}
		received++
		got.AddBatch(b)
		b.Release()
	}
	if received != n {
		t.Fatalf("received %d batches, want %d", received, n)
	}
	if !got.Equal(want) {
		t.Fatal("content sums diverge across the framed stream")
	}
}

func TestFramedStreamHonorsCreditWindow(t *testing.T) {
	// A client that never consumes must stop the stream after at most
	// the initial credit window, leaving the rest buffered server-side —
	// the backpressure that keeps a stalled trainer from unbounding
	// worker memory.
	src := &countedSource{batch: dataplaneTestBatch(8, 2), remaining: 100}
	ln, stop, err := ServeBatchSource(src, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	api, err := DialWorkerFramed(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	sw := api.(*StreamWorker)
	defer sw.Close()
	time.Sleep(100 * time.Millisecond)
	if popped := src.Popped(); popped > defaultCreditWindow {
		t.Fatalf("server pushed %d batches against a credit window of %d", popped, defaultCreditWindow)
	}
}

func TestFramedStreamDrainRescuesWindow(t *testing.T) {
	const n = 6 // fits inside one credit window
	batch := dataplaneTestBatch(8, 3)
	src := &countedSource{batch: batch, remaining: n}
	ln, stop, err := ServeBatchSource(src, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	api, err := DialWorkerFramed(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	sw := api.(*StreamWorker)
	// Wait for the server to push everything, consume one batch, then
	// drop the connection the way the client does on a membership
	// change: Drain must hand back exactly the unconsumed remainder.
	deadline := time.Now().Add(5 * time.Second)
	for src.Popped() < n && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	var first *tensor.Batch
	for first == nil {
		b, ok, _, err := api.FetchBatch()
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			first = b
		}
	}
	rescued := sw.Drain()
	sw.Close()
	if len(rescued)+1 != n {
		t.Fatalf("consumed 1 + drained %d, want %d total", len(rescued), n)
	}
	want, got := tensor.NewContentSum(), tensor.NewContentSum()
	for i := 0; i < n; i++ {
		want.AddBatch(batch)
	}
	got.AddBatch(first)
	for _, b := range rescued {
		got.AddBatch(b)
	}
	if !got.Equal(want) {
		t.Fatal("drain lost or duplicated content")
	}
}

// requeueSource is a countedSource that also accepts batches back — the
// Worker buffer's recovery surface for abnormally broken streams.
type requeueSource struct {
	mu       sync.Mutex
	queue    []*tensor.Batch
	popped   int
	requeued int
}

func (s *requeueSource) TryGetBatch() (*tensor.Batch, bool, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.queue) == 0 {
		return nil, false, true
	}
	b := s.queue[0]
	s.queue = s.queue[1:]
	s.popped++
	return b, true, false
}

func (s *requeueSource) UngetBatches(batches []*tensor.Batch) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.queue = append(append([]*tensor.Batch(nil), batches...), s.queue...)
	s.requeued += len(batches)
}

func (s *requeueSource) counts() (popped, requeued, queued int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.popped, s.requeued, len(s.queue)
}

func TestFramedStreamRequeuesOnAbnormalDisconnect(t *testing.T) {
	// An abnormal client disconnect (reset, not the graceful half-close)
	// must requeue the un-granted window into the source, so a second
	// client still receives every batch exactly once.
	const n = 30
	batch := dataplaneTestBatch(16, 5)
	src := &requeueSource{}
	for i := 0; i < n; i++ {
		src.queue = append(src.queue, batch)
	}
	ln, stop, err := ServeBatchSource(src, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	api, err := DialWorkerFramed(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	sw := api.(*StreamWorker)
	// Let the server push a full credit window, consume nothing, then
	// abort the connection with a reset.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if popped, _, _ := src.counts(); popped >= defaultCreditWindow {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server never filled the credit window")
		}
		time.Sleep(time.Millisecond)
	}
	if tc, ok := sw.conn.(*net.TCPConn); ok {
		tc.SetLinger(0) // close sends RST: the abnormal break
	}
	sw.Close()

	// The server must return the whole un-granted window to the source.
	for {
		if _, requeued, _ := src.counts(); requeued >= defaultCreditWindow {
			break
		}
		if time.Now().After(deadline) {
			popped, requeued, queued := src.counts()
			t.Fatalf("window not requeued: popped %d requeued %d queued %d", popped, requeued, queued)
		}
		time.Sleep(time.Millisecond)
	}

	// A fresh client consumes the session: exactly n batches, no loss,
	// no duplicates.
	api2, err := DialWorkerFramed(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer api2.(*StreamWorker).Close()
	received := 0
	for {
		b, ok, done, err := api2.FetchBatch()
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
		if !ok {
			if time.Now().After(deadline) {
				t.Fatalf("second stream stalled after %d batches", received)
			}
			time.Sleep(100 * time.Microsecond)
			continue
		}
		received++
		b.Release()
	}
	if received != n {
		t.Fatalf("second client received %d batches, want exactly %d", received, n)
	}
}

// TestFramedHandshakeRejectsOtherHellos pins the one protocol: a
// version-1 hello, an unknown version, or a wrong magic gets no server
// hello — the listener hangs up at once instead of serving anything.
func TestFramedHandshakeRejectsOtherHellos(t *testing.T) {
	src := &countedSource{batch: dataplaneTestBatch(8, 4), remaining: 5}
	ln, stop, err := ServeBatchSource(src, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	hello := func(magic string, version byte) []byte {
		h := append([]byte(magic), version)
		h = binary.LittleEndian.AppendUint32(h, defaultCreditWindow)
		return append(h, 0)
	}
	for name, h := range map[string][]byte{
		"v1":          hello(dataPlaneMagic, 1)[:len(dataPlaneMagic)+5], // v1 carried no session field
		"v3":          hello(dataPlaneMagic, 3),
		"gob-like":    []byte("\x0d\xff\x81\x03\x01\x01\x07Request"),
		"wrong-magic": hello("DSI0", dataPlaneVersion),
	} {
		t.Run(name, func(t *testing.T) {
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := conn.Write(h); err != nil {
				t.Fatal(err)
			}
			// Well under handshakeTimeout: the refusal must not wait for it.
			conn.SetReadDeadline(time.Now().Add(handshakeTimeout / 2))
			var buf [16]byte
			n, err := conn.Read(buf[:])
			if n != 0 || err == nil {
				t.Fatalf("server answered %q (err %v), want a hang-up", buf[:n], err)
			}
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				t.Fatal("server held the connection open instead of refusing the hello")
			}
		})
	}
	if n := src.Popped(); n != 0 {
		t.Fatalf("refused hellos popped %d batches", n)
	}
}

// TestFramedHandshakeRefusesUnknownSession: a hello for a session the
// listener does not host is refused before the server hello, and the
// dialer reports it.
func TestFramedHandshakeRefusesUnknownSession(t *testing.T) {
	src := &countedSource{batch: dataplaneTestBatch(8, 4), remaining: 5}
	ln, stop, err := ServeBatchSource(src, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	if api, err := DialWorkerFramedSession(ln.Addr().String(), "no-such-session"); err == nil {
		t.Fatalf("dial to an unknown session returned %T, want an error", api)
	}
	if n := src.Popped(); n != 0 {
		t.Fatalf("refused stream popped %d batches", n)
	}
}

// TestFramedDialFailsWithoutFallback: a listener that accepts and hangs
// up (any peer that does not speak the framed protocol) makes the dial
// fail promptly, with no other transport tried.
func TestFramedDialFailsWithoutFallback(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			conn.Close()
		}
	}()
	start := time.Now()
	api, err := DialWorkerFramedSession(ln.Addr().String(), "s1")
	if err == nil {
		t.Fatalf("dial to a hanging-up listener returned %T, want an error", api)
	}
	if took := time.Since(start); took >= handshakeTimeout {
		t.Fatalf("dial took %v to fail, want well under the %v handshake timeout", took, handshakeTimeout)
	}
}

// pipeStream opens a client stream over net.Pipe against a scripted
// server: it answers the client hello with a valid server hello, then
// writes serverBytes and hangs up, discarding the client's grants.
func pipeStream(t testing.TB, serverBytes []byte) *StreamWorker {
	client, server := net.Pipe()
	go func() {
		defer server.Close()
		var hello [len(dataPlaneMagic) + 6]byte
		if _, err := io.ReadFull(server, hello[:]); err != nil {
			return
		}
		go io.Copy(io.Discard, server)
		if _, err := server.Write(append([]byte(dataPlaneMagic), dataPlaneVersion)); err != nil {
			return
		}
		server.Write(serverBytes)
	}()
	s, err := openFramedStream(client, "")
	if err != nil {
		client.Close()
		t.Fatal(err)
	}
	return s
}

// TestFramedClientRejectsOversizedFrame: a batch header announcing a
// 4 GiB payload ends the stream with an abnormal error before the
// client allocates for it.
func TestFramedClientRejectsOversizedFrame(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s := pipeStream(t, []byte{frameKindBatch, 0xff, 0xff, 0xff, 0xff})
	defer s.Close()
	select {
	case <-s.readerDone:
	case <-time.After(10 * time.Second):
		t.Fatal("stream still reading after an oversized frame header")
	}
	runtime.ReadMemStats(&after)
	if s.done || s.err == nil || !strings.Contains(s.err.Error(), "exceeds") {
		t.Fatalf("stream ended done=%v err=%v, want an oversized-frame error", s.done, s.err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > maxBatchFrameLen {
		t.Fatalf("client allocated %d bytes for a rejected frame", grew)
	}
	if _, ok, done, err := s.FetchBatch(); ok || done || err == nil {
		t.Fatalf("fetch after oversized frame = ok %v done %v err %v, want an error", ok, done, err)
	}
	if out := s.Drain(); out != nil {
		t.Fatalf("abnormally ended stream rescued %d batches, want none", len(out))
	}
}

// FuzzFramedStreamClient feeds arbitrary server bytes to a client after
// a valid server hello: every run must end in an error or a done frame,
// with no panic and no hang.
func FuzzFramedStreamClient(f *testing.F) {
	frame := func(kind byte, payload []byte) []byte {
		out := binary.LittleEndian.AppendUint32([]byte{kind}, uint32(len(payload)))
		return append(out, payload...)
	}
	tagged := make([]byte, batchTagLen)
	binary.LittleEndian.PutUint32(tagged[0:], 3)
	binary.LittleEndian.PutUint32(tagged[4:], 0)
	binary.LittleEndian.PutUint32(tagged[8:], 1)
	batch := frame(frameKindBatch, dataplaneTestBatch(4, 9).AppendBinary(tagged))
	done := frame(frameKindDone, nil)
	f.Add([]byte{})
	f.Add(done)
	f.Add(append(append([]byte{}, batch...), done...))
	f.Add(batch)
	f.Add(batch[:len(batch)-7])
	f.Add([]byte{frameKindBatch, 0xff, 0xff, 0xff, 0xff})
	f.Add(frame(frameKindBatch, []byte{1, 2, 3}))
	f.Add(frame(frameKindBatch, tagged))
	f.Add(frame(7, nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		s := pipeStream(t, data)
		defer s.Close()
		deadline := time.After(10 * time.Second)
		for {
			b, ok, done, err := s.FetchBatch()
			if err != nil || done {
				return
			}
			if ok {
				b.Release()
				continue
			}
			select {
			case <-s.readerDone:
			case <-deadline:
				t.Fatal("stream neither ended nor failed")
			case <-time.After(100 * time.Microsecond):
			}
		}
	})
}

func TestRPCTransportEndToEndFramed(t *testing.T) {
	// The full served path: the Service's control plane over RPC, one
	// fleet worker serving its session pipeline on the framed plane, and
	// a tenant client streaming frames.
	wh, spec := buildFixture(t, 64, 16)
	spec.DataPlane = DataPlaneFramed
	svc := NewService(wh)
	const id = "rpc"
	if err := svc.CreateSession(id, spec); err != nil {
		t.Fatal(err)
	}
	ln, stopService, err := ServeService(svc, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stopService()
	rs, err := DialService(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()

	fw, stopServe, err := ListenAndServeFleetWorker("framed-w1", "127.0.0.1:0", rs, wh, func(fw *FleetWorker) {
		fw.HeartbeatEvery = time.Millisecond
	})
	if err != nil {
		t.Fatal(err)
	}
	defer stopServe()
	svc.Rebalance()
	stop := make(chan struct{})
	runDone := make(chan error, 1)
	go func() { runDone <- fw.Run(stop) }()
	var w *Worker
	deadline := time.Now().Add(5 * time.Second)
	for w = fw.Pipeline(id); w == nil && time.Now().Before(deadline); w = fw.Pipeline(id) {
		time.Sleep(time.Millisecond)
	}
	if w == nil {
		t.Fatal("fleet worker never started the session's pipeline")
	}

	dial, err := SessionWorkerDialer(DataPlaneFramed, id)
	if err != nil {
		t.Fatal(err)
	}
	client, err := NewTenantClient(rs, id, dial, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	client.RefreshEvery = time.Millisecond
	rows := 0
	for {
		b, ok, err := client.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		rows += b.Rows
		b.Release()
	}
	if rows != 128 {
		t.Fatalf("framed client saw %d rows, want 128", rows)
	}
	// Every granted batch must have retired from the worker's
	// outstanding stream window, so Retire would not block.
	deadline = time.Now().Add(5 * time.Second)
	for w.Undelivered() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := w.Undelivered(); n != 0 {
		t.Fatalf("worker still reports %d undelivered batches after full consumption", n)
	}
	sm, err := rs.SessionMaster(id)
	if err != nil {
		t.Fatal(err)
	}
	if done, err := sm.Done(); err != nil || !done {
		t.Fatalf("remote Done = %v, %v", done, err)
	}
	close(stop)
	if err := <-runDone; err != nil {
		t.Fatal(err)
	}
}
