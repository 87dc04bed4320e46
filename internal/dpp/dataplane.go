package dpp

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"dsi/internal/tensor"
)

// This file is the data plane: the worker→trainer hot path that moves
// every training byte over one framed TCP stream per (trainer, worker,
// session). A unary RPC per batch would pay the worst version of the
// paper's "datacenter tax" (§6.2, §7.2): a full round trip per batch, a
// reflection-driven encode on the worker, and a fresh allocation storm
// on the trainer. The framed stream removes all three:
//
//   - One TCP stream per worker. The client opens it with a hello
//     carrying a credit window; the worker pushes length-prefixed
//     flat-binary batch frames (tensor.AppendBinary) as the delivery
//     stage produces them, so per-batch RTTs disappear while the
//     worker's bounded buffer (BufferDepth / MaxBufferedBytes) keeps
//     applying backpressure.
//   - Credit-based flow control. The worker may have at most `window`
//     un-acknowledged frames in flight; the client grants one credit per
//     consumed batch. A stalled trainer therefore stops the stream after
//     at most one window, and the stall propagates back through the
//     worker's delivery buffer.
//   - Pooled frames at both ends. The worker encodes each batch once
//     into a pooled buffer and writes it with a single syscall; the
//     client decodes into pool-backed tensors that the trainer returns
//     with Batch.Release.
//
// Wire protocol (all integers little-endian), after the client connects:
//
//	client hello : "DSI1" | u8 version (= 2) | u32 credit window
//	               | u8 session length | session bytes
//	server hello : "DSI1" | u8 version (= 2)
//	server frame : u8 kind | u32 payload length | payload
//	               kind 1 = batch: u32 split | u32 seq | u32 seq count
//	                        | one tensor frame (tensor.AppendBinary);
//	                        payload length <= maxBatchFrameLen
//	               kind 2 = done: the source finished and drained; len 0
//	client grant : u32 credit delta (any time after the hello)
//
// The session ID routes the stream to one pipeline behind a fleet
// worker's shared listener; the (split, seq, seq count) tags are the
// batch's delivery provenance, which lets clients deduplicate
// redelivery after a worker crash. The server answers nothing — it
// closes the connection before its hello — to a bad magic, any other
// version, a hello that does not arrive within handshakeTimeout, or an
// unknown session, and the dialer reports that as an error.

const (
	// dataPlaneMagic opens both hellos of the framed protocol.
	dataPlaneMagic = "DSI1"
	// dataPlaneVersion is the one protocol version spoken on the wire.
	dataPlaneVersion = 2

	frameKindBatch = 1
	frameKindDone  = 2

	// batchTagLen is the length of the batch frame's provenance prefix
	// (u32 split | u32 seq | u32 seq count).
	batchTagLen = 12

	// maxBatchFrameLen bounds a batch frame's payload length, checked
	// before the client allocates for it: the length is read straight
	// off the wire, and an unchecked length lets a broken or hostile
	// peer make the trainer allocate up to 4 GiB. A 128-row RM1 batch is
	// ~35 KB (BENCH_wire.json), so the cap sits three orders of
	// magnitude above any real batch.
	maxBatchFrameLen = 64 << 20

	// maxSessionIDLen bounds the session ID carried in the hello
	// (length-prefixed with one byte).
	maxSessionIDLen = 255

	// defaultCreditWindow is the per-stream in-flight batch budget.
	defaultCreditWindow = 8

	// handshakeTimeout bounds the hello exchange on both ends.
	handshakeTimeout = 3 * time.Second
)

// DataPlaneFramed and DataPlaneGob name the two worker→trainer wire
// encodings the resource model prices (SessionSpec.DataPlane). The wire
// itself is always framed; DataPlaneGob survives as the modelled
// Thrift-style encoding behind the paper's datacenter-tax figures.
const (
	DataPlaneFramed = "framed"
	DataPlaneGob    = "gob"
)

// BatchSource is the buffer surface the data plane serves from: Worker
// implements it, and benchmarks or tests can serve synthetic sources
// through ServeBatchSource.
type BatchSource interface {
	// TryGetBatch pops one buffered batch without blocking. done=true
	// means the source has finished and drained.
	TryGetBatch() (b *tensor.Batch, ok bool, done bool)
}

// ungetter is the optional BatchSource extension the framed server uses
// to return the un-granted window of an abnormally broken stream to the
// buffer (Worker implements it), so a transient connection failure
// requeues the in-flight batches instead of losing them.
type ungetter interface {
	UngetBatches(batches []*tensor.Batch)
}

// consumeAcker is the optional BatchSource extension through which the
// data plane reports irrevocable consumption (a framed credit grant or
// a gracefully rescued stream window). Worker implements it to drive
// the deferred split-completion ledger.
type consumeAcker interface {
	ackConsumed(batches ...*tensor.Batch)
}

// ackAll reports consumption to sources that track it.
func ackAll(src BatchSource, batches []*tensor.Batch) {
	if ca, ok := src.(consumeAcker); ok && len(batches) > 0 {
		ca.ackConsumed(batches...)
	}
}

// crashSignaler is the optional BatchSource extension fault-injection
// uses: when the returned channel closes, every serving stream severs
// its connection immediately — without the abnormal-break requeue, as a
// killed process would. Worker implements it via Crash.
type crashSignaler interface {
	crashedCh() <-chan struct{}
}

// crashChOf returns the source's crash channel, or nil (which blocks
// forever in a select) when the source is not crashable.
func crashChOf(src BatchSource) <-chan struct{} {
	if cs, ok := src.(crashSignaler); ok {
		return cs.crashedCh()
	}
	return nil
}

// outstandingTracker is the optional BatchSource extension that counts
// batches sent into stream windows but not yet granted (consumed) by a
// client. Worker implements it so Retire does not deregister while a
// stream still holds an un-granted window — the window's rows would
// have nowhere to go if that stream then broke abnormally (requeued
// into a deregistered worker no client can resolve).
type outstandingTracker interface {
	addStreamOutstanding(delta int)
}

// sourceResolver routes a stream hello's session ID to the batch source
// that serves it.
type sourceResolver func(session string) (BatchSource, error)

// serveDataPlaneOn serves framed streams on ln, each routed to its
// session's batch source by resolve.
func serveDataPlaneOn(resolve sourceResolver, ln net.Listener) func() {
	done := make(chan struct{})
	go acceptLoop(ln, done, func(conn net.Conn) {
		go serveFramedStream(resolve, conn)
	})
	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			ln.Close()
		})
	}
}

// ServeBatchSource serves one batch source's framed data plane on addr,
// as the session-less stream (the empty session ID) — the entry point
// transport benchmarks and tests use to measure the wire path in
// isolation, or to serve a single Worker.
func ServeBatchSource(src BatchSource, addr string) (net.Listener, func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	stop := serveDataPlaneOn(func(session string) (BatchSource, error) {
		if session != "" {
			return nil, fmt.Errorf("dpp: data plane hosts no session %q", session)
		}
		return src, nil
	}, ln)
	return ln, stop, nil
}

// serveFramedStream runs the server half of one framed stream: read and
// check the hello (magic, version, credit window, session), resolve the
// session's batch source, track the client's credit, and push batch
// frames until the source drains or the connection breaks.
func serveFramedStream(resolve sourceResolver, conn net.Conn) {
	defer conn.Close()

	br := bufio.NewReader(conn)
	conn.SetReadDeadline(time.Now().Add(handshakeTimeout))
	// Check magic and version before reading on, so any other hello is
	// refused at once rather than on the handshake timeout.
	var head [len(dataPlaneMagic) + 1]byte
	if _, err := io.ReadFull(br, head[:]); err != nil {
		return
	}
	if string(head[:len(dataPlaneMagic)]) != dataPlaneMagic || head[len(dataPlaneMagic)] != dataPlaneVersion {
		return
	}
	// u32 credit window | u8 session length | session bytes
	var rest [5]byte
	if _, err := io.ReadFull(br, rest[:]); err != nil {
		return
	}
	window := int64(binary.LittleEndian.Uint32(rest[:4]))
	if window <= 0 {
		window = defaultCreditWindow
	}
	session := ""
	if slen := rest[4]; slen > 0 {
		sbuf := make([]byte, slen)
		if _, err := io.ReadFull(br, sbuf); err != nil {
			return
		}
		session = string(sbuf)
	}
	conn.SetReadDeadline(time.Time{})
	src, err := resolve(session)
	if err != nil {
		// Unknown session: refuse before the server hello so the dialer
		// reports a handshake failure instead of a hung stream.
		return
	}
	var shello [len(dataPlaneMagic) + 1]byte
	copy(shello[:], dataPlaneMagic)
	shello[len(dataPlaneMagic)] = dataPlaneVersion
	if _, err := conn.Write(shello[:]); err != nil {
		return
	}
	crashCh := crashChOf(src)

	// Credit reader: accumulate grants until the client goes away, and
	// retire granted batches from the un-granted window. A half-closed
	// connection (clean EOF — the client's polite "stop sending" before
	// it collects the stream, see StreamWorker.Drain) ends the grant
	// stream gracefully: the client keeps and consumes the window, so
	// the server must NOT requeue it. Any other read error is an
	// abnormal break: the client discards its partial window and the
	// un-granted batches are requeued into the source, so a transient
	// connection failure costs no rows. (The residual hazard is a grant
	// lost in flight for a batch the trainer already consumed — that
	// batch is requeued and delivered twice; the graceful paths are
	// exact.)
	var (
		creditMu sync.Mutex
		credit   = window
		unacked  []*tensor.Batch
		abnormal bool
	)
	// track mirrors the un-granted window size into the source, so a
	// Worker's Retire can wait for in-flight stream windows to land.
	track := func(delta int) {
		if ot, ok := src.(outstandingTracker); ok && delta != 0 {
			ot.addStreamOutstanding(delta)
		}
	}

	creditCh := make(chan struct{}, 1)
	connGone := make(chan struct{})
	go func() {
		defer close(connGone)
		var buf [4]byte
		for {
			if _, err := io.ReadFull(br, buf[:]); err != nil {
				if !errors.Is(err, io.EOF) {
					creditMu.Lock()
					abnormal = true
					creditMu.Unlock()
				}
				return
			}
			delta := int64(binary.LittleEndian.Uint32(buf[:]))
			creditMu.Lock()
			credit += delta
			granted := int(delta)
			if granted > len(unacked) {
				granted = len(unacked)
			}
			retired := append([]*tensor.Batch(nil), unacked[:granted]...)
			unacked = append(unacked[:0], unacked[granted:]...)
			creditMu.Unlock()
			track(-granted)
			// A grant is the client's irrevocable consumption receipt;
			// it drives the worker's deferred split completion.
			ackAll(src, retired)
			select {
			case creditCh <- struct{}{}:
			default:
			}
		}
	}()

	// takeWindow empties the un-granted window and returns it.
	takeWindow := func() []*tensor.Batch {
		creditMu.Lock()
		batches := append([]*tensor.Batch(nil), unacked...)
		unacked = unacked[:0]
		creditMu.Unlock()
		track(-len(batches))
		return batches
	}
	// requeue returns the un-granted window to the source on an abnormal
	// break. Sources without UngetBatches keep the old lossy behaviour.
	requeue := func() {
		batches := takeWindow()
		if ug, ok := src.(ungetter); ok {
			ug.UngetBatches(batches)
		}
	}
	connGoneExit := func() {
		creditMu.Lock()
		ab := abnormal
		creditMu.Unlock()
		if ab {
			requeue()
			return
		}
		// Graceful half-close: the client keeps and consumes (or
		// rescues) the window, so the un-granted batches count as
		// consumed — the rescue path (StreamWorker.Drain) delivers them
		// through the orphan queue.
		ackAll(src, takeWindow())
	}

	frame := tensor.GetFrameBuf()
	defer func() { tensor.PutFrameBuf(frame) }()
	for {
		// Wait for credit.
		for {
			creditMu.Lock()
			have := credit > 0
			creditMu.Unlock()
			if have {
				break
			}
			select {
			case <-creditCh:
			case <-crashCh:
				// Fault injection: die like a killed process — sever
				// the conn, requeue nothing, ack nothing. The master's
				// ReapDead recovers the leases.
				takeWindow()
				return
			case <-connGone:
				connGoneExit()
				return
			}
		}
		// Wait for a batch. The source only exposes a non-blocking pop,
		// so an empty-but-live buffer is polled at a period well under
		// any batch production time.
		var b *tensor.Batch
		for b == nil {
			bb, ok, done := src.TryGetBatch()
			if ok {
				b = bb
				break
			}
			if done {
				var hdr [5]byte
				hdr[0] = frameKindDone
				conn.Write(hdr[:])
				// The remaining window belongs to the client now.
				ackAll(src, takeWindow())
				return
			}
			select {
			case <-crashCh:
				takeWindow()
				return
			case <-connGone:
				connGoneExit()
				return
			case <-time.After(200 * time.Microsecond):
			}
		}
		// Enter the batch into the un-granted window BEFORE writing its
		// frame: a grant that races the write must retire the true FIFO
		// head, and a grant for this batch cannot arrive before the
		// client has read the frame.
		creditMu.Lock()
		credit--
		unacked = append(unacked, b)
		creditMu.Unlock()
		track(1)
		// One encode, one write: header, provenance tags, and payload
		// share the pooled buffer, so a batch costs a single syscall
		// and no garbage.
		frame = append(frame[:0], frameKindBatch, 0, 0, 0, 0)
		frame = binary.LittleEndian.AppendUint32(frame, uint32(b.Split))
		frame = binary.LittleEndian.AppendUint32(frame, uint32(b.Seq))
		frame = binary.LittleEndian.AppendUint32(frame, uint32(b.SeqCount))
		frame = b.AppendBinary(frame)
		binary.LittleEndian.PutUint32(frame[1:5], uint32(len(frame)-5))
		if _, err := conn.Write(frame); err != nil {
			// A write failure is an abnormal break: requeue the whole
			// un-granted window including this batch.
			requeue()
			return
		}
	}
}

// StreamWorker is the client half of a framed stream: a WorkerAPI whose
// FetchBatch pops from a local window of already-pushed batches instead
// of paying a round trip per batch.
type StreamWorker struct {
	conn    net.Conn
	batches chan *tensor.Batch

	// wmu serializes credit-grant writes from consumer goroutines.
	wmu sync.Mutex

	// readerDone closes when the read loop exits; err and done are set
	// before it closes and read only after it, so they need no lock.
	readerDone chan struct{}
	err        error
	done       bool

	closeOnce sync.Once
}

// DialWorkerFramed opens a framed stream to the session-less source a
// ServeBatchSource listener serves.
func DialWorkerFramed(addr string) (WorkerAPI, error) {
	return DialWorkerFramedSession(addr, "")
}

// DialWorkerFramedSession opens a framed stream to one session's
// pipeline on a (fleet) worker's shared data-plane listener. A failed
// handshake — the worker refuses the hello, hangs up, or stays silent
// past handshakeTimeout — closes the connection and returns an error.
func DialWorkerFramedSession(addr, session string) (WorkerAPI, error) {
	if len(session) > maxSessionIDLen {
		return nil, fmt.Errorf("dpp: session ID %q exceeds %d bytes", session, maxSessionIDLen)
	}
	conn, err := net.DialTimeout("tcp", addr, rpcDialTimeout)
	if err != nil {
		return nil, fmt.Errorf("dpp: dial worker %s: %w", addr, err)
	}
	s, err := openFramedStream(conn, session)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("dpp: worker %s session %q: %w", addr, session, err)
	}
	return s, nil
}

// openFramedStream runs the client half of the hello on conn and starts
// the stream's read loop.
func openFramedStream(conn net.Conn, session string) (*StreamWorker, error) {
	hello := make([]byte, 0, len(dataPlaneMagic)+6+len(session))
	hello = append(hello, dataPlaneMagic...)
	hello = append(hello, dataPlaneVersion)
	hello = binary.LittleEndian.AppendUint32(hello, defaultCreditWindow)
	hello = append(hello, byte(len(session)))
	hello = append(hello, session...)
	conn.SetDeadline(time.Now().Add(handshakeTimeout))
	if _, err := conn.Write(hello); err != nil {
		return nil, fmt.Errorf("framed hello: %w", err)
	}
	var shello [len(dataPlaneMagic) + 1]byte
	if _, err := io.ReadFull(conn, shello[:]); err != nil {
		return nil, fmt.Errorf("framed handshake refused: %w", err)
	}
	if string(shello[:len(dataPlaneMagic)]) != dataPlaneMagic || shello[len(dataPlaneMagic)] != dataPlaneVersion {
		return nil, fmt.Errorf("framed handshake: bad server hello %q", shello[:])
	}
	conn.SetDeadline(time.Time{})
	s := &StreamWorker{
		conn:       conn,
		batches:    make(chan *tensor.Batch, defaultCreditWindow),
		readerDone: make(chan struct{}),
	}
	go s.readLoop()
	return s, nil
}

// SessionWorkerDialer returns the WorkerDialer that opens framed
// streams to one session's pipelines. mode must be DataPlaneFramed, the
// only wire encoding; any other mode is an error.
func SessionWorkerDialer(mode, session string) (WorkerDialer, error) {
	if mode != DataPlaneFramed {
		return nil, fmt.Errorf("dpp: unknown data plane %q (want %s)", mode, DataPlaneFramed)
	}
	return func(ep WorkerEndpoint) (WorkerAPI, error) {
		return DialWorkerFramedSession(ep.Endpoint, session)
	}, nil
}

// readLoop receives frames into the local window. The channel's
// capacity equals the credit window and the server never exceeds
// ungranted credit, so the send can never block.
func (s *StreamWorker) readLoop() {
	defer close(s.readerDone)
	r := bufio.NewReader(s.conn)
	var hdr [5]byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			// EOF before a done frame is an error unless we closed the
			// connection ourselves; Close suppresses it via closeOnce.
			s.err = err
			return
		}
		kind, n := hdr[0], binary.LittleEndian.Uint32(hdr[1:5])
		switch kind {
		case frameKindDone:
			s.done = true
			return
		case frameKindBatch:
			if n < batchTagLen {
				s.err = fmt.Errorf("dpp: framed stream: short batch frame (%d bytes)", n)
				return
			}
			if n > maxBatchFrameLen {
				s.err = fmt.Errorf("dpp: framed stream: batch frame of %d bytes exceeds %d", n, maxBatchFrameLen)
				return
			}
			buf := tensor.GetFrameBuf()
			if cap(buf) < int(n) {
				buf = make([]byte, n)
			}
			buf = buf[:n]
			if _, err := io.ReadFull(r, buf); err != nil {
				tensor.PutFrameBuf(buf)
				s.err = err
				return
			}
			split := int32(binary.LittleEndian.Uint32(buf[0:4]))
			seq := int32(binary.LittleEndian.Uint32(buf[4:8]))
			seqCount := int32(binary.LittleEndian.Uint32(buf[8:12]))
			b, _, err := tensor.DecodeBinary(buf[batchTagLen:])
			tensor.PutFrameBuf(buf)
			if err != nil {
				s.err = err
				return
			}
			b.Split, b.Seq, b.SeqCount = split, seq, seqCount
			s.batches <- b
		default:
			s.err = fmt.Errorf("dpp: framed stream: unknown frame kind %d", kind)
			return
		}
	}
}

// grant returns n credits to the worker. Write errors are ignored: a
// broken connection surfaces on the read side, which is where the
// client's error handling already lives.
func (s *StreamWorker) grant(n uint32) {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], n)
	s.wmu.Lock()
	s.conn.SetWriteDeadline(time.Now().Add(handshakeTimeout))
	s.conn.Write(buf[:])
	s.conn.SetWriteDeadline(time.Time{})
	s.wmu.Unlock()
}

// FetchBatch implements WorkerAPI: it pops one batch from the stream's
// local window (granting a replacement credit) without blocking.
// ok=false with done=false means no frame has arrived yet; done=true
// means the worker sent its end-of-stream marker and the window is
// empty.
func (s *StreamWorker) FetchBatch() (*tensor.Batch, bool, bool, error) {
	select {
	case b := <-s.batches:
		s.grant(1)
		return b, true, false, nil
	default:
	}
	select {
	case b := <-s.batches:
		s.grant(1)
		return b, true, false, nil
	case <-s.readerDone:
		// Serve frames that arrived before the stream ended.
		select {
		case b := <-s.batches:
			return b, true, false, nil
		default:
		}
		if s.done {
			return nil, false, true, nil
		}
		return nil, false, false, s.err
	default:
		return nil, false, false, nil
	}
}

// Drain rescues every batch the stream has already received but the
// trainer has not consumed, for hand-off when the client drops this
// connection (a drained worker leaving the membership, or a rebalance).
// It half-closes the connection so the worker stops after its in-flight
// credit, waits for the stream to quiesce, and returns the window's
// contents — the batches a unary transport would never have prefetched
// and therefore could not lose. A stream that ended with an abnormal
// error (reset, truncated frame) returns nil instead: the worker
// requeued the un-granted window on its side, so keeping the local copy
// would deliver those batches twice.
func (s *StreamWorker) Drain() []*tensor.Batch {
	if tc, ok := s.conn.(*net.TCPConn); ok {
		tc.CloseWrite()
	}
	var out []*tensor.Batch
	deadline := time.After(2 * time.Second)
collect:
	for {
		select {
		case b := <-s.batches:
			out = append(out, b)
		case <-s.readerDone:
			for {
				select {
				case b := <-s.batches:
					out = append(out, b)
				default:
					break collect
				}
			}
		case <-deadline:
			break collect
		}
	}
	if quiesced := isClosed(s.readerDone); quiesced && !s.done && s.err != nil && !errors.Is(s.err, io.EOF) {
		for _, b := range out {
			b.Release()
		}
		return nil
	}
	return out
}

// isClosed reports whether ch has been closed (non-blocking).
func isClosed(ch chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// Close tears the stream down. Batches still in the window are
// discarded; use Drain first to keep them.
func (s *StreamWorker) Close() error {
	var err error
	s.closeOnce.Do(func() { err = s.conn.Close() })
	return err
}

var _ WorkerAPI = (*StreamWorker)(nil)
