package dwrf

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dsi/internal/schema"
	"dsi/internal/tectonic"
)

// WriterOptions configures file layout.
type WriterOptions struct {
	// Flatten enables feature flattening (FF): one stream per feature ID
	// instead of whole-row streams.
	Flatten bool
	// RowsPerStripe sets the stripe size in rows. The paper's "large
	// stripes" (LS) optimization raises this so each feature stream —
	// and hence each read I/O — grows. Defaults to 512.
	RowsPerStripe int
	// StreamOrder, when non-nil, ranks feature IDs by popularity; the
	// writer lays streams out in this order within each stripe (feature
	// reordering, FR). Features absent from the ranking sort after ranked
	// ones, by ID. When nil, streams are laid out in a hash-scrambled
	// order, mirroring the effectively random order the paper describes
	// for un-reordered data generation.
	StreamOrder []schema.FeatureID
	// PlainEncodings forces EncPlain for every stream, producing stream
	// payloads byte-identical to format v1 (same compressed bytes, same
	// StripeMeta.ContentHash). Benchmarks use it to compare encodings on
	// identical data; the default lets the writer pick per stream.
	PlainEncodings bool
}

func (o *WriterOptions) fill() {
	if o.RowsPerStripe == 0 {
		o.RowsPerStripe = 512
	}
}

// WriteStats aggregates the write-side recovery work a writer's appends
// performed: retried attempts, token-ledger dedups of torn acks, torn
// repairs that resumed a partial payload, and the virtual backoff paid
// between attempts. All zero on a fault-free cluster.
type WriteStats struct {
	Retries     int64
	DedupHits   int64
	TornRepairs int64
	Backoff     time.Duration
}

// Merge folds another stats snapshot into s.
func (s *WriteStats) Merge(o WriteStats) {
	s.Retries += o.Retries
	s.DedupHits += o.DedupHits
	s.TornRepairs += o.TornRepairs
	s.Backoff += o.Backoff
}

// Writer encodes samples into a DWRF file inside a Tectonic cluster.
type Writer struct {
	cluster *tectonic.Cluster
	path    string
	schema  *schema.TableSchema
	opts    WriterOptions

	pending []*schema.Sample
	offset  int64
	footer  FileFooter
	closed  bool
	stats   WriteStats
	// lanes encode and compress a stripe's streams in parallel; built
	// at the first flush that needs them and dropped by Close.
	lanes []*encodeLane
}

// append routes one physical append through the cluster's idempotent
// tokened write path. The token "path@offset" is unique per logical
// append of this file's life, so a retry after a torn ack resumes or
// dedups instead of corrupting the layout with duplicate bytes.
func (w *Writer) append(data []byte) error {
	trace, err := w.cluster.AppendToken(w.path, fmt.Sprintf("%s@%d", w.path, w.offset), data)
	w.stats.Merge(WriteStats{
		Retries:     trace.Retries,
		DedupHits:   trace.Dedups,
		TornRepairs: trace.TornRepairs,
		Backoff:     trace.Backoff,
	})
	return err
}

// WriteStats reports the cumulative recovery work behind this writer's
// appends so far.
func (w *Writer) WriteStats() WriteStats { return w.stats }

// NewWriter creates the backing file and returns a writer. The file is
// created immediately; Close must be called to persist the footer.
func NewWriter(cluster *tectonic.Cluster, path string, ts *schema.TableSchema, opts WriterOptions) (*Writer, error) {
	opts.fill()
	if err := cluster.Create(path); err != nil {
		return nil, err
	}
	w := &Writer{
		cluster: cluster,
		path:    path,
		schema:  ts,
		opts:    opts,
		footer: FileFooter{
			Flattened: opts.Flatten,
			Columns:   append([]schema.Column(nil), ts.Columns...),
			Version:   Version,
		},
	}
	header := append([]byte(Magic), 0, 0, 0, Version)
	if err := w.append(header); err != nil {
		return nil, err
	}
	w.offset = int64(len(header))
	return w, nil
}

// WriteRow buffers one sample, flushing a stripe when full.
func (w *Writer) WriteRow(s *schema.Sample) error {
	if w.closed {
		return fmt.Errorf("dwrf: write to closed writer for %s", w.path)
	}
	w.pending = append(w.pending, s)
	w.footer.Rows++
	if len(w.pending) >= w.opts.RowsPerStripe {
		return w.flushStripe()
	}
	return nil
}

// streamLayout returns the feature IDs present in the stripe in their
// on-disk order.
func (w *Writer) streamLayout(rows []*schema.Sample) []schema.FeatureID {
	present := make(map[schema.FeatureID]bool)
	for _, r := range rows {
		for id := range r.DenseFeatures {
			present[id] = true
		}
		for id := range r.SparseFeatures {
			present[id] = true
		}
		for id := range r.ScoreListFeatures {
			present[id] = true
		}
	}
	ids := make([]schema.FeatureID, 0, len(present))
	for id := range present {
		ids = append(ids, id)
	}

	if w.opts.StreamOrder != nil {
		rank := make(map[schema.FeatureID]int, len(w.opts.StreamOrder))
		for i, id := range w.opts.StreamOrder {
			rank[id] = i
		}
		sort.Slice(ids, func(i, j int) bool {
			ri, iok := rank[ids[i]]
			rj, jok := rank[ids[j]]
			switch {
			case iok && jok:
				return ri < rj
			case iok:
				return true
			case jok:
				return false
			default:
				return ids[i] < ids[j]
			}
		})
		return ids
	}

	// Hash-scrambled order: deterministic but uncorrelated with feature
	// popularity, standing in for the random stream order of the paper's
	// unoptimized data generation path.
	sort.Slice(ids, func(i, j int) bool {
		return scramble(ids[i]) < scramble(ids[j])
	})
	return ids
}

// scramble is a cheap integer hash (xorshift-multiply).
func scramble(id schema.FeatureID) uint32 {
	x := uint32(id)
	x ^= x >> 16
	x *= 0x7feb352d
	x ^= x >> 15
	x *= 0x846ca68b
	x ^= x >> 16
	return x
}

// laneCells is the stripe work, in rows x streams, that pays for one
// more encode lane (and its ~1.2 MiB compressor). An RM1 128-row stripe
// (~140 streams) gets up to 3 lanes; a 32-row, 29-stream stripe gets 1.
const laneCells = 8192

// encodeLane encodes and compresses streams of a stripe flush. A writer
// keeps its lanes, with their compressors and scratch buffers, from its
// first flush until Close, so a partition of many stripes builds each
// compressor once.
type encodeLane struct {
	enc stripeEncoder
	zw  *flate.Writer
}

// stripeStream is one stream of a stripe flush: listed serially in
// on-disk order, then encoded and compressed by whichever lane takes it.
type stripeStream struct {
	kind    streamKind
	feature schema.FeatureID

	comp   []byte // compressed, not yet encrypted
	rawLen int64
	enc    StreamEncoding
	err    error
}

// encode fills s from the stripe's rows with this lane's encoder and
// compressor.
func (l *encodeLane) encode(rows []*schema.Sample, s *stripeStream, plainOnly bool) {
	var payload []byte
	s.enc = EncPlain
	switch s.kind {
	case streamRowData:
		payload = l.enc.encodeRowData(rows)
	case streamLabel:
		payload = l.enc.encodeLabels(rows)
	case streamDense:
		payload, s.enc = l.enc.encodeDense(rows, s.feature, plainOnly)
	case streamSparse:
		payload, s.enc = l.enc.encodeSparse(rows, s.feature, plainOnly)
	case streamScoreList:
		payload, s.enc = l.enc.encodeScoreList(rows, s.feature, plainOnly)
	}
	s.rawLen = int64(len(payload))
	s.comp, s.err = compress(l.zw, payload)
}

// listStreams returns the stripe's streams in on-disk order: the label
// (or row-data) stream, then the features in streamLayout order.
func (w *Writer) listStreams(rows []*schema.Sample) ([]stripeStream, error) {
	if !w.opts.Flatten {
		return []stripeStream{{kind: streamRowData}}, nil
	}
	ids := w.streamLayout(rows)
	streams := make([]stripeStream, 0, 1+len(ids))
	streams = append(streams, stripeStream{kind: streamLabel})
	for _, id := range ids {
		col, ok := w.schema.Column(id)
		if !ok {
			return nil, fmt.Errorf("dwrf: sample has feature %d absent from schema %s", id, w.schema.Name)
		}
		var kind streamKind
		switch col.Kind {
		case schema.Dense:
			kind = streamDense
		case schema.Sparse:
			kind = streamSparse
		case schema.ScoreList:
			kind = streamScoreList
		default:
			return nil, fmt.Errorf("dwrf: unknown feature kind %v", col.Kind)
		}
		streams = append(streams, stripeStream{kind: kind, feature: id})
	}
	return streams, nil
}

// encodeStreams encodes and compresses every stream on up to
// min(GOMAXPROCS, 1 + rows*streams/laneCells) lanes. Lane 0 runs on
// the calling goroutine; each lane takes the next stream index from a
// shared counter. Every lane goroutine is joined before it returns.
func (w *Writer) encodeStreams(rows []*schema.Sample, streams []stripeStream) error {
	n := min(runtime.GOMAXPROCS(0), 1+len(rows)*len(streams)/laneCells, len(streams))
	for len(w.lanes) < n {
		zw, err := flate.NewWriter(nil, flate.BestSpeed)
		if err != nil {
			return fmt.Errorf("dwrf: flate: %w", err)
		}
		w.lanes = append(w.lanes, &encodeLane{zw: zw})
	}
	var next atomic.Int64
	run := func(l *encodeLane) {
		for i := next.Add(1) - 1; i < int64(len(streams)); i = next.Add(1) - 1 {
			l.encode(rows, &streams[i], w.opts.PlainEncodings)
		}
	}
	var wg sync.WaitGroup
	for _, l := range w.lanes[1:n] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(l)
		}()
	}
	run(w.lanes[0])
	wg.Wait()
	for i := range streams {
		if err := streams[i].err; err != nil {
			return err
		}
	}
	return nil
}

// flushStripe encodes and persists the pending rows as one stripe. The
// lanes only encode and compress; the content hash, encryption (whose IV
// is the stream's file offset) and the tokened appends run here in
// on-disk order, so the file is the same whatever the lane count.
func (w *Writer) flushStripe() error {
	rows := w.pending
	w.pending = nil
	if len(rows) == 0 {
		return nil
	}
	streams, err := w.listStreams(rows)
	if err != nil {
		return err
	}
	if err := w.encodeStreams(rows, streams); err != nil {
		return err
	}
	meta := StripeMeta{Offset: w.offset, Rows: len(rows), Streams: make([]StreamMeta, 0, len(streams))}
	for _, s := range streams {
		// Fold the compressed (pre-encryption) bytes into the stripe's
		// content hash: encryption IVs depend on file offsets, so
		// hashing before the crypt pass keeps the digest a pure
		// function of content.
		meta.ContentHash = fnvMix(meta.ContentHash, s.comp)
		if err := cryptStream(s.comp, w.offset); err != nil {
			return err
		}
		if err := w.append(s.comp); err != nil {
			return err
		}
		meta.Streams = append(meta.Streams, StreamMeta{
			Kind:      s.kind,
			Feature:   s.feature,
			Offset:    w.offset,
			Length:    int64(len(s.comp)),
			RawLength: s.rawLen,
			Encoding:  s.enc,
		})
		w.offset += int64(len(s.comp))
	}
	meta.Length = w.offset - meta.Offset
	w.footer.Stripes = append(w.footer.Stripes, meta)
	return nil
}

// Close flushes the final stripe, writes the footer, and seals the file.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	defer func() { w.lanes = nil }()
	if err := w.flushStripe(); err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&w.footer); err != nil {
		return fmt.Errorf("dwrf: encode footer: %w", err)
	}
	footerLen := make([]byte, 8)
	binary.LittleEndian.PutUint64(footerLen, uint64(buf.Len()))
	tail := append(buf.Bytes(), footerLen...)
	tail = append(tail, []byte(Magic)...)
	if err := w.append(tail); err != nil {
		return err
	}
	if err := w.cluster.Seal(w.path); err != nil {
		return err
	}
	w.closed = true
	return nil
}
