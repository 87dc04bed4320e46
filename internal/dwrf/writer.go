package dwrf

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"sort"
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
	// enc holds the stripe encoder's scratch buffers; one per writer so
	// steady-state stream encoding is allocation-free.
	enc stripeEncoder
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

// appendStream compresses with zw, encrypts and appends one stream,
// recording its metadata.
func (w *Writer) appendStream(zw *flate.Writer, meta *StripeMeta, kind streamKind, feature schema.FeatureID, enc StreamEncoding, payload []byte) error {
	comp, err := compress(zw, payload)
	if err != nil {
		return err
	}
	// Fold the compressed (pre-encryption) bytes into the stripe's
	// content hash: encryption IVs depend on file offsets, so hashing
	// before the crypt pass keeps the digest a pure function of content.
	meta.ContentHash = fnvMix(meta.ContentHash, comp)
	if err := cryptStream(comp, w.offset); err != nil {
		return err
	}
	if err := w.append(comp); err != nil {
		return err
	}
	meta.Streams = append(meta.Streams, StreamMeta{
		Kind:      kind,
		Feature:   feature,
		Offset:    w.offset,
		Length:    int64(len(comp)),
		RawLength: int64(len(payload)),
		Encoding:  enc,
	})
	w.offset += int64(len(comp))
	return nil
}

// flushStripe encodes and persists the pending rows as one stripe.
func (w *Writer) flushStripe() error {
	rows := w.pending
	w.pending = nil
	if len(rows) == 0 {
		return nil
	}
	meta := StripeMeta{Offset: w.offset, Rows: len(rows)}
	// One compressor serves every stream of this stripe and is dropped
	// when the flush returns: a writer-lifetime one would pin ~1 MiB per
	// open partition between stripes, and a shared pool would keep its
	// writers alive across GCs.
	zw, err := flate.NewWriter(nil, flate.BestSpeed)
	if err != nil {
		return fmt.Errorf("dwrf: flate: %w", err)
	}

	if !w.opts.Flatten {
		if err := w.appendStream(zw, &meta, streamRowData, 0, EncPlain, w.enc.encodeRowData(rows)); err != nil {
			return err
		}
	} else {
		if err := w.appendStream(zw, &meta, streamLabel, 0, EncPlain, w.enc.encodeLabels(rows)); err != nil {
			return err
		}
		for _, id := range w.streamLayout(rows) {
			col, ok := w.schema.Column(id)
			if !ok {
				return fmt.Errorf("dwrf: sample has feature %d absent from schema %s", id, w.schema.Name)
			}
			var payload []byte
			var enc StreamEncoding
			var kind streamKind
			switch col.Kind {
			case schema.Dense:
				payload, enc = w.enc.encodeDense(rows, id, w.opts.PlainEncodings)
				kind = streamDense
			case schema.Sparse:
				payload, enc = w.enc.encodeSparse(rows, id, w.opts.PlainEncodings)
				kind = streamSparse
			case schema.ScoreList:
				payload, enc = w.enc.encodeScoreList(rows, id, w.opts.PlainEncodings)
				kind = streamScoreList
			default:
				return fmt.Errorf("dwrf: unknown feature kind %v", col.Kind)
			}
			if err := w.appendStream(zw, &meta, kind, id, enc, payload); err != nil {
				return err
			}
		}
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
