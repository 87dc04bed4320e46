package dwrf

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dsi/internal/schema"
	"dsi/internal/tectonic"
)

// ReadOptions configures the read path.
type ReadOptions struct {
	// CoalesceBytes enables coalesced reads (CR): adjacent selected
	// streams separated by at most this many unwanted bytes are fetched
	// in one I/O, trading over-read for fewer seeks. The paper uses
	// 1.25 MiB. Zero disables coalescing (one I/O per stream).
	CoalesceBytes int64
	// Flatmap decodes into the columnar in-memory Batch (FM) instead of
	// row maps, avoiding per-row map materialization.
	Flatmap bool
}

// DefaultCoalesceBytes is the paper's coalesced-read window (§7.5).
const DefaultCoalesceBytes = 1310720 // 1.25 MiB

// ReadStats accounts the storage and decode work of a read, feeding the
// Table 6 / Table 12 measurements.
type ReadStats struct {
	IOs            int
	BytesRead      int64 // bytes fetched from storage
	BytesWanted    int64 // bytes belonging to selected streams
	BytesOverRead  int64 // fetched but not selected
	BytesDecoded   int64 // raw payload bytes decoded (post-decompress)
	StorageTime    time.Duration
	StreamsDecoded int
	// FetchWall and DecodeWall split the real (wall-clock) time of the
	// read between waiting on storage and decrypt/decompress/decode work,
	// feeding the worker pipeline's per-stage busy breakdown.
	FetchWall  time.Duration
	DecodeWall time.Duration

	// Recovery accounting from the self-healing read path: storage-level
	// retries/failovers/hedges (from tectonic's ReadTrace), plus
	// stripe-level corruption handling — attempts that failed content
	// verification and replicas newly quarantined because of them. These
	// ride ResourceReport/WorkerStats into fleet heartbeats.
	Retries        int64
	Failovers      int64
	HedgedReads    int64
	HedgeWins      int64
	CorruptStripes int64
	Quarantines    int64
}

// Merge accumulates other into s; callers aggregating per-stripe stats
// across a scan (e.g. warehouse partition scans) use it.
func (s *ReadStats) Merge(other ReadStats) { s.add(other) }

// add merges other into s.
func (s *ReadStats) add(other ReadStats) {
	s.IOs += other.IOs
	s.BytesRead += other.BytesRead
	s.BytesWanted += other.BytesWanted
	s.BytesOverRead += other.BytesOverRead
	s.BytesDecoded += other.BytesDecoded
	if other.StorageTime > s.StorageTime {
		s.StorageTime = other.StorageTime
	}
	s.StreamsDecoded += other.StreamsDecoded
	s.FetchWall += other.FetchWall
	s.DecodeWall += other.DecodeWall
	s.Retries += other.Retries
	s.Failovers += other.Failovers
	s.HedgedReads += other.HedgedReads
	s.HedgeWins += other.HedgeWins
	s.CorruptStripes += other.CorruptStripes
	s.Quarantines += other.Quarantines
}

// Batch is the in-memory flatmap representation (FM): per-feature
// columnar arrays over a stripe's rows, matching both the on-disk DWRF
// layout and the downstream tensor layout so extraction avoids
// row-oriented map materialization (§7.5).
type Batch struct {
	Rows   int
	Labels []float32
	// Dense maps feature ID -> (present bitmap, values). Values align
	// with row indices; Missing rows hold 0 with Present=false.
	Dense map[schema.FeatureID]*DenseColumn
	// Sparse maps feature ID -> ragged values.
	Sparse map[schema.FeatureID]*SparseColumn
	// ScoreList maps feature ID -> ragged scored values.
	ScoreList map[schema.FeatureID]*ScoreListColumn

	// arena, when non-nil, owns the batch's columns; Release returns
	// them (see Arena). Unexported so struct literals and gob leave it
	// nil and Release stays a no-op for ordinary batches.
	arena *Arena

	// refs is the shared-ownership reference count. Zero means the batch
	// is exclusively owned (the pre-sharing lifecycle: one owner, one
	// Release). Share transitions the batch to counted mode with one
	// reference; Retain adds one; Release in counted mode decrements and
	// frees only when the count hits zero. See Arena's ownership rules.
	refs atomic.Int32
	// parent, for a Derive view, is the shared batch whose columns this
	// view borrows; freeing the view releases one reference on it.
	parent *Batch
	// borrowed marks the columns a Derive view aliases from its parent;
	// they are skipped when the view's own columns return to the arena.
	borrowed *borrowSet
}

// borrowSet records which of a derived batch's columns belong to its
// parent (identity sets, since transforms may replace map entries).
type borrowSet struct {
	dense  map[*DenseColumn]bool
	sparse map[*SparseColumn]bool
	score  map[*ScoreListColumn]bool
	labels bool
}

// DenseColumn is one dense feature across a batch's rows.
type DenseColumn struct {
	Present []bool
	Values  []float32
}

// SparseColumn is one sparse feature across a batch's rows.
type SparseColumn struct {
	// Offsets has Rows+1 entries; row i's values are
	// Values[Offsets[i]:Offsets[i+1]].
	Offsets []int32
	Values  []int64
	// Dict, when non-empty, marks the dictionary-indexed representation:
	// Values holds indices into Dict (every index < len(Dict)) and Dict
	// holds the column's sorted distinct values. Dictionary-encoded
	// streams decode into this form so downstream kernels can transform
	// each DISTINCT value once per stripe; kernels that need raw values
	// materialize via MaterializedValues. An empty Dict means Values are
	// the feature values themselves (the plain representation).
	Dict []int64
}

// IsDict reports whether the column is dictionary-indexed.
func (c *SparseColumn) IsDict() bool { return len(c.Dict) > 0 }

// RowValues returns row i's stored values (possibly empty). For a
// dictionary-indexed column these are dictionary INDICES, not feature
// values — length-only consumers may use them directly; value consumers
// go through MaterializedValues.
func (c *SparseColumn) RowValues(i int) []int64 {
	return c.Values[c.Offsets[i]:c.Offsets[i+1]]
}

// MaterializedValues returns the column's decoded feature values,
// aligned with Offsets: Values itself for a plain column (no copy), or
// dst — grown as needed — filled through the dictionary. Callers that
// materialize repeatedly pass the previous return as dst to recycle it.
func (c *SparseColumn) MaterializedValues(dst []int64) []int64 {
	if len(c.Dict) == 0 {
		return c.Values
	}
	if cap(dst) < len(c.Values) {
		dst = make([]int64, len(c.Values))
	}
	dst = dst[:len(c.Values)]
	for i, idx := range c.Values {
		dst[i] = c.Dict[idx]
	}
	return dst
}

// ScoreListColumn is one score-list feature across a batch's rows.
type ScoreListColumn struct {
	Offsets []int32
	Values  []schema.ScoredValue
}

// RowValues returns row i's scored values (possibly empty).
func (c *ScoreListColumn) RowValues(i int) []schema.ScoredValue {
	return c.Values[c.Offsets[i]:c.Offsets[i+1]]
}

// MemBytes estimates the batch's resident column bytes (labels, dense
// bitmap+values, CSR offsets+values). The fleet cache weighs entries by
// it; a Derive view reports the same size as its parent since it aliases
// the same columns.
func (b *Batch) MemBytes() int64 {
	total := int64(len(b.Labels)) * 4
	for _, c := range b.Dense {
		total += int64(len(c.Present)) + int64(len(c.Values))*4
	}
	for _, c := range b.Sparse {
		total += int64(len(c.Offsets))*4 + int64(len(c.Values))*8 + int64(len(c.Dict))*8
	}
	for _, c := range b.ScoreList {
		total += int64(len(c.Offsets))*4 + int64(len(c.Values))*12
	}
	return total
}

// newBatch allocates an empty batch for rows rows.
func newBatch(rows int) *Batch {
	return &Batch{
		Rows:      rows,
		Dense:     make(map[schema.FeatureID]*DenseColumn),
		Sparse:    make(map[schema.FeatureID]*SparseColumn),
		ScoreList: make(map[schema.FeatureID]*ScoreListColumn),
	}
}

// Reader reads a DWRF file from a Tectonic cluster.
type Reader struct {
	cluster *tectonic.Cluster
	path    string
	footer  FileFooter

	// pending is recovery accounting not yet reported: the footer
	// fetch's own work (retries, hedges, quarantines planted while
	// healing a corrupt footer), plus any a discarded duplicate open
	// handed over (AbsorbOpenStats). The next stripe fetch drains it —
	// OpenReader has no stats return of its own, and the footer read is
	// as much a part of the self-healing read path as any stripe read.
	pendingMu sync.Mutex
	pending   ReadStats
}

// takePending returns and clears the unreported recovery accounting.
func (r *Reader) takePending() ReadStats {
	r.pendingMu.Lock()
	defer r.pendingMu.Unlock()
	s := r.pending
	r.pending = ReadStats{}
	return s
}

// AbsorbOpenStats moves dup's unreported accounting onto r. A caller
// that opened dup concurrently with r and keeps only r calls it so the
// recovery work dup's footer fetch performed is still reported.
func (r *Reader) AbsorbOpenStats(dup *Reader) {
	if dup == r {
		return
	}
	s := dup.takePending()
	r.pendingMu.Lock()
	r.pending.add(s)
	r.pendingMu.Unlock()
}

// OpenReader fetches and parses the file footer. The footer carries no
// checksum of its own, so structural failures — clobbered magic, a
// footer length that lies, gob that no longer decodes — are treated as
// replica corruption: the serving replicas are quarantined and the
// footer is refetched from others, exactly like a stripe whose content
// hash disagrees. Only when every replica returns an unparsable footer
// (or the file is equally malformed on all of them) does Open fail.
func OpenReader(cluster *tectonic.Cluster, path string) (*Reader, error) {
	size, err := cluster.Size(path)
	if err != nil {
		return nil, err
	}
	attempts := cluster.Replication() + 1
	var open ReadStats
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		r, served, s, err := openReaderAttempt(cluster, path, size)
		open.add(s)
		if err == nil {
			r.pending = open
			return r, nil
		}
		lastErr = err
		switch {
		case errors.Is(err, tectonic.ErrCorrupt):
			fresh := false
			for _, sv := range served {
				if cluster.Quarantine(path, sv.Chunk, sv.Node) {
					fresh = true
					open.Quarantines++
				}
			}
			if fresh {
				continue
			}
			lastErr = fmt.Errorf("dwrf: %s: footer unreadable from every replica: %w", path, err)
		case tectonic.IsRetryable(err):
			continue
		}
		break
	}
	return nil, lastErr
}

// openReaderAttempt is one footer fetch-and-parse pass, returning the
// replica provenance of the bytes it judged and the recovery work the
// underlying reads performed.
func openReaderAttempt(cluster *tectonic.Cluster, path string, size int64) (*Reader, []tectonic.ReplicaServe, ReadStats, error) {
	var stats ReadStats
	account := func(tr tectonic.ReadTrace) {
		stats.Retries += tr.Retries
		stats.Failovers += tr.Failovers
		stats.HedgedReads += tr.Hedges
		stats.HedgeWins += tr.HedgeWins
	}
	tailLen := int64(8 + len(Magic))
	if size < tailLen {
		return nil, nil, stats, fmt.Errorf("dwrf: %s too short (%d bytes)", path, size)
	}
	tail, _, tr, err := cluster.ReadAtTraced(path, size-tailLen, tailLen)
	account(tr)
	served := tr.Served
	if err != nil {
		return nil, served, stats, err
	}
	if string(tail[8:]) != Magic {
		return nil, served, stats, fmt.Errorf("dwrf: %s missing trailing magic: %w", path, tectonic.ErrCorrupt)
	}
	footerLen := int64(binary.LittleEndian.Uint64(tail[:8]))
	if footerLen <= 0 || footerLen > size-tailLen {
		return nil, served, stats, fmt.Errorf("dwrf: %s has invalid footer length %d: %w", path, footerLen, tectonic.ErrCorrupt)
	}
	footerBytes, _, ftr, err := cluster.ReadAtTraced(path, size-tailLen-footerLen, footerLen)
	account(ftr)
	served = append(served, ftr.Served...)
	if err != nil {
		return nil, served, stats, err
	}
	var footer FileFooter
	if err := gob.NewDecoder(bytes.NewReader(footerBytes)).Decode(&footer); err != nil {
		return nil, served, stats, fmt.Errorf("dwrf: decode footer of %s: %v: %w", path, err, tectonic.ErrCorrupt)
	}
	if footer.Version > Version {
		return nil, served, stats, fmt.Errorf("dwrf: %s written by format v%d, reader supports up to v%d", path, footer.Version, Version)
	}
	return &Reader{cluster: cluster, path: path, footer: footer}, served, stats, nil
}

// Version reports the format version the file was written with (v1
// files predate the footer field and report 1).
func (r *Reader) Version() int {
	if r.footer.Version == 0 {
		return 1
	}
	return r.footer.Version
}

// Rows reports the total row count.
func (r *Reader) Rows() int { return r.footer.Rows }

// Stripes reports the stripe count.
func (r *Reader) Stripes() int { return len(r.footer.Stripes) }

// Flattened reports whether the file uses the feature-flattened layout.
func (r *Reader) Flattened() bool { return r.footer.Flattened }

// Columns returns the schema columns recorded in the footer.
func (r *Reader) Columns() []schema.Column { return r.footer.Columns }

// StripeRows reports the row count of stripe i.
func (r *Reader) StripeRows(i int) int { return r.footer.Stripes[i].Rows }

// StripeContentHash reports stripe i's content digest (FNV-1a over its
// compressed stream payloads, recorded at write time). Zero for files
// written before the field existed; content-addressed callers fall back
// to path+stripe identity then.
func (r *Reader) StripeContentHash(i int) uint64 { return r.footer.Stripes[i].ContentHash }

// DataBytes reports the total stored stream bytes (excluding header and
// footer).
func (r *Reader) DataBytes() int64 {
	var total int64
	for _, st := range r.footer.Stripes {
		total += st.Length
	}
	return total
}

// FeatureBytes reports stored (compressed) bytes per feature ID across all
// stripes, the per-column storage footprint used by the Table 5 and
// Figure 7 analyses. Label and row-data streams are reported under
// feature ID 0.
func (r *Reader) FeatureBytes() map[schema.FeatureID]int64 {
	out := make(map[schema.FeatureID]int64)
	for _, st := range r.footer.Stripes {
		for _, s := range st.Streams {
			out[s.Feature] += s.Length
		}
	}
	return out
}

// ProjectedBytes reports the stored bytes a projection selects (plus
// labels), without reading data. This answers Table 5's "% bytes used".
func (r *Reader) ProjectedBytes(proj *schema.Projection) int64 {
	var total int64
	for _, st := range r.footer.Stripes {
		for _, s := range st.Streams {
			if s.Kind == streamRowData || s.Kind == streamLabel || proj == nil || proj.Contains(s.Feature) {
				total += s.Length
			}
		}
	}
	return total
}

// selectStreams picks the streams of a stripe needed for the projection.
// The label stream (or the row-data stream for unflattened files) is
// always selected.
func (r *Reader) selectStreams(meta *StripeMeta, proj *schema.Projection) []StreamMeta {
	var out []StreamMeta
	for _, s := range meta.Streams {
		switch s.Kind {
		case streamRowData, streamLabel:
			out = append(out, s)
		default:
			if proj == nil || proj.Contains(s.Feature) {
				out = append(out, s)
			}
		}
	}
	return out
}

// ioPlan is one physical read covering one or more selected streams.
type ioPlan struct {
	offset, length int64
	streams        []StreamMeta
}

// planIO builds the physical read plan for the selected streams,
// coalescing per opts. Streams are already in on-disk (offset) order
// within a stripe except for the label stream which is first; sort
// defensively anyway.
func planIO(selected []StreamMeta, coalesce int64) []ioPlan {
	if len(selected) == 0 {
		return nil
	}
	ordered := append([]StreamMeta(nil), selected...)
	for i := 1; i < len(ordered); i++ {
		for j := i; j > 0 && ordered[j].Offset < ordered[j-1].Offset; j-- {
			ordered[j], ordered[j-1] = ordered[j-1], ordered[j]
		}
	}
	var plans []ioPlan
	cur := ioPlan{offset: ordered[0].Offset, length: ordered[0].Length, streams: []StreamMeta{ordered[0]}}
	for _, s := range ordered[1:] {
		gap := s.Offset - (cur.offset + cur.length)
		if gap >= 0 && gap <= coalesce {
			cur.length = s.Offset + s.Length - cur.offset
			cur.streams = append(cur.streams, s)
			continue
		}
		plans = append(plans, cur)
		cur = ioPlan{offset: s.Offset, length: s.Length, streams: []StreamMeta{s}}
	}
	return append(plans, cur)
}

// bufClassCaps are the capacity classes of the byte-buffer pools. A
// buffer returns to the smallest class its capacity fits; buffers over
// the largest class are dropped for the GC, so one jumbo stream can
// never pin an arbitrarily large buffer in a pool (the old single-pool
// design kept whatever the biggest stream ever seen allocated).
var bufClassCaps = [...]int64{4 << 10, 64 << 10, 1 << 20, 16 << 20}

// bufClass returns the index of the smallest class holding n bytes, or
// -1 when n exceeds every class (unpooled).
func bufClass(n int64) int {
	for i, c := range bufClassCaps {
		if n <= c {
			return i
		}
	}
	return -1
}

// bufPool is a set of capacity-classed *[]byte pools.
type bufPool struct {
	classes [len(bufClassCaps)]sync.Pool
}

// get returns a buffer of length n. The pooled buffer's capacity may
// trail n within its class, in which case it is reallocated (and will
// re-pool in the right class by its new capacity).
func (p *bufPool) get(n int64) *[]byte {
	var bp *[]byte
	if cls := bufClass(n); cls >= 0 {
		bp, _ = p.classes[cls].Get().(*[]byte)
	}
	if bp == nil {
		bp = new([]byte)
	}
	if int64(cap(*bp)) < n {
		*bp = make([]byte, n)
	}
	*bp = (*bp)[:n]
	return bp
}

// put recycles a buffer into the class its capacity fits.
func (p *bufPool) put(bp *[]byte) {
	if bp == nil {
		return
	}
	cls := bufClass(int64(cap(*bp)))
	if cls < 0 {
		return // jumbo: let the GC take it
	}
	p.classes[cls].Put(bp)
}

// encPool recycles the staging buffers holding each stream's encrypted,
// compressed bytes between fetch and decompression, so a stripe read
// costs no per-stream staging allocation.
var encPool bufPool

// payloadPool recycles decompressed stream payloads: the column
// decoders parse every value out of them, so once a stripe is decoded
// into a batch (or row samples) its payload buffers go straight back.
var payloadPool bufPool

// getPayloadBuf returns a pooled buffer of length n.
func getPayloadBuf(n int64) []byte {
	return *payloadPool.get(n)
}

// putPayloadBuf recycles one payload buffer.
func putPayloadBuf(b []byte) {
	if b == nil {
		return
	}
	payloadPool.put(&b)
}

// releasePayloads recycles every fetched stream payload of a stripe.
// Callers must have finished parsing: column and row decoders copy
// values out, never alias the payload bytes.
func releasePayloads(payloads map[int64][]byte) {
	for _, p := range payloads {
		putPayloadBuf(p)
	}
}

// getEncBuf returns a pooled buffer of length n.
func getEncBuf(n int64) *[]byte {
	return encPool.get(n)
}

// fetchStripe executes the I/O plan through the self-healing read path:
// each attempt fetches via the cluster's traced reads (which already
// fail over across replicas), verifies StripeMeta.ContentHash when the
// fetch covers every stream of the stripe, and on corruption — a hash
// mismatch, or a stream that no longer decompresses — quarantines the
// replicas that served the bytes and refetches from others. The stripe
// fails permanently only when no fresh replica remains, i.e. every
// replica disagrees with the recorded hash.
func (r *Reader) fetchStripe(meta *StripeMeta, proj *schema.Projection, opts ReadOptions) (map[int64][]byte, []StreamMeta, ReadStats, error) {
	// Footer-fetch recovery work reports through the next stripe read
	// so it reaches ResourceReport/WorkerStats like any other read.
	stats := r.takePending()
	attempts := r.cluster.Replication() + 1
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		payloads, selected, s, served, err := r.fetchStripeAttempt(meta, proj, opts)
		stats.add(s)
		if err == nil {
			return payloads, selected, stats, nil
		}
		lastErr = err
		switch {
		case errors.Is(err, tectonic.ErrCorrupt):
			stats.CorruptStripes++
			fresh := false
			for _, sv := range served {
				if r.cluster.Quarantine(r.path, sv.Chunk, sv.Node) {
					fresh = true
					stats.Quarantines++
				}
			}
			if fresh {
				continue
			}
			// Every replica that can serve this stripe is already
			// quarantined: the data is unrecoverable, not transient.
			lastErr = fmt.Errorf("dwrf: %s stripe@%d: every replica disagrees with the recorded content hash: %w", r.path, meta.Offset, err)
		case tectonic.IsRetryable(err):
			continue
		}
		break
	}
	return nil, nil, stats, lastErr
}

// fetchStripeAttempt is one fetch pass: execute the I/O plan, decrypt
// and decompress each selected stream, and verify the stripe content
// hash when the selection covers all streams (streams append in offset
// order at write time, so fetch order reproduces the writer's digest
// chaining). Storage reads go through the cluster's borrowed-slice path
// when the range is memory-resident in one chunk, and the decrypt pass
// writes straight from the (borrowed or copied) raw bytes into the
// staging buffer — no intermediate copy either way. Error paths release
// every payload already fetched; the stripe's buffers never leak on a
// partial fetch. The returned ReplicaServe list records which node
// served each chunk, the provenance quarantine needs.
func (r *Reader) fetchStripeAttempt(meta *StripeMeta, proj *schema.Projection, opts ReadOptions) (map[int64][]byte, []StreamMeta, ReadStats, []tectonic.ReplicaServe, error) {
	selected := r.selectStreams(meta, proj)
	plans := planIO(selected, opts.CoalesceBytes)
	var stats ReadStats
	var served []tectonic.ReplicaServe
	verifying := meta.ContentHash != 0 && len(selected) == len(meta.Streams)
	var hash uint64
	payloads := make(map[int64][]byte, len(selected))
	for _, p := range plans {
		fetchStart := time.Now()
		raw, _, t, tr, err := r.cluster.ReadAtBorrowTraced(r.path, p.offset, p.length)
		stats.FetchWall += time.Since(fetchStart)
		stats.Retries += tr.Retries
		stats.Failovers += tr.Failovers
		stats.HedgedReads += tr.Hedges
		stats.HedgeWins += tr.HedgeWins
		served = append(served, tr.Served...)
		if err != nil {
			releasePayloads(payloads)
			return nil, nil, stats, served, fmt.Errorf("dwrf: %s stripe@%d: fetch [%d,%d): %w", r.path, meta.Offset, p.offset, p.offset+p.length, err)
		}
		stats.IOs++
		stats.BytesRead += p.length
		if t > stats.StorageTime {
			stats.StorageTime = t
		}
		decodeStart := time.Now()
		for _, s := range p.streams {
			stats.BytesWanted += s.Length
			encBuf := getEncBuf(s.Length)
			enc := *encBuf
			if err := cryptStreamTo(enc, raw[s.Offset-p.offset:s.Offset-p.offset+s.Length], s.Offset); err != nil {
				encPool.put(encBuf)
				releasePayloads(payloads)
				return nil, nil, stats, served, fmt.Errorf("dwrf: %s stripe@%d stream at %d: %w", r.path, meta.Offset, s.Offset, err)
			}
			if verifying {
				hash = fnvMix(hash, enc)
			}
			dec, err := decompress(enc, s.RawLength)
			encPool.put(encBuf)
			if err != nil {
				releasePayloads(payloads)
				// A stream that no longer inflates is corrupt bytes, not
				// a format error: classify it so the caller quarantines
				// and retries another replica.
				return nil, nil, stats, served, fmt.Errorf("dwrf: %s stripe@%d stream at %d: %w: %v", r.path, meta.Offset, s.Offset, tectonic.ErrCorrupt, err)
			}
			stats.BytesDecoded += int64(len(dec))
			stats.StreamsDecoded++
			payloads[s.Offset] = dec
		}
		stats.DecodeWall += time.Since(decodeStart)
	}
	if verifying && hash != meta.ContentHash {
		releasePayloads(payloads)
		return nil, nil, stats, served, fmt.Errorf("dwrf: %s stripe@%d: content hash %x, footer records %x: %w", r.path, meta.Offset, hash, meta.ContentHash, tectonic.ErrCorrupt)
	}
	stats.BytesOverRead = stats.BytesRead - stats.BytesWanted
	return payloads, selected, stats, served, nil
}

// ReadStripe decodes stripe i under the projection into row-map samples.
// For flattened files it is a row-oriented view over ReadStripeBatch:
// the stripe decodes once into the columnar batch and the samples are
// copied out of it (a sparse or score-list row that decoded to an empty
// list is indistinguishable from an absent one in the columnar form and
// is omitted from its sample). For unflattened files the whole stripe
// is decoded and unselected features are dropped afterwards — the
// paper's "over read" baseline.
func (r *Reader) ReadStripe(i int, proj *schema.Projection, opts ReadOptions) ([]*schema.Sample, ReadStats, error) {
	if i < 0 || i >= len(r.footer.Stripes) {
		return nil, ReadStats{}, fmt.Errorf("dwrf: stripe %d out of range [0,%d)", i, len(r.footer.Stripes))
	}
	if r.footer.Flattened {
		b, stats, err := r.ReadStripeBatch(i, proj, opts)
		if err != nil {
			return nil, stats, err
		}
		rows := samplesFromBatch(b)
		b.Release()
		return rows, stats, nil
	}
	meta := &r.footer.Stripes[i]
	payloads, selected, stats, err := r.fetchStripe(meta, proj, opts)
	if err != nil {
		return nil, stats, err
	}
	if selected[0].Encoding != EncPlain {
		releasePayloads(payloads)
		return nil, stats, fmt.Errorf("dwrf: %v encoding invalid for row-data stream", selected[0].Encoding)
	}
	rows, err := decodeRowData(payloads[selected[0].Offset])
	releasePayloads(payloads)
	if err != nil {
		return nil, stats, err
	}
	if proj != nil {
		for _, row := range rows {
			filterSample(row, proj)
		}
	}
	return rows, stats, nil
}

// samplesFromBatch materializes row-map samples from a columnar batch,
// copying every value out so the batch may be released afterwards.
func samplesFromBatch(b *Batch) []*schema.Sample {
	rows := make([]*schema.Sample, b.Rows)
	for i := range rows {
		rows[i] = schema.NewSample()
		if i < len(b.Labels) {
			rows[i].Label = b.Labels[i]
		}
	}
	for id, col := range b.Dense {
		for i := 0; i < b.Rows; i++ {
			if col.Present[i] {
				rows[i].DenseFeatures[id] = col.Values[i]
			}
		}
	}
	for id, col := range b.Sparse {
		vals := col.MaterializedValues(nil)
		for i := 0; i < b.Rows; i++ {
			lo, hi := col.Offsets[i], col.Offsets[i+1]
			if hi > lo {
				rows[i].SparseFeatures[id] = append([]int64(nil), vals[lo:hi]...)
			}
		}
	}
	for id, col := range b.ScoreList {
		for i := 0; i < b.Rows; i++ {
			if vals := col.RowValues(i); len(vals) > 0 {
				rows[i].ScoreListFeatures[id] = append([]schema.ScoredValue(nil), vals...)
			}
		}
	}
	return rows
}

// ReadStripeBatch decodes stripe i under the projection into the columnar
// Batch representation (the FM optimization). Only flattened files
// support batch decoding.
func (r *Reader) ReadStripeBatch(i int, proj *schema.Projection, opts ReadOptions) (*Batch, ReadStats, error) {
	return r.ReadStripeBatchArena(i, proj, opts, nil)
}

// ReadStripeBatchArena is ReadStripeBatch decoding into arena-recycled
// columns: the returned batch owns them and hands them back on Release.
// A nil arena degrades to plain allocation. The arena is a call-site
// argument rather than a ReadOptions field because ReadOptions travels
// inside gob-encoded session specs; an arena is strictly node-local.
func (r *Reader) ReadStripeBatchArena(i int, proj *schema.Projection, opts ReadOptions, arena *Arena) (*Batch, ReadStats, error) {
	if !r.footer.Flattened {
		return nil, ReadStats{}, fmt.Errorf("dwrf: flatmap decode requires a flattened file")
	}
	if i < 0 || i >= len(r.footer.Stripes) {
		return nil, ReadStats{}, fmt.Errorf("dwrf: stripe %d out of range [0,%d)", i, len(r.footer.Stripes))
	}
	meta := &r.footer.Stripes[i]
	payloads, selected, stats, err := r.fetchStripe(meta, proj, opts)
	if err != nil {
		return nil, stats, err
	}
	decodeStart := time.Now()
	b, err := decodeStripeBatch(meta, payloads, selected, arena)
	releasePayloads(payloads)
	stats.DecodeWall += time.Since(decodeStart)
	if err != nil {
		return nil, stats, err
	}
	return b, stats, nil
}

// decodeStripeBatch assembles the columnar batch from decoded stream
// payloads, streaming each stream straight into its (arena-recycled)
// column — no per-row slices, no entry buffering. On error the partial
// batch is released back to the arena.
func decodeStripeBatch(meta *StripeMeta, payloads map[int64][]byte, selected []StreamMeta, arena *Arena) (*Batch, error) {
	b := arena.NewBatch(meta.Rows)
	var err error
	for _, s := range selected {
		payload := payloads[s.Offset]
		switch s.Kind {
		case streamLabel:
			b.Labels, err = decodeLabels(payload, arena)
		case streamDense:
			col := arena.Dense(meta.Rows)
			err = decodeDenseInto(payload, s.Encoding, meta.Rows, col)
			b.Dense[s.Feature] = col
		case streamSparse:
			col := arena.Sparse(meta.Rows)
			err = decodeSparseInto(payload, s.Encoding, meta.Rows, col)
			b.Sparse[s.Feature] = col
		case streamScoreList:
			col := arena.ScoreList(meta.Rows)
			err = decodeScoreListInto(payload, s.Encoding, meta.Rows, col)
			b.ScoreList[s.Feature] = col
		}
		if err != nil {
			b.Release()
			return nil, fmt.Errorf("dwrf: decode feature %d: %w", s.Feature, err)
		}
	}
	return b, nil
}

// filterSample drops features outside the projection (used for the
// unflattened layout, where everything is decoded first).
func filterSample(s *schema.Sample, proj *schema.Projection) {
	for id := range s.DenseFeatures {
		if !proj.Contains(id) {
			delete(s.DenseFeatures, id)
		}
	}
	for id := range s.SparseFeatures {
		if !proj.Contains(id) {
			delete(s.SparseFeatures, id)
		}
	}
	for id := range s.ScoreListFeatures {
		if !proj.Contains(id) {
			delete(s.ScoreListFeatures, id)
		}
	}
}
