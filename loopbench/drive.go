package main

import (
	"fmt"
	"strconv"
	"time"

	"dsi/internal/datagen"
	"dsi/internal/dwrf"
	"dsi/internal/schema"
	"dsi/internal/scribe"
	"dsi/internal/tensor"
	"dsi/internal/transforms"
	"dsi/internal/warehouse"
)

// The functions here produce the workloads' inputs and, in a traced
// round, stand in for the production loops that call a layer
// internally. They call the same public functions in the same order
// from one goroutine, with a span around each call, so that time and
// allocation can be attributed per layer. Everything a traced round
// writes and delivers must equal what the untraced round does: the
// checksums prove it.

// serve publishes n serving requests to Scribe and then closes the
// stream. due(i), when set, is request i's scheduled send time: the
// generator sleeps until then, stamps the request with it (so a stalled
// generator shows up as staleness), and records how late it ran. With
// due nil, requests go back to back, stamped with the wall clock.
func (s *stack) serve(n int, due func(i int) time.Time) error {
	if s.tr != nil {
		return s.serveTraced(n, due)
	}
	sim := datagen.NewServingSimulator(model, datagen.NewGenerator(s.spec, s.p.Seed), s.daemon)
	if due == nil {
		sim.Now = func() int64 { return time.Now().UnixNano() }
		if err := sim.ServeRequests(n); err != nil {
			return err
		}
	} else {
		var stamp int64
		sim.Now = func() int64 { return stamp }
		for i := 0; i < n; i++ {
			at := due(i)
			if d := time.Until(at); d > 0 {
				time.Sleep(d)
			}
			s.late = append(s.late, time.Since(at))
			stamp = at.UnixNano()
			if err := sim.ServeRequests(1); err != nil {
				return err
			}
			s.served.Add(1)
		}
	}
	s.served.Store(sim.RequestsServed())
	return sim.Close(s.bus)
}

// serveTraced is datagen.ServingSimulator.ServeRequests plus Close,
// unrolled: sample, encode and log each request, flushing the daemon
// after every ServeRequests call just as the simulator does.
func (s *stack) serveTraced(n int, due func(i int) time.Time) error {
	tr := s.tr
	root := tr.start("loop/serve", "", -1, false)
	defer tr.finish(root)
	gen := datagen.NewGenerator(s.spec, s.p.Seed)
	feat, event := datagen.FeatureCategory(model), datagen.EventCategory(model)
	flush := func() error {
		f := tr.start("scribe/flush", "", root, false)
		err := s.daemon.Flush()
		tr.finish(f)
		if err != nil && !scribe.Retryable(err) {
			return err
		}
		return nil
	}
	for i := 0; i < n; i++ {
		stamp := time.Now()
		if due != nil {
			stamp = due(i)
			if d := time.Until(stamp); d > 0 {
				w := tr.start("wait/schedule", "", root, false)
				time.Sleep(d)
				tr.finish(w)
			}
			s.late = append(s.late, time.Since(stamp))
		}
		id := int64(i + 1)
		trace := strconv.FormatInt(id, 10)
		req := tr.start("datagen/request", trace, root, false)
		sample := gen.Sample()
		fl := &datagen.FeatureLog{RequestID: id, Dense: sample.DenseFeatures, Sparse: sample.SparseFeatures, EventTime: stamp.UnixNano()}
		payload, err := datagen.EncodeFeatureLog(fl)
		if err != nil {
			return err
		}
		l := tr.start("scribe/log", trace, req, false)
		err = s.daemon.Log(feat, payload)
		tr.finish(l)
		if err != nil {
			return err
		}
		evPayload, err := datagen.EncodeEventLog(&datagen.EventLog{RequestID: id, Engaged: sample.Label > 0})
		if err != nil {
			return err
		}
		l = tr.start("scribe/log", trace, req, false)
		err = s.daemon.Log(event, evPayload)
		tr.finish(l)
		tr.finish(req)
		if err != nil {
			return err
		}
		s.logBytes += int64(len(payload) + len(evPayload))
		s.served.Add(1)
		if due != nil {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	if due == nil {
		if err := flush(); err != nil {
			return err
		}
	}
	c := tr.start("scribe/close", "", root, false)
	defer tr.finish(c)
	if err := s.daemon.DrainFlush(30 * time.Second); err != nil {
		return err
	}
	if err := s.bus.CloseCategory(feat); err != nil {
		return err
	}
	return s.bus.CloseCategory(event)
}

// etlSink routes joined samples into the open partition, as the
// pipeline's own sink does, timing each row write.
type etlSink struct {
	s    *stack
	pw   *warehouse.PartitionWriter
	key  string
	rows int
	// parent is the open join step.
	parent int
}

func (k *etlSink) Emit(sample *schema.Sample) error { return k.EmitTimed(sample, 0) }

func (k *etlSink) EmitTimed(sample *schema.Sample, eventTime int64) error {
	w := k.s.tr.start("dwrf.write/row", k.key, k.parent, true)
	err := k.pw.WriteRow(sample)
	k.s.tr.finish(w)
	if err != nil {
		return err
	}
	k.pw.NoteEventTime(eventTime)
	k.rows++
	return nil
}

// driveETL is etl.Pipeline.Run for a fresh pipeline on a fault-free
// cluster: per partition, checkpoint the joiner, fill the partition by
// stepping the joiner (idling when the streams are drained but open),
// then intent → seal → commit → trim. A write error fails the round;
// the production pipeline's re-produce loop is not replayed here.
func (s *stack) driveETL(sink *etlSink) error {
	const (
		batchSize = 1024                   // etl.Pipeline default BatchSize
		idleWait  = 200 * time.Microsecond // etl.Pipeline default IdleWait
	)
	tr := s.tr
	root := tr.start("loop/etl", "", -1, false)
	defer tr.finish(root)
	for index := 0; ; index++ {
		key := fmt.Sprintf("part-%06d", index)
		c := tr.start("etl/checkpoint", key, root, false)
		_, err := s.joiner.Checkpoint()
		tr.finish(c)
		if err != nil {
			return err
		}
		o := tr.start("dwrf.write/open", key, root, true)
		pw, err := s.tbl.NewPartition(key)
		tr.finish(o)
		if err != nil {
			return err
		}
		sink.pw, sink.key, sink.rows = pw, key, 0
		end := false
		for sink.rows < s.p.PartitionRows {
			batch := batchSize
			if rem := s.p.PartitionRows - sink.rows; rem < batch {
				batch = rem
			}
			st := tr.start("etl/step", key, root, false)
			sink.parent = st
			n, err := s.joiner.Step(batch)
			tr.finish(st)
			if err != nil {
				return err
			}
			if n > 0 {
				continue
			}
			if s.joiner.EndOfStream() {
				f := tr.start("etl/flush", key, root, false)
				sink.parent = f
				err := s.joiner.Flush()
				tr.finish(f)
				if err != nil {
					return err
				}
				end = true
				break
			}
			w := tr.start("wait/etl-idle", key, root, false)
			time.Sleep(idleWait)
			tr.finish(w)
		}
		if end && sink.rows == 0 {
			if err := pw.Abort(); err != nil {
				return err
			}
			return s.tbl.CloseStream()
		}
		if err := s.sealTraced(key, pw, root); err != nil {
			return err
		}
		s.rowsWritten += int64(sink.rows)
		s.partitions++
		if end {
			return s.tbl.CloseStream()
		}
	}
}

// sealTraced is the pipeline's intent → seal → commit → trim protocol.
func (s *stack) sealTraced(key string, pw *warehouse.PartitionWriter, root int) error {
	tr := s.tr
	c := tr.start("etl/checkpoint", key, root, false)
	state, err := s.joiner.Checkpoint()
	tr.finish(c)
	if err != nil {
		return err
	}
	i := tr.start("etl/cursor", key, root, false)
	err = s.cursors.Intent(key, state)
	tr.finish(i)
	if err != nil {
		return err
	}
	seal := tr.start("dwrf.write/seal", key, root, true)
	err = pw.Close()
	tr.finish(seal)
	if err != nil {
		return err
	}
	s.sealedAt[key] = time.Now()
	i = tr.start("etl/cursor", key, root, false)
	err = s.cursors.Commit(key)
	tr.finish(i)
	if err != nil {
		return err
	}
	t := tr.start("etl/trim", key, root, false)
	err = s.joiner.TrimConsumed()
	tr.finish(t)
	return err
}

// buildTable writes replay-shared's bounded table straight through
// warehouse.PartitionWriter, stamping every row's generation time as its
// event time.
func (s *stack) buildTable() error {
	tr := s.tr
	var err error
	s.tbl, err = s.wh.CreateTable(s.session.Table, s.spec.BuildSchema(),
		dwrf.WriterOptions{Flatten: true, RowsPerStripe: s.p.RowsPerStripe})
	if err != nil {
		return err
	}
	root := tr.start("loop/build", "", -1, false)
	defer tr.finish(root)
	gen := datagen.NewGenerator(s.spec, s.p.Seed)
	for part := 0; part < s.p.Partitions; part++ {
		key := fmt.Sprintf("part-%06d", part)
		o := tr.start("dwrf.write/open", key, root, true)
		pw, err := s.tbl.NewPartition(key)
		tr.finish(o)
		if err != nil {
			return err
		}
		for i := 0; i < s.p.RowsPerPart; i++ {
			g := tr.start("datagen/request", key, root, false)
			sample := gen.Sample()
			tr.finish(g)
			w := tr.start("dwrf.write/row", key, root, true)
			err := pw.WriteRow(sample)
			tr.finish(w)
			if err != nil {
				return err
			}
			pw.NoteEventTime(time.Now().UnixNano())
		}
		seal := tr.start("dwrf.write/seal", key, root, true)
		err = pw.Close()
		tr.finish(seal)
		if err != nil {
			return err
		}
		s.sealedAt[key] = time.Now()
		s.rowsWritten += int64(s.p.RowsPerPart)
		s.partitions++
	}
	return nil
}

// readResult is what the read pass measured.
type readResult struct {
	stats   dwrf.ReadStats
	splits  int
	rows    int64
	batches int
	wire    int64 // encoded frame bytes
	sum     *tensor.ContentSum
}

// readPass replays, on one goroutine, what a DPP worker and trainer do
// per split: read and decode the stripe (ReadSplitBatchCachedArena), run
// the compiled transform plan, materialize tensors, slice them into
// batches, and put each through the framed wire codec (AppendBinary +
// DecodeBinary) before the trainer digests it. It runs after the timed
// window over the round's final table.
func (s *stack) readPass() (readResult, error) {
	tr := s.tr
	res := readResult{sum: tensor.NewContentSum()}
	splits, err := s.tbl.Splits(nil)
	if err != nil {
		return res, err
	}
	plan, err := transforms.NewGraph().Add(s.session.Ops...).CompilePlan()
	if err != nil {
		return res, err
	}
	arena := dwrf.NewArena()
	proj := s.session.Projection()
	buf := tensor.GetFrameBuf()
	defer func() { tensor.PutFrameBuf(buf) }()
	root := tr.start("loop/read", "", -1, false)
	defer tr.finish(root)
	for _, sp := range splits {
		trace := sp.Partition + "/" + strconv.Itoa(sp.Stripe)
		d := tr.start("dwrf.decode/split", trace, root, true)
		batch, rs, err := s.wh.ReadSplitBatchCachedArena(sp, proj, s.session.Read, arena)
		tr.finish(d)
		if err != nil {
			return res, err
		}
		tr.child("tectonic.read/fetch", trace, d, rs.FetchWall)
		res.stats.Merge(rs)
		x := tr.start("transforms/plan", trace, root, true)
		_, err = plan.Run(batch, arena)
		tr.finish(x)
		if err != nil {
			return res, err
		}
		m := tr.start("tensor/materialize", trace, root, true)
		full, err := tensor.Materialize(batch, s.session.DenseOut, s.session.SparseOut)
		batch.Release()
		var parts []*tensor.Batch
		if err == nil {
			parts = sliceRows(full, s.session.BatchSize)
		}
		tr.finish(m)
		if err != nil {
			return res, err
		}
		for _, part := range parts {
			w := tr.start("tensor/wire", trace, root, true)
			buf = part.AppendBinary(buf[:0])
			dec, _, err := tensor.DecodeBinary(buf)
			tr.finish(w)
			if err != nil {
				return res, err
			}
			res.wire += int64(len(buf))
			res.batches++
			t := tr.start("check/sum", trace, root, false)
			res.sum.AddBatch(dec)
			dec.Release()
			tr.finish(t)
		}
		res.splits++
		res.rows += int64(full.Rows)
	}
	return res, nil
}

// sliceRows cuts a materialized split into batchSize-row batches, the
// way the DPP worker slices before delivery.
func sliceRows(b *tensor.Batch, batchSize int) []*tensor.Batch {
	if batchSize <= 0 || b.Rows <= batchSize {
		return []*tensor.Batch{b}
	}
	var out []*tensor.Batch
	for start := 0; start < b.Rows; start += batchSize {
		end := min(start+batchSize, b.Rows)
		rows := end - start
		part := &tensor.Batch{
			Rows:            rows,
			DenseFeatureIDs: b.DenseFeatureIDs,
			Labels:          append([]float32(nil), b.Labels[start:end]...),
		}
		if b.Dense != nil {
			part.Dense = &tensor.Dense2D{
				Rows: rows,
				Cols: b.Dense.Cols,
				Data: append([]float32(nil), b.Dense.Data[start*b.Dense.Cols:end*b.Dense.Cols]...),
			}
		}
		for _, sp := range b.Sparse {
			lo, hi := sp.Offsets[start], sp.Offsets[end]
			offs := make([]int32, rows+1)
			for i := range offs {
				offs[i] = sp.Offsets[start+i] - lo
			}
			part.Sparse = append(part.Sparse, &tensor.SparseTensor{
				Feature: sp.Feature,
				Offsets: offs,
				Indices: append([]int64(nil), sp.Indices[lo:hi]...),
			})
		}
		out = append(out, part)
	}
	return out
}
