package main

import (
	"time"

	"dsi/internal/dwrf"
	"dsi/internal/ware"
)

// This file holds every read of the program's own stat structs:
// dpp.WorkerStats, ware.Stats, dwrf.ReadStats, the scribe daemon's and
// the ETL's counters, and tectonic's fault counters. When those structs
// change, this is the one file to follow them.

// etlCounters copies the production pipeline's sealed rows and
// partitions into the stack's accounting (untraced rounds; the traced
// ETL loop in drive.go counts them itself).
func (s *stack) etlCounters() {
	if s.pipe == nil {
		return
	}
	s.rowsWritten = s.pipe.RowsWritten.Value()
	s.partitions = int(s.pipe.PartitionsSealed.Value())
}

// scribeLoss is the messages Scribe shed or dropped.
func (s *stack) scribeLoss() (shed, dropped int64) {
	if s.daemon == nil {
		return 0, 0
	}
	return s.daemon.Shed.Value(), s.daemon.Dropped.Value()
}

// statMetrics reads the per-layer metrics the stat structs give, at the
// end of a round's window.
func (s *stack) statMetrics(window time.Duration) (map[string]float64, error) {
	m := map[string]float64{}
	rows := float64(s.rowsWritten)

	// DPP pipelines: stage busy time from WorkerStats.
	var fetch, decode, xform, deliver float64
	var released int64
	for _, w := range s.pipelineWorkers() {
		st := w.Stats()
		fetch += st.Stage.FetchSeconds
		decode += st.Stage.DecodeSeconds
		xform += st.Stage.TransformSeconds
		deliver += st.Stage.DeliverSeconds
		released += st.SplitsReleased
	}
	total := fetch + decode + xform + deliver
	// Each tenant's pipeline runs one prefetcher and one transform
	// goroutine.
	m["dpp.busy_frac"] = ratio(fetch+decode+xform, 2*window.Seconds()*float64(len(s.tenants)))
	m["dpp.fetch_frac"] = ratio(fetch, total)
	m["dpp.decode_frac"] = ratio(decode, total)
	m["dpp.transform_frac"] = ratio(xform, total)
	m["dpp.deliver_frac"] = ratio(deliver, total)
	m["dpp.splits_released"] = float64(released)

	// The fleet worker's shared cache.
	cs := s.fw.Cache().Stats()
	distinct, err := s.distinctStripeWares()
	if err != nil {
		return nil, err
	}
	m["ware.hit_ratio"] = cs.HitRate()
	m["ware.dup_misses"] = float64(cs.Misses - int64(distinct))
	m["ware.resident_mb"] = float64(cs.Resident) / (1 << 20)
	m["ware.evictions"] = float64(cs.Evictions)

	// Scribe and ETL counters.
	shed, dropped := s.scribeLoss()
	m["scribe.shed"] = float64(shed)
	m["scribe.dropped"] = float64(dropped)
	m["etl.expired_frac"] = 0
	m["etl.reproduced_frac"] = 0
	if s.joiner != nil {
		m["etl.expired_frac"] = ratio(float64(s.joiner.Expired.Value()), rows)
	}
	if s.pipe != nil {
		m["etl.reproduced_frac"] = ratio(float64(s.pipe.PartitionsReproduced.Value()), float64(s.partitions))
	}

	// Storage footprint and recovery work.
	fc := s.cluster.FaultCounters()
	m["tectonic.retries"] = float64(fc.Retries + fc.AppendRetries + fc.SealRetries)
	var stored int64
	for _, p := range s.tbl.Partitions() {
		stored += p.Bytes
	}
	m["dwrf.stored_bytes_per_row"] = ratio(float64(stored), rows)
	m["tectonic.append_bytes_per_row"] = ratio(float64(s.cluster.TotalStoredBytes()), rows)
	return m, nil
}

// distinctStripeWares counts the distinct stripe wares the table holds
// under the session's projection: the least number of cache misses a
// fleet worker can take to read every split once.
func (s *stack) distinctStripeWares() (int, error) {
	splits, err := s.tbl.Splits(nil)
	if err != nil {
		return 0, err
	}
	proj := s.session.Projection()
	seen := map[string]bool{}
	for _, sp := range splits {
		r, err := s.wh.CachedReader(sp.Path)
		if err != nil {
			return 0, err
		}
		seen[ware.StripeID(r.StripeContentHash(sp.Stripe), sp.Path, sp.Stripe, proj).String()] = true
	}
	return len(seen), nil
}

// readMetrics turns the read pass's dwrf.ReadStats into storage metrics.
func readMetrics(rs dwrf.ReadStats, splits int) map[string]float64 {
	return map[string]float64{
		"dwrf.overread_frac":          ratio(float64(rs.BytesOverRead), float64(rs.BytesRead)),
		"tectonic.read_ios_per_split": ratio(float64(rs.IOs), float64(splits)),
		"tectonic.read_kb_per_io":     ratio(float64(rs.BytesRead)/1024, float64(rs.IOs)),
	}
}
