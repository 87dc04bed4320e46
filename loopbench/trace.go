package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dsi/internal/dpp"
	"dsi/internal/tensor"
	"dsi/internal/warehouse"
)

// span is one timed call into a layer. Name is "<layer>/<op>"; the layer
// prefix is what self times are grouped by. Trace identifies the unit of
// work the span belongs to (a request, a partition key or a split).
type span struct {
	Name   string `json:"name"`
	Trace  string `json:"trace"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	// Alloc is the heap bytes allocated process-wide while the span was
	// open (only for spans started with alloc accounting).
	Alloc    uint64 `json:"alloc_bytes,omitempty"`
	hasAlloc bool
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '/'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer keeps every span of a run in memory; they are written out when
// the run ends. A nil *tracer records nothing, so the untraced path
// shares code with the traced one at the cost of a nil check.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// start opens a span and returns its handle (-1 on a nil tracer).
// withAlloc brackets it with heap-allocation counter reads.
func (t *tracer) start(name, trace string, parent int, withAlloc bool) int {
	if t == nil {
		return -1
	}
	var a uint64
	if withAlloc {
		a = allocBytes()
	}
	now := t.now()
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Trace: trace, Start: now, Parent: parent, Alloc: a, hasAlloc: withAlloc})
	i := len(t.spans) - 1
	t.mu.Unlock()
	return i
}

// finish closes span i.
func (t *tracer) finish(i int) {
	if t == nil || i < 0 {
		return
	}
	now := t.now()
	t.mu.Lock()
	withAlloc := t.spans[i].hasAlloc
	t.mu.Unlock()
	var a uint64
	if withAlloc {
		a = allocBytes()
	}
	t.mu.Lock()
	s := &t.spans[i]
	s.End = now
	if withAlloc {
		s.Alloc = a - s.Alloc
	}
	t.mu.Unlock()
}

// child records an already-measured sub-interval of span parent that the
// layer reported itself (for example the storage wait inside a split
// read), placed at the start of the parent.
func (t *tracer) child(name, trace string, parent int, d time.Duration) {
	if t == nil || parent < 0 {
		return
	}
	t.mu.Lock()
	start := t.spans[parent].Start
	t.spans = append(t.spans, span{Name: name, Trace: trace, Start: start, End: start + int64(d), Parent: parent})
	t.mu.Unlock()
}

// mark returns the current span count, the start of a round's spans.
func (t *tracer) mark() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// spanRange is the half-open interval [from, to) of span indices one
// phase of a round recorded; to < 0 means "to the end".
type spanRange struct{ from, to int }

// spanStats aggregates the spans of one or more ranges.
type spanStats struct {
	// total, durs, selfName and alloc are per span name; self is per
	// layer.
	total    map[string]time.Duration
	durs     map[string][]time.Duration
	self     map[string]time.Duration
	selfName map[string]time.Duration
	alloc    map[string]uint64
	// rootDur and rootSelf sum the benchmark loops' root spans ("loop/...")
	// and the part of them no child span covers: the unattributed time.
	rootDur, rootSelf time.Duration
}

// stats folds the spans of the given ranges. A span's self time is its
// duration minus its children's, which run inside it on the same
// goroutine; a child always lies in its parent's range.
func (t *tracer) stats(ranges ...spanRange) spanStats {
	st := spanStats{
		total:    map[string]time.Duration{},
		durs:     map[string][]time.Duration{},
		self:     map[string]time.Duration{},
		selfName: map[string]time.Duration{},
		alloc:    map[string]uint64{},
	}
	if t == nil {
		return st
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	childSum := map[int]time.Duration{}
	for _, r := range ranges {
		to := r.to
		if to < 0 {
			to = len(t.spans)
		}
		for _, s := range t.spans[r.from:to] {
			if s.Parent >= 0 && s.End > 0 {
				childSum[s.Parent] += s.dur()
			}
		}
	}
	for _, r := range ranges {
		to := r.to
		if to < 0 {
			to = len(t.spans)
		}
		for i := r.from; i < to; i++ {
			s := t.spans[i]
			if s.End == 0 {
				continue
			}
			d := s.dur()
			self := max(d-childSum[i], 0)
			st.total[s.Name] += d
			st.durs[s.Name] = append(st.durs[s.Name], d)
			if s.layer() == "loop" {
				st.rootDur += d
				st.rootSelf += self
				continue
			}
			st.self[s.layer()] += self
			st.selfName[s.Name] += self
			st.alloc[s.Name] += s.Alloc
		}
	}
	return st
}

// dump writes every span as one JSON object per line.
func (t *tracer) dump(path string) error {
	if t == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// leaseLog remembers when each partition's first split was leased: the
// moment the session master had discovered it and a worker picked it up.
type leaseLog struct {
	mu    sync.Mutex
	first map[string]time.Time
}

func (l *leaseLog) note(partition string) {
	l.mu.Lock()
	if _, ok := l.first[partition]; !ok {
		l.first[partition] = time.Now()
	}
	l.mu.Unlock()
}

func (l *leaseLog) firstLease() map[string]time.Time {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[string]time.Time, len(l.first))
	for k, v := range l.first {
		out[k] = v
	}
	return out
}

// tracingControl wraps the service's fleet control plane so every session
// master handed to a fleet worker or client is a tracingMaster.
type tracingControl struct {
	dpp.FleetControl
	tr     *tracer
	leases *leaseLog
}

func (c tracingControl) SessionMaster(sessionID string) (dpp.MasterAPI, error) {
	m, err := c.FleetControl.SessionMaster(sessionID)
	if err != nil {
		return nil, err
	}
	return tracingMaster{MasterAPI: m, tr: c.tr, leases: c.leases, session: sessionID}, nil
}

// tracingMaster times the lease and acknowledgement calls of one session.
type tracingMaster struct {
	dpp.MasterAPI
	tr      *tracer
	leases  *leaseLog
	session string
}

func (m tracingMaster) NextSplit(workerID string) (warehouse.Split, int, bool, bool, error) {
	i := m.tr.start("dpp.lease/next", m.session, -1, false)
	sp, id, ok, draining, err := m.MasterAPI.NextSplit(workerID)
	m.tr.finish(i)
	if ok {
		m.tr.mu.Lock()
		m.tr.spans[i].Trace = sp.Partition
		m.tr.mu.Unlock()
		m.leases.note(sp.Partition)
	} else {
		// An empty poll is control-plane work too, but not a lease.
		m.tr.mu.Lock()
		m.tr.spans[i].Name = "dpp.lease/poll"
		m.tr.mu.Unlock()
	}
	return sp, id, ok, draining, err
}

func (m tracingMaster) CompleteSplit(workerID string, splitID int) error {
	i := m.tr.start("dpp.lease/ack", m.session, -1, false)
	err := m.MasterAPI.CompleteSplit(workerID, splitID)
	m.tr.finish(i)
	return err
}

// tracingDialer wraps a data-plane dialer so each connection's fetches
// become "dpp.wire/fetch" spans under the tenant's current trainer wait.
func tracingDialer(inner dpp.WorkerDialer, tr *tracer, cur *atomic.Int64) dpp.WorkerDialer {
	return func(ep dpp.WorkerEndpoint) (dpp.WorkerAPI, error) {
		api, err := inner(ep)
		if err != nil {
			return nil, err
		}
		return &tracingWorker{WorkerAPI: api, tr: tr, cur: cur}, nil
	}
}

type tracingWorker struct {
	dpp.WorkerAPI
	tr  *tracer
	cur *atomic.Int64
}

func (w *tracingWorker) FetchBatch() (*tensor.Batch, bool, bool, error) {
	i := w.tr.start("dpp.wire/fetch", "", int(w.cur.Load()), false)
	b, ok, done, err := w.WorkerAPI.FetchBatch()
	w.tr.finish(i)
	return b, ok, done, err
}

// Drain and Close forward the streaming transport's optional methods,
// which the client discovers by type assertion.
func (w *tracingWorker) Drain() []*tensor.Batch {
	if d, ok := w.WorkerAPI.(interface{ Drain() []*tensor.Batch }); ok {
		return d.Drain()
	}
	return nil
}

func (w *tracingWorker) Close() error {
	if c, ok := w.WorkerAPI.(interface{ Close() error }); ok {
		return c.Close()
	}
	return nil
}

// layerRanking orders layers by self time, largest first.
func layerRanking(self map[string]float64) []string {
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		if self[names[i]] != self[names[j]] {
			return self[names[i]] > self[names[j]]
		}
		return names[i] < names[j]
	})
	return names
}
