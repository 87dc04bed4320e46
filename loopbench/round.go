package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"dsi/internal/tensor"
)

// roundResult is one timed window and, for the first window after a
// set-up, that set-up.
type roundResult struct {
	Traced bool `json:"traced"`
	// HasSetup marks the first window after a set-up; Setup is only
	// meaningful there.
	HasSetup bool          `json:"has_setup"`
	Setup    time.Duration `json:"setup_ns"`
	Window   time.Duration `json:"window_ns"`
	Rows     int64         `json:"rows"`
	Expected int64         `json:"expected_rows"`
	Failed   int64         `json:"failed"`
	CPU      time.Duration `json:"cpu_ns"`
	Alloc    uint64        `json:"alloc_bytes"`
	Retained uint64        `json:"retained_heap_bytes"`
	GCFrac   float64       `json:"gc_cpu_frac"`
	// Steal is the share of the host's CPU time the hypervisor took
	// from this machine during the window (0 where unmeasurable).
	Steal float64 `json:"host_steal_frac"`
	// Fresh holds one freshness sample per split the trainers consumed.
	Fresh []time.Duration `json:"-"`
	// opened is when the window opened.
	opened time.Time
	// Layer holds the per-layer metrics this round produced.
	Layer map[string]float64 `json:"layer,omitempty"`
	// Gate lists correctness-gate violations.
	Gate []string `json:"gate,omitempty"`

	sums []*tensor.ContentSum
}

func (r *roundResult) rowsPerSec() float64 { return ratio(float64(r.Rows), r.Window.Seconds()) }

func (r *roundResult) fail(format string, args ...any) {
	r.Gate = append(r.Gate, fmt.Sprintf(format, args...))
}

// window brackets the timed part of a round.
type window struct {
	start            time.Time
	cpu              time.Duration
	rt               runtimeSample
	steal, hostTotal uint64
	hostOK           bool
	deadline         <-chan time.Time
}

func openWindow() window {
	w := window{start: time.Now(), cpu: processCPU(), rt: readRuntime(), deadline: time.After(windowTimeout)}
	w.steal, w.hostTotal, w.hostOK = hostTicks()
	return w
}

func (w window) close(r *roundResult) {
	r.opened = w.start
	r.Window = time.Since(w.start)
	r.CPU = processCPU() - w.cpu
	rt := readRuntime()
	r.Alloc = rt.allocBytes - w.rt.allocBytes
	gc := rt.gcCPU - w.rt.gcCPU
	r.GCFrac = ratio(gc, gc+rt.userCPU-w.rt.userCPU)
	if steal, total, ok := hostTicks(); ok && w.hostOK && total > w.hostTotal {
		r.Steal = float64(steal-w.steal) / float64(total-w.hostTotal)
	}
}

// runBuild runs one set-up of workload p and the timed windows that
// follow it: one window for the ingest workloads, whose set-up is
// consumed by the window, and up to p.WindowsPerBuild for replay-shared,
// whose table every window re-reads through a fresh service and fleet
// worker (so each starts on a cold cache). build numbers the set-up
// within its run. tr is nil for untraced rounds. ref, when set, is the
// first window's per-tenant digests, which every later window must
// reproduce exactly.
func runBuild(p params, build int, tr *tracer, want *tensor.ContentSum, ref []*tensor.ContentSum) ([]*roundResult, error) {
	s, err := newStack(p, tr)
	if err != nil {
		return nil, err
	}
	defer s.teardown()
	buildSpans := spanRange{from: tr.mark(), to: -1}
	if p.Workload != wReplayShared {
		r := &roundResult{Traced: tr != nil, HasSetup: true}
		if p.Workload == wIngestBacklog {
			err = s.roundIngestBacklog(r)
		} else {
			err = s.roundLiveTail(r, build)
		}
		if err != nil {
			return nil, err
		}
		return []*roundResult{r}, s.finishWindow(r, want, ref, 1, buildSpans)
	}

	t0 := time.Now()
	if err := s.buildTable(); err != nil {
		return nil, err
	}
	buildTime := time.Since(t0)
	buildSpans.to = tr.mark()
	// A traced set-up replays the read path after every window; an
	// eighth as many windows keeps its span count and run time modest.
	windows := p.WindowsPerBuild
	if tr != nil {
		windows = max(1, windows/8)
	}
	var out []*roundResult
	for i := 0; i < windows; i++ {
		s.resetDPP()
		r := &roundResult{Traced: tr != nil, HasSetup: i == 0}
		win := spanRange{from: tr.mark(), to: -1}
		if err := s.roundReplayShared(r); err != nil {
			return nil, err
		}
		if i == 0 {
			r.Setup += buildTime
		}
		// The set-up's self time is shared over the windows an untraced
		// set-up serves.
		if err := s.finishWindow(r, want, ref, p.WindowsPerBuild, buildSpans, win); err != nil {
			return nil, err
		}
		if ref == nil {
			ref = r.sums
		}
		out = append(out, r)
	}
	return out, nil
}

// finishWindow measures what a window left behind (live heap, freshness
// samples, stat structs), tears DPP down, applies the correctness gate
// and, in a traced round, derives the span metrics: spans[0] is the
// set-up's range, shared by perBuild windows, and the rest are the
// window's own.
func (s *stack) finishWindow(r *roundResult, want *tensor.ContentSum, ref []*tensor.ContentSum, perBuild int, spans ...spanRange) error {
	r.Retained = liveHeapAfterGC()
	// A split's freshness is its FreshLag: newest event time to the
	// trainer's consumption ack. Rows produced before the window opened
	// (the ingest backlog, the replay table) count from the opening
	// instead, so the set-up's own duration is not measured as lag.
	opened := r.opened.UnixNano()
	for _, tn := range s.tenants {
		for _, f := range tn.master.FreshnessSamples() {
			f.MaxEventTime = max(f.MaxEventTime, opened)
			r.Fresh = append(r.Fresh, f.FreshLag())
		}
	}
	s.etlCounters()
	var err error
	if r.Layer, err = s.statMetrics(r.Window); err != nil {
		return err
	}
	s.teardown()
	s.gate(r, want, ref)
	if s.tr != nil {
		return s.traceMetrics(r, perBuild, spans)
	}
	return nil
}

// roundIngestBacklog: the serving backlog is published during set-up;
// the window runs from the ETL's start until the tenant has every row.
func (s *stack) roundIngestBacklog(r *roundResult) error {
	t0 := time.Now()
	if err := s.buildIngestPlane(); err != nil {
		return err
	}
	if err := s.serve(s.p.requests(), nil); err != nil {
		return err
	}
	tn, err := s.upTenant()
	if err != nil {
		return err
	}
	r.Setup = time.Since(t0)

	w := openWindow()
	s.startETL()
	go s.consume(tn, nil)
	stopSampler := s.sampleBacklog()
	defer stopSampler()
	if err := s.awaitTenants(w.deadline, tn); err != nil {
		return err
	}
	w.close(r)
	return s.finishETL()
}

// roundLiveTail: an open-loop generator serves requests at a constant
// mean rate while the ETL seals one-stripe partitions and the tenant
// tails them.
func (s *stack) roundLiveTail(r *roundResult, build int) error {
	t0 := time.Now()
	if err := s.buildIngestPlane(); err != nil {
		return err
	}
	tn, err := s.upTenant()
	if err != nil {
		return err
	}
	r.Setup = time.Since(t0)

	// Independent users: exponential gaps at the mean rate, so partition
	// arrivals do not phase-lock with the workers' poll backoff. Each
	// set-up of a run draws its own schedule from the seed, so a run
	// averages over several rather than repeating one seed's bursts.
	rng := rand.New(rand.NewSource(s.p.Seed*1000 + int64(build)))
	due := make([]time.Duration, s.p.requests())
	var at float64
	for i := range due {
		due[i] = time.Duration(at * float64(time.Second))
		at += rng.ExpFloat64() / s.p.RatePerSec
	}

	w := openWindow()
	s.startETL()
	go s.consume(tn, nil)
	stopSampler := s.sampleBacklog()
	defer stopSampler()
	start := time.Now()
	if err := s.serve(s.p.requests(), func(i int) time.Time { return start.Add(due[i]) }); err != nil {
		return err
	}
	if err := s.awaitTenants(w.deadline, tn); err != nil {
		return err
	}
	w.close(r)
	return s.finishETL()
}

// upTenant brings up DPP with tenant A's session assigned and its
// pipeline running: the ingest workloads' tenant tails from the start.
func (s *stack) upTenant() (*tenant, error) {
	id := s.p.tenants()[0]
	if err := s.startDPP(id, true); err != nil {
		return nil, err
	}
	tn, err := s.openTenant(id)
	if err != nil {
		return nil, err
	}
	return tn, s.waitPipeline(id)
}

// windowTimeout bounds one window: a session that never completes (lost
// rows, a failed ETL) fails the run instead of hanging it.
const windowTimeout = 60 * time.Second

// awaitTenants waits until every trainer has consumed its session. An
// ETL failure, which would leave a tailing session waiting for
// partitions forever, or the window's deadline ends the wait early.
func (s *stack) awaitTenants(deadline <-chan time.Time, tns ...*tenant) error {
	for _, tn := range tns {
		for waiting := true; waiting; {
			select {
			case <-tn.done:
				waiting = false
			case err := <-s.etlDone:
				s.etlDone = nil
				if err != nil {
					return fmt.Errorf("etl: %w", err)
				}
			case <-deadline:
				return fmt.Errorf("window did not finish within %v", windowTimeout)
			}
		}
		if tn.err != nil {
			return fmt.Errorf("%s: %w", tn.id, tn.err)
		}
	}
	return nil
}

// finishETL waits for the ETL goroutine if awaitTenants has not already
// seen it end.
func (s *stack) finishETL() error {
	if s.etlDone == nil {
		return nil
	}
	if err := <-s.etlDone; err != nil {
		return fmt.Errorf("etl: %w", err)
	}
	return nil
}

// roundReplayShared: two tenants with one projection and plan read the
// bounded table through one fleet worker and its shared cache. Tenant B
// opens once tenant A has consumed a fixed row count.
func (s *stack) roundReplayShared(r *roundResult) error {
	t0 := time.Now()
	ids := s.p.tenants()
	if err := s.startDPP(ids[0], false); err != nil {
		return err
	}
	r.Setup = time.Since(t0)

	w := openWindow()
	a, err := s.openTenant(ids[0])
	if err != nil {
		return err
	}
	openB := make(chan struct{})
	var once sync.Once
	go s.consume(a, func(n int64) {
		if n >= int64(s.p.OpenBAfterRows) {
			once.Do(func() { close(openB) })
		}
	})
	select {
	case <-openB:
	case <-a.done:
		return fmt.Errorf("%s ended before tenant B opened (err %v)", a.id, a.err)
	case <-w.deadline:
		return fmt.Errorf("tenant B did not open within %v", windowTimeout)
	}
	if err := s.createSession(ids[1]); err != nil {
		return err
	}
	b, err := s.openTenant(ids[1])
	if err != nil {
		return err
	}
	go s.consume(b, nil)
	if err := s.awaitTenants(w.deadline, a, b); err != nil {
		return err
	}
	w.close(r)
	return nil
}

// sampleBacklog records, every 5 ms until stopped, how many served
// requests the ETL has not joined yet (traced rounds only).
func (s *stack) sampleBacklog() func() {
	if s.tr == nil {
		return func() {}
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
			}
			s.backlog = append(s.backlog, float64(s.served.Load()-s.joiner.Joined.Value()))
		}
	}()
	return func() { close(stop); <-done }
}

// gate applies the correctness checks to a finished round.
func (s *stack) gate(r *roundResult, want *tensor.ContentSum, ref []*tensor.ContentSum) {
	pt := passthroughOf(s.spec)
	expected := int64(s.p.rowsPerTenant())
	for i, tn := range s.tenants {
		got := tn.rows.Load()
		r.Rows += got
		r.Expected += expected
		if got != expected {
			if got > expected {
				r.Failed += got - expected
			} else {
				r.Failed += expected - got
			}
			r.fail("%s received %d rows, want %d", tn.id, got, expected)
		}
		if !onlyPassthrough(tn.got, pt).Equal(want) {
			r.fail("%s passthrough checksums differ from the generator replay", tn.id)
		}
		if ref != nil && i < len(ref) && !tn.got.Equal(ref[i]) {
			r.fail("%s checksums differ from the first round's", tn.id)
		}
		if i > 0 && !tn.got.Equal(s.tenants[0].got) {
			r.fail("%s checksums differ from %s's", tn.id, s.tenants[0].id)
		}
		r.sums = append(r.sums, tn.got)
	}
	if r.Expected < int64(len(s.p.tenants()))*expected {
		r.Failed += int64(len(s.p.tenants()))*expected - r.Expected
		r.Expected = int64(len(s.p.tenants())) * expected
		r.fail("only %d of %d tenants ran", len(s.tenants), len(s.p.tenants()))
	}
	if s.p.Workload != wReplayShared && s.rowsWritten != s.served.Load() {
		r.fail("ETL sealed %d rows for %d served requests", s.rowsWritten, s.served.Load())
	}
	shed, dropped := s.scribeLoss()
	if shed+dropped > 0 {
		r.Failed += shed + dropped
		r.fail("scribe shed %d and dropped %d messages", shed, dropped)
	}
}
