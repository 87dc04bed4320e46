// Command dppd runs DPP components as networked processes over TCP,
// demonstrating the disaggregated deployment of §3.2.1: a multi-tenant
// Service (the control plane: one Master per session plus a shared
// fleet registry), fleet workers preprocessing splits for whichever
// sessions the Service assigns them, and clients (standing in for
// trainers) consuming tensors over framed streams.
//
// The master role hosts the Service with -sessions pre-created sessions
// s1..sN (default one). With -max-workers set it also runs the fleet
// Orchestrator, which elastically launches and drains fleet workers to
// track trainer demand and divides them among sessions by weighted fair
// share; with -max-workers 0 it only serves the control plane to
// externally started -role worker processes, reaps the dead, and exits
// once every session is done. Clients resolve each session's live
// worker membership from the Service, so connections rebalance as the
// fleet resizes.
//
// Because the module is self-contained and offline, every role
// regenerates the same deterministic synthetic dataset locally (seeded by
// -seed), standing in for shared access to the Tectonic cluster.
//
// The submit role registers a new session over RPC (its -weight is its
// fleet share), consumes it like a trainer, and closes it on
// completion; the client role joins an existing session with -session.
//
// Usage:
//
//	dppd -role master -addr :7070 -max-workers 0   # control plane only
//	dppd -role worker -master localhost:7070 -addr :7071
//	dppd -role client -master localhost:7070       # joins session s1
//	dppd -role demo            # all roles in one process, elastic fleet
//
//	dppd -role master -sessions 2 -max-workers 8   # elastic multi-tenant service
//	dppd -role submit -master localhost:7070 -session mine -weight 3
//	dppd -role client -master localhost:7070 -session s2
//	dppd -role demo -sessions 3 -max-workers 5     # 3 tenants, one fleet
//
//	dppd -role ingest -requests 8192               # streaming Scribe->ETL->session loop
//	dppd -role ingest -write-fault-seed 7          # same loop through a write storm
//
// The ingest role closes the DSI loop live: a serving simulator streams
// feature/event logs into Scribe, the ETL joins and seals DWRF
// partitions into an unbounded table, and an unbounded session of a
// served Service tails it over TCP until the producer closes the
// stream, reporting event-time to trainer freshness lag. With
// -write-fault-seed the loop runs through a seeded write storm — torn
// Scribe acks, write-flaky warehouse nodes, a down node, failing seals
// — and reports the recovery work (retries, dedups, re-produced
// partitions) that kept delivery exactly-once.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sync"
	"time"

	"dsi/internal/datagen"
	"dsi/internal/dpp"
	"dsi/internal/tectonic/faults"
	"dsi/internal/warehouse"
)

func main() {
	role := flag.String("role", "demo", "master | worker | client | submit | demo | ingest")
	addr := flag.String("addr", "127.0.0.1:7070", "listen address (master/worker)")
	masterAddr := flag.String("master", "127.0.0.1:7070", "service address (worker/client/submit)")
	model := flag.String("model", "RM1", "workload profile: RM1, RM2, or RM3")
	seed := flag.Int64("seed", 1, "dataset seed (must match across roles)")
	id := flag.String("id", fmt.Sprintf("worker-%d", os.Getpid()), "worker ID")

	// Elastic control plane knobs (master/demo roles).
	minWorkers := flag.Int("min-workers", 1, "master/demo: lower bound of the auto-scaled fleet")
	maxWorkers := flag.Int("max-workers", 0, "master/demo: upper bound of the auto-scaled fleet (0 = master does not launch workers; demo uses 4)")
	scaleInterval := flag.Duration("scale-interval", 250*time.Millisecond, "master/demo: auto-scaler control period")

	// Streaming ingestion knobs (ingest role).
	requests := flag.Int("requests", 4096, "ingest: serving requests to stream through Scribe->ETL before closing the stream")
	partRows := flag.Int("partition-rows", 512, "ingest: ETL partition seal threshold in rows")

	// Multi-tenant knobs.
	sessions := flag.Int("sessions", 1, "master/demo: number of pre-created sessions s1..sN (demo tenants get weights 1..N)")
	sessionID := flag.String("session", "", "client/submit: session to consume (default: s1 for client, job-<pid> for submit)")
	weight := flag.Float64("weight", 1, "submit: the session's weighted fair share of the fleet")

	// Pipeline knobs. Master and demo roles only: workers pull the
	// session spec, pipeline sizing included, from the service at
	// registration, so setting these on -role worker has no effect.
	prefetchers := flag.Int("prefetchers", 0, "master/demo: split fetch+decode goroutines per worker (0 = default)")
	prefetchDepth := flag.Int("prefetch-depth", 0, "master/demo: decoded splits buffered ahead of the transform stage (0 = default)")
	xformParallel := flag.Int("transform-parallelism", 0, "master/demo: concurrent transform-graph goroutines per worker (0 = default)")
	bufferDepth := flag.Int("buffer", 0, "master/demo: delivered-tensor buffer capacity in batches (0 = default)")
	bufferBytes := flag.Int64("buffer-bytes", 0, "master/demo: byte bound on the delivered-tensor buffer (0 = unbounded)")
	sequential := flag.Bool("sequential", false, "master/demo: disable the pipelined data plane (serial baseline)")

	// Cache sizing knobs (the fleet batch cache and the per-warehouse
	// reader cache share this flag family).
	flag.Int64Var(&fleetCacheBytes, "cache-bytes", 0,
		"master/demo/worker: per-worker content-addressed batch cache budget in bytes (0 = default, negative = disable)")
	flag.IntVar(&readerCacheLimit, "reader-cache", 0,
		"max open DWRF readers cached per warehouse (0 = default)")

	// Failure-model knobs. The fault schedule installs on the local
	// synthetic cluster, so it applies to roles that read storage
	// (master with a fleet, worker, demo); retry-budget rides the
	// session spec.
	flag.Int64Var(&faultSeed, "fault-seed", 0,
		"install a seeded storage fault storm on the local cluster: every node a little flaky, one corrupting, one slow (0 = faults disabled)")
	retryBudget := flag.Int("retry-budget", 0,
		"master/demo: per-split release budget before the session fails on a persistent storage fault (0 = default)")
	writeFaultSeed := flag.Int64("write-fault-seed", 0,
		"ingest: install a seeded write storm on the streaming loop: scribe torn acks, all nodes write-flaky, one node torn, one down, seals failing (0 = faults disabled)")
	flag.Parse()
	if *scaleInterval <= 0 {
		log.Fatalf("dppd: -scale-interval must be positive, got %v", *scaleInterval)
	}

	pipeline := dpp.PipelineOptions{
		Prefetchers:          *prefetchers,
		PrefetchDepth:        *prefetchDepth,
		TransformParallelism: *xformParallel,
		MaxBufferedBytes:     *bufferBytes,
		Sequential:           *sequential,
	}
	sessionRetryBudget = *retryBudget

	switch *role {
	case "master":
		runMaster(*model, *seed, *addr, pipeline, *bufferDepth, *minWorkers, *maxWorkers, *scaleInterval, *sessions)
	case "worker":
		runWorker(*model, *seed, *masterAddr, *addr, *id)
	case "client":
		if *sessionID == "" {
			*sessionID = "s1"
		}
		runClient(*masterAddr, *sessionID)
	case "submit":
		runSubmit(*model, *seed, *masterAddr, *sessionID, *weight, pipeline, *bufferDepth)
	case "ingest":
		runIngestDemo(*model, *seed, *requests, *partRows, *writeFaultSeed)
	case "demo":
		runDemo(*model, *seed, pipeline, *bufferDepth, *minWorkers, *maxWorkers, *scaleInterval, *sessions)
	default:
		log.Fatalf("dppd: unknown role %q", *role)
	}
}

// tenantSpec assembles one session's spec from the shared workload.
func tenantSpec(spec dpp.SessionSpec, pipeline dpp.PipelineOptions, bufferDepth int, weight float64) dpp.SessionSpec {
	spec.Pipeline = pipeline
	spec.DataPlane = dpp.DataPlaneFramed
	spec.Weight = weight
	if bufferDepth > 0 {
		spec.BufferDepth = bufferDepth
	}
	return spec
}

// runMaster hosts the Service: n pre-created sessions (s1..sN, equal
// weight; submit adds more at arbitrary weights). With maxWorkers > 0
// it also operates an elastic fleet of RPC-served workers and keeps
// serving after its sessions finish; with maxWorkers == 0 external
// workers join, and the master reaps the dead and exits once every
// session is done.
func runMaster(model string, seed int64, addr string, pipeline dpp.PipelineOptions, bufferDepth, minWorkers, maxWorkers int, scaleInterval time.Duration, n int) {
	wh, spec := buildWorkload(model, seed)
	svc := dpp.NewService(wh)
	for i := 1; i <= n; i++ {
		id := fmt.Sprintf("s%d", i)
		if err := svc.CreateSession(id, tenantSpec(spec, pipeline, bufferDepth, 1)); err != nil {
			log.Fatal(err)
		}
	}
	ln, stop, err := dpp.ServeService(svc, addr)
	if err != nil {
		log.Fatal(err)
	}
	defer stop()
	log.Printf("dppd master: %d sessions on %s", n, ln.Addr())

	var o *dpp.Orchestrator
	if maxWorkers > 0 {
		launcher := &dpp.RPCFleetLauncher{
			ServiceAddr: ln.Addr().String(),
			WH:          wh,
			CacheBytes:  fleetCacheBytes,
			OnError: func(id string, err error) {
				log.Printf("dppd master: worker %s failed: %v", id, err)
			},
		}
		o = dpp.NewFleetOrchestrator(svc, launcher, dpp.NewAutoScaler(minWorkers, maxWorkers))
		o.ScaleInterval = scaleInterval
		o.CheckpointEvery = 10 * scaleInterval
		o.OnError = func(err error) { log.Printf("dppd master: %v", err) }
		go func() {
			if err := o.Run(nil); err != nil {
				log.Fatal(err)
			}
		}()
	}
	// Without a fleet controller the master itself reaps dead workers
	// and re-divides the joined ones among sessions every interval.
	tick := time.NewTicker(scaleInterval)
	defer tick.Stop()
	lastLog := time.Now()
	for range tick.C {
		if o == nil {
			svc.ReapDead()
			svc.Rebalance()
		}
		if time.Since(lastLog) >= 2*time.Second {
			lastLog = time.Now()
			infos, err := svc.ListSessions()
			if err != nil {
				log.Fatal(err)
			}
			counts := svc.AssignmentCounts()
			for _, info := range infos {
				log.Printf("dppd master: session %s w=%.1f %d/%d splits, %d workers (target %d)",
					info.ID, info.Weight, info.Completed, info.Total, counts[info.ID], info.Target)
			}
			if o != nil {
				st := o.Status()
				log.Printf("dppd master: fleet %d live (%d draining, peak %d)", st.Live, st.Draining, st.Peak)
			}
		}
		if done, _ := svc.Done(); done && o == nil {
			log.Print("dppd master: every session complete")
			// Linger briefly so clients confirm completion over RPC
			// instead of finding a closed connection.
			time.Sleep(2 * time.Second)
			return
		}
	}
}

// runWorker joins a served Service as one fleet worker: it runs a
// pipeline for every session the service assigns it and serves them all
// on one framed data-plane listener, until the service drains it or
// goes away.
func runWorker(model string, seed int64, masterAddr, addr, id string) {
	wh, _ := buildWorkload(model, seed)
	rs, err := dpp.DialService(masterAddr)
	if err != nil {
		log.Fatal(err)
	}
	defer rs.Close()
	fw, stop, err := dpp.ListenAndServeFleetWorker(id, addr, rs, wh, func(fw *dpp.FleetWorker) {
		fw.CacheBytes = fleetCacheBytes
		fw.OnError = func(session string, err error) {
			log.Printf("dppd worker %s: session %s: %v", id, session, err)
		}
	})
	if err != nil {
		log.Fatal(err)
	}
	defer stop()
	log.Printf("dppd worker %s: serving tensors on %s", id, fw.Endpoint)
	// A service without a fleet controller never drains its workers;
	// they exit when it shuts down after its last session.
	if err := fw.Run(nil); err != nil {
		log.Printf("dppd worker %s: exiting: %v", id, err)
		return
	}
	log.Printf("dppd worker %s: drained, exiting", id)
}

// runClient joins one session of a served Service as its trainer.
func runClient(masterAddr, sessionID string) {
	rs, err := dpp.DialService(masterAddr)
	if err != nil {
		log.Fatal(err)
	}
	defer rs.Close()
	log.Printf("dppd client: joining session %s via %s", sessionID, masterAddr)
	rows, batches, bytes := consumeSession(rs, sessionID)
	log.Printf("dppd client: consumed %d rows in %d batches (%d bytes)", rows, batches, bytes)
}

// runSubmit registers a new session at the service, consumes it like a
// trainer, and closes it — the multi-tenant job-submission flow.
func runSubmit(model string, seed int64, masterAddr, sessionID string, weight float64, pipeline dpp.PipelineOptions, bufferDepth int) {
	if sessionID == "" {
		sessionID = fmt.Sprintf("job-%d", os.Getpid())
	}
	_, spec := buildWorkload(model, seed)
	rs, err := dpp.DialService(masterAddr)
	if err != nil {
		log.Fatal(err)
	}
	defer rs.Close()
	if err := rs.CreateSession(sessionID, tenantSpec(spec, pipeline, bufferDepth, weight)); err != nil {
		log.Fatal(err)
	}
	log.Printf("dppd submit: session %s registered (weight %.1f)", sessionID, weight)
	rows, batches, bytes := consumeSession(rs, sessionID)
	if err := rs.CloseSession(sessionID); err != nil {
		log.Printf("dppd submit: close: %v", err)
	}
	log.Printf("dppd submit: session %s consumed %d rows in %d batches (%d bytes), closed", sessionID, rows, batches, bytes)
}

// consumeSession drains one session through a tenant client.
func consumeSession(ctrl dpp.FleetControl, sessionID string) (rows int64, batches, bytes int64) {
	dial, err := dpp.SessionWorkerDialer(dpp.DataPlaneFramed, sessionID)
	if err != nil {
		log.Fatal(err)
	}
	client, err := dpp.NewTenantClient(ctrl, sessionID, dial, 0, 0)
	if err != nil {
		log.Fatal(err)
	}
	client.RefreshEvery = 50 * time.Millisecond
	for {
		b, ok, err := client.Next()
		if err != nil {
			log.Fatal(err)
		}
		if !ok {
			break
		}
		rows += int64(b.Rows)
		b.Release()
	}
	return rows, client.BatchesFetched, client.BytesFetched
}

// runDemo hosts the whole flow in one process: the service, its shared
// elastic fleet, and n concurrent tenants with weights 1..n, all over
// real TCP loopback.
func runDemo(model string, seed int64, pipeline dpp.PipelineOptions, bufferDepth, minWorkers, maxWorkers int, scaleInterval time.Duration, n int) {
	wh, spec := buildWorkload(model, seed)
	svc := dpp.NewService(wh)
	ln, stop, err := dpp.ServeService(svc, "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer stop()
	if maxWorkers <= 0 {
		maxWorkers = 4
	}
	if minWorkers < 1 {
		minWorkers = 1
	}
	launcher := &dpp.RPCFleetLauncher{
		ServiceAddr: ln.Addr().String(),
		WH:          wh,
		CacheBytes:  fleetCacheBytes,
		OnError: func(id string, err error) {
			log.Printf("dppd demo: worker %s failed: %v", id, err)
		},
	}
	o := dpp.NewFleetOrchestrator(svc, launcher, dpp.NewAutoScaler(minWorkers, maxWorkers))
	o.ScaleInterval = scaleInterval
	if o.ScaleInterval > 50*time.Millisecond {
		o.ScaleInterval = 50 * time.Millisecond // demo sessions are short
	}
	o.CheckpointEvery = 2 * o.ScaleInterval
	o.OnError = func(err error) { log.Printf("dppd demo: %v", err) }
	stopRun := make(chan struct{})
	runDone := make(chan error, 1)
	go func() { runDone <- o.Run(stopRun) }()

	rs, err := dpp.DialService(ln.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	defer rs.Close()
	start := time.Now()
	var wg sync.WaitGroup
	for i := 1; i <= n; i++ {
		id := fmt.Sprintf("s%d", i)
		if err := rs.CreateSession(id, tenantSpec(spec, pipeline, bufferDepth, float64(i))); err != nil {
			log.Fatal(err)
		}
		wg.Add(1)
		go func(id string, weight int) {
			defer wg.Done()
			rows, batches, _ := consumeSession(rs, id)
			log.Printf("dppd demo: tenant %s (weight %d) trained on %d rows in %d batches", id, weight, rows, batches)
		}(id, i)
	}
	wg.Wait()
	close(stopRun)
	if err := <-runDone; err != nil {
		log.Fatal(err)
	}
	st := o.Status()
	log.Printf("dppd demo: %d tenants shared one fleet over TCP in %v (peak %d workers, %d launched, %d drained)",
		n, time.Since(start).Round(time.Millisecond), st.Peak, st.Launched, st.Drained)
}

// Cache sizing and failure-model settings, set from flags in main: the
// fleet workers' shared batch cache budget, the warehouse's open-reader
// bound, the seeded fault storm, and the per-split release budget.
var (
	fleetCacheBytes    int64
	readerCacheLimit   int
	faultSeed          int64
	sessionRetryBudget int
)

// buildWorkload regenerates the deterministic synthetic dataset and
// session spec for the chosen model.
func buildWorkload(model string, seed int64) (*warehouse.Warehouse, dpp.SessionSpec) {
	p, err := datagen.ProfileByName(model)
	if err != nil {
		log.Fatal(err)
	}
	d, spec, err := BuildWorkload(p, seed)
	if err != nil {
		log.Fatal(err)
	}
	d.SetReaderCacheLimit(readerCacheLimit)
	spec.RetryBudget = sessionRetryBudget
	if faultSeed != 0 {
		cluster := d.Cluster()
		nodes := len(cluster.Nodes())
		sched := faults.NewSchedule(faultSeed)
		for n := 0; n < nodes; n++ {
			sched.Flaky(n, 0, 0, 0.1)
		}
		// Two seeded picks get the heavier roles; recovery is exercised
		// on every node either way since placement is hash-spread.
		corrupt := int(uint64(faultSeed) % uint64(nodes))
		slow := int((uint64(faultSeed) + 1) % uint64(nodes))
		sched.Corrupting(corrupt, 0, 0)
		sched.Slow(slow, 0, 0, 8)
		cluster.SetFaultSchedule(sched)
		log.Printf("dppd: fault storm installed (seed %d): all %d nodes flaky p=0.1, node %d corrupting, node %d slow 8x",
			faultSeed, nodes, corrupt, slow)
	}
	return d, spec
}
