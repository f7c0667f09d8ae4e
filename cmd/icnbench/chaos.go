package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/collect"
	"repro/internal/fault"
	"repro/internal/pipe"
	"repro/internal/probe"
	"repro/internal/serve"
	"repro/internal/services"
	"repro/internal/shard"
	"repro/internal/synth"
)

// The chaos soak stands up a live icnserve instance plus a TCP collector,
// runs N seeded fault schedules against them (injected dial refusals,
// mid-stream resets, ingest/fold/classify latency, queue pressure, and
// racing model swaps), and asserts three contracts per schedule:
//
//  1. Every 202-acked ingest batch survives a graceful shutdown — the
//     aggregate holds exactly acked×batch records.
//  2. Served clusters stay bit-identical to the offline pipeline's
//     Result.OutdoorLabels for whichever model revision the response
//     echoes, even while swaps race in-flight requests.
//  3. The process degrades (429/503, exporter retries) rather than losing
//     data or deadlocking — every leg and the final drain finish inside a
//     hard deadline.
//
// The fault decision streams are pure functions of the printed seed
// (fault.Digest over the same rules reproduces them without a server), so
// a failing schedule is rerun exactly with the reproduce line the driver
// prints. Which request consumes the n-th decision remains
// scheduling-dependent; the digest pins the plan, not the interleaving.

// chaosRules is the fixed fault schedule shape shared by every run; only
// the seed varies between schedules.
func chaosRules() map[fault.Site]fault.Rule {
	ms := time.Millisecond
	return map[fault.Site]fault.Rule{
		fault.Dial:      {ErrProb: 0.45},
		fault.ConnWrite: {ErrProb: 0.02, DelayProb: 0.10, Delay: ms},
		fault.ConnRead:  {DelayProb: 0.10, Delay: ms},
		fault.Ingest:    {DelayProb: 0.30, Delay: 2 * ms},
		fault.Fold:      {DelayProb: 0.60, Delay: 2 * ms},
		fault.ShardFold: {DelayProb: 0.40, Delay: 2 * ms},
		fault.Classify:  {DelayProb: 0.25, Delay: ms},
	}
}

// scheduleSeed derives the i-th schedule's injector seed from the base
// seed (splitmix64 finalizer, so adjacent schedules decorrelate).
func scheduleSeed(base uint64, i int) uint64 {
	x := base + 0x9E3779B97F4A7C15*uint64(i+1)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// chaosScheduleRecord is one schedule's outcome in the -chaosjson output.
type chaosScheduleRecord struct {
	Seed            string `json:"seed"`
	Digest          string `json:"digest"`
	AckedBatches    int    `json:"acked_batches"`
	RejectedBatches int    `json:"rejected_batches"`
	FoldedRecords   int    `json:"folded_records"`
	ClassifyOK      int    `json:"classify_ok"`
	ClassifyShed    int    `json:"classify_shed"`
	Swaps           int    `json:"swaps"`
	ExportBatches   int    `json:"export_batches"`
	ExportRetries   int    `json:"export_retries"`
	InjectedErrs    int    `json:"injected_errs"`
	InjectedDelays  int    `json:"injected_delays"`
}

// stormRecord is a storm leg's outcome in the -chaosjson output. The
// shard, replica and ring fields belong to the sharded storm.
type stormRecord struct {
	Seed            string `json:"seed"`
	Shards          int    `json:"shards,omitempty"`
	Replicas        int    `json:"replicas,omitempty"`
	RingDigest      string `json:"ring_digest,omitempty"`
	AckedBatches    int    `json:"acked_batches"`
	RejectedBatches int    `json:"rejected_batches"`
	FoldedRecords   int    `json:"folded_records"`
	ClassifyOK      int    `json:"classify_ok"`
	ClassifyShed    int    `json:"classify_shed"`
	Failovers       int64  `json:"failovers"`
	Swaps           int    `json:"swaps"`
	Refreshes       int    `json:"refreshes"`
	Escalations     int    `json:"escalations"`
	RevisionsSeen   int    `json:"revisions_seen"`
	InjectedErrs    int    `json:"injected_errs"`
	InjectedDelays  int    `json:"injected_delays"`
}

// chaosRecord is the -chaosjson schema.
type chaosRecord struct {
	Seed       uint64                `json:"seed"`
	Scale      float64               `json:"scale"`
	Trees      int                   `json:"trees"`
	PlanDigest string                `json:"plan_digest"`
	RevisionA  uint64                `json:"revision_a"`
	RevisionB  uint64                `json:"revision_b"`
	Schedules  []chaosScheduleRecord `json:"schedules"`
	SwapStorm  stormRecord           `json:"swap_storm"`
	ShardStorm stormRecord           `json:"shard_storm"`
}

const (
	// chaosSwaps is how many refresh-driven snapshot swaps the swap storm
	// must complete with parity held.
	chaosSwaps = 50
	// chaosShards is the sharded storm's ring size; one shard and one of
	// its two replicas are killed mid-soak.
	chaosShards = 3
	// stormClients classify concurrently for a storm's whole lifetime.
	stormClients = 3
	// probeAntennas is the outdoor-row classify batch every chaos leg posts.
	probeAntennas = 32
)

// runChaos trains two model snapshots (a "retrain" pair over the same
// synthetic population) and soaks them under schedules seeded fault plans,
// then runs the refresher swap storm: chaosSwaps consecutive
// refresh-driven snapshot publishes raced against classify load under the
// same fault rules, each response audited against the offline result of
// whichever revision it echoes. The sharded storm closes the soak.
func runChaos(cfg analysis.Config, schedules int, outPath string) error {
	if schedules <= 0 {
		schedules = 3
	}
	rules := chaosRules()
	plan := uint64(0xcbf29ce484222325)
	for i := 0; i < schedules; i++ {
		d := fault.Digest(scheduleSeed(cfg.Seed, i), rules, 512)
		plan = (plan ^ d) * 0x100000001b3
	}
	fmt.Printf("icnbench: chaos plan digest %#016x (seed=%d schedules=%d)\n", plan, cfg.Seed, schedules)

	fmt.Fprintf(os.Stderr, "icnbench: training snapshot pair (seed=%d scale=%.2f trees=%d/%d)...\n",
		cfg.Seed, cfg.Scale, cfg.ForestTrees, cfg.ForestTrees+2)
	synthCfg := synth.Config{Seed: cfg.Seed, Scale: cfg.Scale, OutdoorCount: 120}
	resA, err := analysis.RunOnDataset(synth.Generate(synthCfg), cfg)
	if err != nil {
		return err
	}
	cfgB := cfg
	cfgB.ForestTrees = cfg.ForestTrees + 2
	resB, err := analysis.RunOnDataset(synth.Generate(synthCfg), cfgB)
	if err != nil {
		return err
	}
	snapA, err := serve.NewModelSnapshot(resA)
	if err != nil {
		return err
	}
	snapB, err := serve.NewModelSnapshot(resB)
	if err != nil {
		return err
	}
	if snapA.Revision == snapB.Revision {
		return fmt.Errorf("icnbench: chaos needs two distinct model revisions, both fingerprint to %#x", snapA.Revision)
	}
	// Offline ground truth per revision: invariant 2 checks every classify
	// response against the labels of the model revision it echoes.
	pair := map[uint64]*analysis.Result{snapA.Revision: resA, snapB.Revision: resB}
	resultFor := func(rev uint64) (*analysis.Result, bool) {
		res, ok := pair[rev]
		return res, ok
	}
	batch, err := outdoorBatch(resA, 0, probeAntennas)
	if err != nil {
		return err
	}

	rec := chaosRecord{
		Seed: cfg.Seed, Scale: cfg.Scale, Trees: cfg.ForestTrees,
		PlanDigest: fmt.Sprintf("%#016x", plan),
		RevisionA:  snapA.Revision, RevisionB: snapB.Revision,
	}
	reproduce := fmt.Sprintf("go run ./cmd/icnbench -chaos -seed %d -chaosschedules %d -scale %g -trees %d",
		cfg.Seed, schedules, cfg.Scale, cfg.ForestTrees)
	failed := func(leg string, seed uint64, err error) error {
		fmt.Printf("icnbench: chaos %s FAILED (seed %#016x): %v\n", leg, seed, err)
		fmt.Printf("icnbench: reproduce with: %s\n", reproduce)
		return fmt.Errorf("icnbench: chaos %s: %w", leg, err)
	}
	for i := 0; i < schedules; i++ {
		si := scheduleSeed(cfg.Seed, i)
		sr, err := runChaosSchedule(si, rules, snapA, snapB, batch, resultFor)
		if err != nil {
			return failed(fmt.Sprintf("schedule %d", i), si, err)
		}
		sr.Digest = fmt.Sprintf("%#016x", fault.Digest(si, rules, 512))
		fmt.Printf("icnbench: chaos schedule %d OK — seed %#016x acked=%d rejected=%d folded=%d classify_ok=%d shed=%d swaps=%d exports=%d retries=%d faults(err=%d delay=%d)\n",
			i, si, sr.AckedBatches, sr.RejectedBatches, sr.FoldedRecords,
			sr.ClassifyOK, sr.ClassifyShed, sr.Swaps, sr.ExportBatches, sr.ExportRetries,
			sr.InjectedErrs, sr.InjectedDelays)
		rec.Schedules = append(rec.Schedules, sr)
	}

	stormSeed := scheduleSeed(cfg.Seed, schedules)
	rec.SwapStorm, err = runSwapStorm(stormSeed, rules, resA, batch)
	if err != nil {
		return failed("swap storm", stormSeed, err)
	}
	ss := rec.SwapStorm
	fmt.Printf("icnbench: chaos swap storm OK — seed %#016x swaps=%d refreshes=%d escalations=%d classify_ok=%d shed=%d revisions_seen=%d faults(err=%d delay=%d)\n",
		stormSeed, ss.Swaps, ss.Refreshes, ss.Escalations, ss.ClassifyOK, ss.ClassifyShed,
		ss.RevisionsSeen, ss.InjectedErrs, ss.InjectedDelays)

	shardSeed := scheduleSeed(cfg.Seed, schedules+1)
	rec.ShardStorm, err = runShardStorm(shardSeed, rules, resA, batch)
	if err != nil {
		return failed("shard storm", shardSeed, err)
	}
	sh := rec.ShardStorm
	fmt.Printf("icnbench: chaos shard storm OK — seed %#016x ring=%s acked=%d rejected=%d folded=%d classify_ok=%d shed=%d failovers=%d swaps=%d revisions=%d faults(err=%d delay=%d)\n",
		shardSeed, sh.RingDigest, sh.AckedBatches, sh.RejectedBatches, sh.FoldedRecords,
		sh.ClassifyOK, sh.ClassifyShed, sh.Failovers, sh.Swaps, sh.RevisionsSeen,
		sh.InjectedErrs, sh.InjectedDelays)
	fmt.Printf("icnbench: chaos PASS — %d schedules, all invariants held; reproduce with: %s\n", schedules, reproduce)

	if outPath == "" {
		return nil
	}
	return writeJSON(outPath, "chaos record", rec)
}

// chaosExportRecords builds one exporter batch tagged with the batch index
// so partial deliveries from retried attempts stay distinguishable.
func chaosExportRecords(batch, n int) []probe.Record {
	recs := make([]probe.Record, n)
	for i := range recs {
		recs[i] = probe.Record{
			Hour: uint32(i % 24), AntennaID: uint32(batch), Protocol: probe.TCP,
			ServerPort: 443, ServerName: "chaos.example",
			DownBytes: 1 << 20, UpBytes: 1 << 16,
		}
	}
	return recs
}

// runChaosSchedule executes one seeded fault schedule and checks the three
// soak invariants. All legs share one injector, so the schedule exercises
// cross-seam interleavings while each seam's decision stream stays a pure
// function of the seed.
func runChaosSchedule(seed uint64, rules map[fault.Site]fault.Rule, snapA, snapB *serve.ModelSnapshot,
	batch classifyBatch, resultFor func(uint64) (*analysis.Result, bool),
) (chaosScheduleRecord, error) {
	var out chaosScheduleRecord
	out.Seed = fmt.Sprintf("%#016x", seed)
	// Invariant 3's outer bound: nothing below may hang past this.
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()

	inj := fault.New(seed, rules)
	srv, err := serve.New(snapA, nil, serve.Config{QueueDepth: 16, IngestWorkers: 2, Faults: inj})
	if err != nil {
		return out, err
	}
	if err := srv.Start(); err != nil {
		return out, err
	}
	d := newDriver("http://"+srv.Addr().String(), 30*time.Second, sendOnce)

	col, err := collect.ListenContext(ctx, "127.0.0.1:0")
	if err != nil {
		_ = srv.Shutdown(ctx)
		return out, err
	}
	colCtx, colCancel := context.WithCancel(ctx)
	defer colCancel()
	var colTasks pipe.Tasks
	defer colTasks.Wait()
	colTasks.Go(func() { _ = col.Serve(colCtx) })

	const (
		ingestBatches, ingestPerBatch = 40, 25
		classifyClients, classifyReqs = 3, 12
		swapCount                     = 8
		exportBatches, exportPerBatch = 10, 30
		exportAttempts                = 12
	)
	ingestStream, err := encodeProbes(chaosExportRecords(0, ingestPerBatch))
	if err != nil {
		return out, err
	}

	var (
		errs legErrs
		legs pipe.Tasks
	)

	// Leg 1: ingest pressure. 202s are a durability promise; 429/503 is
	// sanctioned degradation under the injected fold delays.
	acked := 0
	legs.Go(func() {
		for b := 0; b < ingestBatches; b++ {
			ok, shed, err := d.ingest(ctx, ingestStream)
			if err != nil {
				errs.fail(fmt.Errorf("ingest leg: %w", err))
				return
			}
			if ok {
				acked++
			}
			out.RejectedBatches += shed
		}
	})

	// Leg 2: classify parity under racing swaps (invariant 2). Every 200
	// must match the offline labels of the revision the response echoes.
	classifyOK := make([]int, classifyClients)
	classifyShed := make([]int, classifyClients)
	for c := 0; c < classifyClients; c++ {
		legs.Go(func() {
			for r := 0; r < classifyReqs; r++ {
				got, err := d.classify(ctx, batch, resultFor)
				if err != nil {
					errs.fail(fmt.Errorf("classify leg %d: %w", c, err))
					return
				}
				if got.shed {
					classifyShed[c]++
				} else {
					classifyOK[c]++
				}
			}
		})
	}

	// Leg 3: model swaps racing the classify load; each swap purges the
	// verdict LRU, so no verdict outlives the model that computed it.
	legs.Go(func() {
		for sw := 0; sw < swapCount; sw++ {
			next := snapB
			if sw%2 == 1 {
				next = snapA
			}
			if err := srv.SwapSnapshot(next); err != nil {
				errs.fail(fmt.Errorf("swap leg: %w", err))
				return
			}
			out.Swaps++
			time.Sleep(5 * time.Millisecond)
		}
	})

	// Leg 4: exporter durability through the faulted dialer. Dial refusals
	// back off and retry inside Export; a mid-stream reset fails the whole
	// attempt and the batch is re-sent — at-least-once, never lost.
	exportRetries := 0
	legs.Go(func() {
		for b := 0; b < exportBatches; b++ {
			recs := chaosExportRecords(b, exportPerBatch)
			delivered := false
			for attempt := 0; attempt < exportAttempts; attempt++ {
				err := collect.Export(ctx, col.Addr().String(), recs,
					collect.WithDialRetry(6, time.Millisecond),
					collect.WithRetrySeed(seed+uint64(b)),
					collect.WithDialContext(inj.Dialer(nil)))
				if err == nil {
					delivered = true
					break
				}
				exportRetries++
				if ctx.Err() != nil {
					errs.fail(fmt.Errorf("export leg: %w", ctx.Err()))
					return
				}
			}
			if !delivered {
				errs.fail(fmt.Errorf("export leg: batch %d lost after %d attempts", b, exportAttempts))
				return
			}
			out.ExportBatches++
		}
	})

	legs.Wait()
	for c := range classifyOK {
		out.ClassifyOK += classifyOK[c]
		out.ClassifyShed += classifyShed[c]
	}
	out.AckedBatches = acked
	out.ExportRetries = exportRetries

	// Fault counters must be visible on /metrics while the server is live.
	if resp, err := http.Get(d.url + "/metrics"); err == nil {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if !strings.Contains(string(body), "icn_fault_serve_fold_delays") {
			errs.fail(fmt.Errorf("metrics: no icn_fault_serve_fold_delays counter exported"))
		}
	} else {
		errs.fail(fmt.Errorf("metrics: %w", err))
	}

	// Invariant 3: the drain itself is bounded.
	sdCtx, sdCancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer sdCancel()
	if err := srv.Shutdown(sdCtx); err != nil {
		errs.fail(fmt.Errorf("shutdown under fault (possible deadlock): %w", err))
	}
	colCancel()
	colTasks.Wait()

	// Invariant 1: exactly the acked ingest records, no more, no fewer.
	out.FoldedRecords = srv.Sink().Snapshot().Records
	if want := acked * ingestPerBatch; out.FoldedRecords != want {
		errs.fail(fmt.Errorf("acked-batch loss: aggregate holds %d records, want %d (%d acked × %d)",
			out.FoldedRecords, want, acked, ingestPerBatch))
	}
	// Exporter at-least-once: every delivered batch is fully present.
	if got, want := col.Sink().Snapshot().Records, out.ExportBatches*exportPerBatch; got < want {
		errs.fail(fmt.Errorf("export loss: collector holds %d records, want >= %d", got, want))
	}
	out.InjectedErrs, out.InjectedDelays = faultTotals(inj)
	return out, errs.first()
}

// storm is the loop both storm legs run against their tier. Classify
// clients post the probe batch for the storm's whole lifetime, so every
// swap and kill races in-flight requests, and every 200 is audited against
// the offline result of the revision it echoes. Meanwhile the loop ingests
// one generated batch per iteration, waits for it to fold, and refreshes,
// until the tier has swapped the wanted number of times. The first warmup
// iterations only ingest; midway, if set, runs before iteration warmup/2.
type storm struct {
	url       string
	resultFor func(uint64) (*analysis.Result, bool)
	refresh   func(context.Context) (serve.RefreshOutcome, error)
	folded    func() int // records folded into the tier's aggregates
	shutdown  func(context.Context) error
	// records is the leg's batch generator; it decides whether a refresh
	// has anything to swap.
	records func(iter int) []probe.Record
	warmup  int
	midway  func() error
}

// run drives the storm to swaps swaps and then checks that the drain is
// bounded and folds exactly the acked records, filling out's counters.
func (s storm) run(ctx context.Context, batch classifyBatch, swaps int, out *stormRecord) error {
	var errs legErrs
	d := newDriver(s.url, 30*time.Second, stormRetry)

	var (
		mu      sync.Mutex
		revSeen = map[uint64]bool{}
		stop    = make(chan struct{})
		clients pipe.Tasks
	)
	for c := 0; c < stormClients; c++ {
		clients.Go(func() {
			for {
				select {
				case <-stop:
					return
				default:
				}
				got, err := d.classify(ctx, batch, s.resultFor)
				if err != nil {
					errs.fail(fmt.Errorf("classify client %d: %w", c, err))
					return
				}
				mu.Lock()
				if got.shed {
					out.ClassifyShed++
				} else {
					out.ClassifyOK++
					revSeen[got.rev] = true
				}
				mu.Unlock()
			}
		})
	}

	acked := 0
	maxIters := s.warmup + 3*swaps + 10
	for iter := 0; out.Swaps < swaps && errs.first() == nil; iter++ {
		if iter >= maxIters {
			errs.fail(fmt.Errorf("only %d/%d swaps after %d iterations", out.Swaps, swaps, iter))
			break
		}
		if iter == s.warmup/2 && s.midway != nil {
			if err := s.midway(); err != nil {
				errs.fail(err)
				break
			}
		}
		recs := s.records(iter)
		stream, err := encodeProbes(recs)
		if err != nil {
			errs.fail(fmt.Errorf("ingest %d: %w", iter, err))
			break
		}
		// 429/503 under queue pressure is sanctioned degradation: the
		// driver backs off and re-sends until the batch is acked.
		landed, shed, err := d.ingest(ctx, stream)
		out.RejectedBatches += shed
		if err == nil && !landed {
			err = fmt.Errorf("batch never acked in %d attempts", d.attempts)
		}
		if err != nil {
			errs.fail(fmt.Errorf("ingest %d: %w", iter, err))
			break
		}
		out.AckedBatches++
		acked += len(recs)
		if iter < s.warmup {
			continue
		}
		// The ack is a durability promise, not a visibility one: wait for
		// the batch to clear the faulted fold path so the refresh sees it.
		for s.folded() < acked && ctx.Err() == nil {
			time.Sleep(time.Millisecond)
		}
		rctx, rcancel := context.WithTimeout(ctx, 2*time.Minute)
		ro, err := s.refresh(rctx)
		rcancel()
		if err != nil {
			errs.fail(fmt.Errorf("refresh %d: %w", iter, err))
			break
		}
		out.Refreshes++
		if ro.Stats.Escalated {
			out.Escalations++
		}
		if ro.Swapped {
			out.Swaps++
		}
	}
	close(stop)
	clients.Wait()
	out.RevisionsSeen = len(revSeen)

	// The drain stays bounded with the storm's history behind it, and
	// folds every acked batch (a killed shard's drained aggregate
	// included).
	sdCtx, sdCancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer sdCancel()
	if err := s.shutdown(sdCtx); err != nil {
		errs.fail(fmt.Errorf("shutdown (possible deadlock): %w", err))
	}
	out.FoldedRecords = s.folded()
	if out.FoldedRecords != acked {
		errs.fail(fmt.Errorf("acked-batch loss: aggregates hold %d records, want %d (%d acked batches)",
			out.FoldedRecords, acked, out.AckedBatches))
	}
	return errs.first()
}

// runSwapStorm closes the ingest → refresh → swap loop under fire on one
// server: a Refresher drives chaosSwaps consecutive snapshot publishes,
// each seeded by fresh aggregates landing through the faulted fold path.
// Parity resolves through the refresher's revision registry, so the
// served↔offline invariant is audited across the entire swap history, not
// just a retrain pair.
func runSwapStorm(seed uint64, rules map[fault.Site]fault.Rule, base *analysis.Result, batch classifyBatch) (stormRecord, error) {
	out := stormRecord{Seed: fmt.Sprintf("%#016x", seed)}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	inj := fault.New(seed, rules)
	snap, err := serve.NewModelSnapshot(base)
	if err != nil {
		return out, err
	}
	srv, err := serve.New(snap, nil, serve.Config{QueueDepth: 64, IngestWorkers: 2, Faults: inj})
	if err != nil {
		return out, err
	}
	if err := srv.Start(); err != nil {
		return out, err
	}
	// Interval: time.Hour — the storm paces refreshes by swap count, not
	// wall time, so RefreshOnce is driven manually. History must outlast
	// the storm: a response may echo any revision ever published.
	ref, err := serve.NewRefresher(srv, base, serve.RefreshConfig{
		Interval: time.Hour,
		History:  chaosSwaps + 16,
	})
	if err != nil {
		sdCtx, sdCancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer sdCancel()
		_ = srv.Shutdown(sdCtx)
		return out, err
	}

	// Rotating antennas and growing volumes keep every fold perturbing the
	// Eq. 5 shares, so each refresh mints a fresh fingerprint; periodic
	// wide bursts push reassignment toward the escalation path. Real
	// catalog domains: the fold must land in the classified traffic matrix,
	// or the refresh has nothing to do.
	nIndoor := base.Dataset.Traffic.Rows()
	err = storm{
		url:       "http://" + srv.Addr().String(),
		resultFor: ref.ResultFor,
		refresh:   ref.RefreshOnce,
		folded:    func() int { return srv.Sink().Snapshot().Records },
		shutdown:  srv.Shutdown,
		records: func(iter int) []probe.Record {
			spread := 1
			if iter%7 == 6 {
				spread = 17 // burst across distant antennas
			}
			recs := make([]probe.Record, 25)
			for j := range recs {
				recs[j] = probe.Record{
					Hour: uint32(j % 24), AntennaID: uint32((iter*13 + j*spread) % nIndoor),
					Protocol: probe.TCP, ServerPort: 443,
					ServerName: probe.DomainOf((iter + j) % services.M),
					DownBytes:  (1 + uint64(iter%5)) << 20, UpBytes: 1 << 16,
				}
			}
			return recs
		},
	}.run(ctx, batch, chaosSwaps, &out)
	out.InjectedErrs, out.InjectedDelays = faultTotals(inj)
	return out, err
}

// runShardStorm soaks the sharded tier under the same seeded fault rules:
// ingest and classify load through the router while one shard and one
// replica are killed mid-flight, then a refresh fans a new revision out to
// the survivors. Ingest retries re-partition against the updated ring,
// which is how acked batches survive the shard kill.
func runShardStorm(seed uint64, rules map[fault.Site]fault.Rule, base *analysis.Result, batch classifyBatch) (stormRecord, error) {
	out := stormRecord{Seed: fmt.Sprintf("%#016x", seed), Shards: chaosShards, Replicas: 2}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	inj := fault.New(seed, rules)
	snap, err := serve.NewModelSnapshot(base)
	if err != nil {
		return out, err
	}
	rt, err := shard.NewRouter(snap, base, shard.Config{
		Shards: chaosShards, Replicas: out.Replicas,
		RingSeed: seed, QueueDepth: 8, Faults: inj,
	})
	if err != nil {
		return out, err
	}
	if err := rt.Start(); err != nil {
		return out, err
	}
	out.RingDigest = fmt.Sprintf("%016x", rt.Ring().Digest())

	// 30 ingest-only batches with the kills after the first 15: one shard
	// (its queue drains every acked batch before the kill returns) and one
	// replica (proxied classifies fail over). Then refresh under fire: the
	// fold of the merged cross-shard totals is published through the
	// fan-out — register, swap, fan out — the protocol the classify
	// clients audit per echoed revision.
	nIndoor := base.Dataset.Traffic.Rows()
	err = storm{
		url:       rt.URL(),
		resultFor: rt.ResultFor,
		refresh:   rt.RefreshOnce,
		folded:    rt.Sinks().FoldedRecords,
		shutdown:  rt.Shutdown,
		records: func(iter int) []probe.Record {
			recs := make([]probe.Record, 25)
			for j := range recs {
				recs[j] = probe.Record{
					Hour: uint32(j % 24), AntennaID: uint32((iter*19 + j) % nIndoor),
					Protocol: probe.TCP, ServerPort: 443,
					ServerName: probe.DomainOf((iter + j) % services.M),
					DownBytes:  (1 + uint64(iter%4)) << 20, UpBytes: 1 << 16,
				}
			}
			return recs
		},
		warmup: 30,
		midway: func() error {
			if err := rt.KillShard(chaosShards - 1); err != nil {
				return fmt.Errorf("kill shard: %w", err)
			}
			kctx, kcancel := context.WithTimeout(ctx, 30*time.Second)
			defer kcancel()
			if err := rt.KillReplica(kctx, 1); err != nil {
				return fmt.Errorf("kill replica: %w", err)
			}
			return nil
		},
	}.run(ctx, batch, 1, &out)
	out.Failovers = rt.Stats().ClassifyFailovers
	out.InjectedErrs, out.InjectedDelays = faultTotals(inj)
	return out, err
}
