package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"time"

	icn "repro"
	"repro/internal/collect"
	"repro/internal/mat"
	"repro/internal/probe"
	"repro/internal/rca"
	"repro/internal/serve"
	"repro/internal/shard"
)

// runTraced is the separate traced pass. It covers every layer group on
// the seed's inputs, whichever workload is named, so each traced run
// prints the full per-layer set: the offline pipeline stages, the bulk
// classify path and the online mix's serving, ingest and refresh layers.
// Each group also reports its tracing overhead: the traced figure minus
// the untraced one measured in the same run.
func runTraced(ctx context.Context, workload string, seed uint64, d time.Duration, lg *ledger) (*report, error) {
	m, err := train(ctx, seed)
	if err != nil {
		return nil, err
	}
	t, err := startTier(m, nil)
	if err != nil {
		return nil, err
	}
	defer t.close()
	bodies, err := bulkBodies(m)
	if err != nil {
		return nil, err
	}
	in, err := buildMixedInputs(m)
	if err != nil {
		return nil, err
	}
	if err := warmBulk(t, bodies); err != nil {
		return nil, err
	}
	if err := warmMixed(t, in); err != nil {
		return nil, err
	}
	tr := &tracer{}
	rep := &report{}
	if err := tracedOffline(ctx, m, tr, rep, lg); err != nil {
		return nil, fmt.Errorf("offline layers: %w", err)
	}
	if err := tracedClassify(t, bodies, tr, rep, lg); err != nil {
		return nil, fmt.Errorf("classify layers: %w", err)
	}
	if err := tracedMixed(ctx, t, in, seed, d, tr, rep, lg); err != nil {
		return nil, fmt.Errorf("online layers: %w", err)
	}
	path := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	rep.add(row{name: "trace_file", note: path})
	return rep, nil
}

// layer records one per-layer metric in both the JSON and the report.
func (r *report) layer(name string, v float64, unit string, n int) {
	r.set(name, v, unit)
	r.add(row{name: name, value: v, unit: unit, n: n})
}

// tracedReps is how many traced pipelines and traced mixed rungs one
// traced run makes; the per-layer figures are their medians.
const tracedReps = 3

// tracedOffline runs the cold pipeline untraced and traced, tracedReps
// times each. The traced run's layer spans are the program's own stage
// records (Result.Trace), copied into the tracer after the run, plus the
// calls splitOffline times on their own once the run is over, so the
// traced Run itself carries no span of the benchmark's.
func tracedOffline(ctx context.Context, m *model, tr *tracer, rep *report, lg *ledger) error {
	var untraced, traced, busy, allocs []float64
	for i := 0; i < tracedReps; i++ {
		settle()
		plain := offlineRuns(ctx, m, 0, 1, lg, nil)
		if len(plain) == 0 {
			return errors.New(lg.summary())
		}
		untraced = append(untraced, plain[0])
		settle()
		op := tr.newOp()
		root := tr.begin(op, 0, "pipeline")
		var res *icn.Result
		walls := offlineRuns(ctx, m, 0, 1, lg, func(r *icn.Result) { res = r })
		tr.end(root)
		if len(walls) == 0 {
			return errors.New(lg.summary())
		}
		traced = append(traced, walls[0])
		busy = append(busy, recordStages(tr, op, root, "", res.Trace())/(walls[0]*1000))
		split := tr.begin(op, 0, "pipeline.split")
		allocMB, err := splitOffline(ctx, res, tr, op, split)
		tr.end(split)
		lg.op(err)
		if err != nil {
			return err
		}
		allocs = append(allocs, allocMB)
	}
	for _, name := range []string{"rca.rsca", "mat.pairwise", "cluster.ward", "cluster.sweepk", "forest.train",
		"forest.predict_outdoor", "analysis.temporal", "forecast.fitset"} {
		rep.layer(name+"_ms", median(tr.durByName(name)), "ms", tracedReps)
	}
	rep.layer("forest.train_alloc_mb", median(allocs), "MB", tracedReps)
	rep.layer("pipeline.busy_ratio", median(busy), "ratio", tracedReps)
	rep.layer("offline.trace_overhead_ms", (median(traced)-median(untraced))*1000, "ms", tracedReps)
	return nil
}

// classifyRounds is how often the traced pass sends each bulk body.
const classifyRounds = 2

func tracedClassify(t *tier, bodies [][]byte, tr *tracer, rep *report, lg *ledger) error {
	untraced, err := classifyLayers(t, bodies, classifyRounds, tr, lg)
	if err != nil {
		return err
	}
	med := map[string]float64{}
	for _, name := range classifyLayerNames {
		med[name] = median(tr.durByName(name))
	}
	n := len(tr.durByName("serve.handler"))
	sizes := make([]float64, len(bodies))
	for i, b := range bodies {
		sizes[i] = float64(len(b))
	}
	rep.layer("serve.request_bytes", median(sizes), "B", len(bodies))
	for _, name := range []string{"serve.decode", "rca.eq5", "forest.predict", "serve.encode", "serve.handler"} {
		rep.layer(name+"_ms", med[name], "ms", n)
	}
	// The differences are taken within each operation, which sent one
	// body through every layer, and their median reported.
	var http, proxy, unexplained []float64
	for _, d := range tr.opDurations() {
		h, ok := d["serve.handler"]
		if !ok {
			continue
		}
		http = append(http, d["serve.direct"]-h)
		proxy = append(proxy, d["shard.router"]-d["serve.direct"])
		unexplained = append(unexplained, h-d["serve.decode"]-d["rca.eq5"]-d["forest.predict"]-d["serve.encode"])
	}
	rep.layer("serve.http_ms", median(http), "ms", n)
	rep.layer("shard.proxy_ms", median(proxy), "ms", n)
	rep.layer("classify.unexplained_ms", median(unexplained), "ms", n)
	rep.layer("classify.trace_overhead_ms", med["shard.router"]-median(untraced), "ms", n)
	return nil
}

// refreshBreakdown splits each refresh of the traced rung into its
// layers, in RefreshOnce order. Reading the totals and folding them into
// the accumulator are timed on a replay right before the real refresh,
// with ingest held back, on the state the refresh is about to read; the
// warm pipeline's figures are the stage records of the result the refresh
// published; the snapshot and the swap are timed again on that result.
type refreshBreakdown struct {
	t   *tier
	tr  *tracer
	acc *rca.Accumulator
	// spare is a standalone server the swap is timed on, so the timed
	// swap does not pre-empt the real one.
	spare *serve.Server
	dirty []float64
	escal float64
	// op, root and traffic belong to the refresh in flight.
	op, root uint64
	traffic  *mat.Dense
}

func newRefreshBreakdown(t *tier, tr *tracer) (*refreshBreakdown, error) {
	acc, err := rca.NewAccumulator(t.m.res.Dataset.Traffic)
	if err != nil {
		return nil, err
	}
	spare, err := serve.New(t.m.snap, nil, serve.Config{})
	if err != nil {
		return nil, err
	}
	return &refreshBreakdown{t: t, tr: tr, acc: acc, spare: spare}, nil
}

func (b *refreshBreakdown) close() error {
	return b.spare.Shutdown(context.Background())
}

// before replays the refresh's fold of the shard totals.
func (b *refreshBreakdown) before() error {
	tr, rt := b.tr, b.t.rt
	b.op = tr.newOp()
	b.root = tr.begin(b.op, 0, "refresh.breakdown")
	rows, cols := b.acc.Rows(), b.acc.Cols()
	var totals *mat.Dense
	var dirty []int
	tr.timed(b.op, b.root, "shard.totals", func() { totals = rt.Sinks().TrafficMatrix(rows, cols) })
	var err error
	tr.timed(b.op, b.root, "rca.accumulate", func() {
		if err = b.acc.SetTotals(totals); err == nil {
			b.traffic, dirty = b.acc.Materialize()
		}
	})
	b.dirty = append(b.dirty, float64(len(dirty)))
	return err
}

// after reads the warm pipeline's stages from the published result and
// times its snapshot and swap.
func (b *refreshBreakdown) after(out serve.RefreshOutcome, start, end time.Time) error {
	tr := b.tr
	defer tr.end(b.root)
	once := tr.record(b.op, b.root, "refresh.once", start, end)
	res, ok := b.t.rt.ResultFor(out.Revision)
	if !ok {
		return fmt.Errorf("refresh published revision %016x with no registered result", out.Revision)
	}
	if !sameMatrix(res.Dataset.Traffic, b.traffic) {
		return errors.New("the refresh trained on other traffic than its replay folded")
	}
	if out.Stats.Escalated {
		b.escal++
	}
	trace := res.Trace()
	warm := tr.record(b.op, once, "analysis.warm", trace.Start(), trace.Start().Add(trace.Total()))
	recordStages(tr, b.op, warm, "refresh.", trace)
	var snap *icn.ModelSnapshot
	var err error
	tr.timed(b.op, b.root, "serve.snapshot", func() { snap, err = icn.NewModelSnapshot(res) })
	if err != nil {
		return err
	}
	if snap.Revision != out.Revision {
		return fmt.Errorf("snapshot of the published result is revision %016x, the refresh published %016x", snap.Revision, out.Revision)
	}
	tr.timed(b.op, b.root, "serve.swap", func() { err = b.spare.SwapSnapshot(snap) })
	return err
}

func sameMatrix(a, b *mat.Dense) bool {
	if a == nil || b == nil || a.Rows() != b.Rows() || a.Cols() != b.Cols() {
		return false
	}
	for i := 0; i < a.Rows(); i++ {
		ra, rb := a.Row(i), b.Row(i)
		for j := range ra {
			if math.Float64bits(ra[j]) != math.Float64bits(rb[j]) {
				return false
			}
		}
	}
	return true
}

// tracedMixed runs the reference rate untraced, then traced with every
// refresh broken down, and replays the acked ingest batches through the
// ingest layers.
func tracedMixed(ctx context.Context, t *tier, in *mixedInputs, seed uint64, d time.Duration, tr *tracer, rep *report, lg *ledger) error {
	rungD := d / 4
	if rungD < 5*time.Second {
		rungD = 5 * time.Second
	}
	spec := rungSpec{rate: mixedLadder[mixedRefRung], ingest: ingestRate, d: rungD, refresh: true}
	var fanoutMS []float64
	plain := newMixedRun(t, in, lg)
	before := replicaStats(t)
	rejected := t.rt.Stats().RejectedBatches
	base, err := plain.rung(ctx, mixRNG(seed, 100), spec)
	if err != nil {
		return err
	}
	after := replicaStats(t)
	if err := plain.check(ctx); err != nil {
		return err
	}
	hits, misses := after.CacheHits-before.CacheHits, after.CacheMisses-before.CacheMisses
	fh, fm := after.ForecastCacheHits-before.ForecastCacheHits, after.ForecastCacheMisses-before.ForecastCacheMisses
	rep.layer("serve.cache_hit_ratio", ratio(hits, hits+misses), "ratio", int(hits+misses))
	rep.layer("serve.forecast_cache_hit_ratio", ratio(fh, fh+fm), "ratio", int(fh+fm))
	rep.layer("gen.lateness_tail_ms", quantile(base.lateness, 0.9), "ms", len(base.lateness))
	rep.layer("shard.pending_records_max", float64(base.pendingMax), "count", 1)
	rep.layer("shard.rejected_429", float64(t.rt.Stats().RejectedBatches-rejected), "count", 1)

	// The traced rungs: every refresh is broken down into its layers,
	// with ingest held back so the replay and the refresh read one state.
	bd, err := newRefreshBreakdown(t, tr)
	if err != nil {
		return err
	}
	defer bd.close()
	// Bring the replay's accumulator level with the refresher's: with
	// every acked record folded and no request in flight, one refresh and
	// the priming read the same totals.
	if err := waitDrained(ctx, t.rt); err != nil {
		return err
	}
	if _, err := plain.refresh(ctx); err != nil {
		return err
	}
	if err := primeBreakdown(bd, t); err != nil {
		return err
	}
	mr := newMixedRun(t, in, lg)
	mr.breakdown = bd
	var tracedCl []float64
	var sent []int
	var refreshes []serve.RefreshOutcome
	for i := 0; i < tracedReps; i++ {
		traced, err := mr.rung(ctx, mixRNG(seed, uint64(101+i)), spec)
		if err != nil {
			return err
		}
		tracedCl = append(tracedCl, traced.classify...)
		sent = append(sent, traced.sent...)
		refreshes = append(refreshes, traced.refreshes...)
		fanoutMS = append(fanoutMS, t.rt.Stats().LastFanoutMS)
	}
	if err := mr.check(ctx); err != nil {
		return err
	}
	rep.layer("mixed.trace_overhead_ms", median(tracedCl)-median(base.classify), "ms", len(tracedCl))

	if err := replayIngest(t, in, sent, tr, lg); err != nil {
		return err
	}
	for _, name := range []string{"probe.parse", "shard.partition", "shard.offer", "collect.fold"} {
		xs := tr.durByName(name)
		rep.layer(name+"_ms", median(xs), "ms", len(xs))
	}

	var realMS []float64
	for _, o := range refreshes {
		realMS = append(realMS, float64(o.Duration.Nanoseconds())/1e6)
	}
	n := len(realMS)
	parts := map[string]float64{}
	for _, l := range []struct{ span, metric string }{
		{"shard.totals", "shard.totals_ms"},
		{"rca.accumulate", "rca.accumulate_ms"},
		{"analysis.warm", "analysis.warm_ms"},
		{"refresh.cluster.warm_assign", "cluster.warm_assign_ms"},
		{"refresh.forest.train", "refresh.forest.train_ms"},
		{"refresh.forecast.fitset", "refresh.forecast.fitset_ms"},
		{"serve.snapshot", "serve.snapshot_ms"},
		{"serve.swap", "serve.swap_ms"},
	} {
		parts[l.span] = median(tr.durByName(l.span))
		rep.layer(l.metric, parts[l.span], "ms", n)
	}
	rep.layer("shard.fanout_ms", median(fanoutMS), "ms", len(fanoutMS))
	rep.layer("refresh.dirty_rows", median(bd.dirty), "count", len(bd.dirty))
	rep.layer("refresh.escalated", bd.escal, "count", len(bd.dirty))
	rep.layer("refresh.total_ms", median(realMS), "ms", n)
	rep.layer("refresh.unexplained_ms", median(realMS)-parts["shard.totals"]-parts["rca.accumulate"]-
		parts["analysis.warm"]-parts["serve.snapshot"]-parts["serve.swap"]-median(fanoutMS), "ms", n)
	return nil
}

// primeBreakdown feeds the breakdown's accumulator the totals the
// refresher last applied, so both track the same dirty rows from here on.
func primeBreakdown(b *refreshBreakdown, t *tier) error {
	if err := b.acc.SetTotals(t.rt.Sinks().TrafficMatrix(b.acc.Rows(), b.acc.Cols())); err != nil {
		return err
	}
	b.acc.Materialize()
	return nil
}

func replicaStats(t *tier) serve.Stats {
	var sum serve.Stats
	for i := 0; i < replicas; i++ {
		st := t.rt.Replica(i).Stats()
		sum.CacheHits += st.CacheHits
		sum.CacheMisses += st.CacheMisses
		sum.ForecastCacheHits += st.ForecastCacheHits
		sum.ForecastCacheMisses += st.ForecastCacheMisses
	}
	return sum
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// replayIngest sends every acked ingest body of the traced rung through
// the ingest layers again: parse with probe.Reader, partition and offer
// on standalone shard sinks over the router's ring, and fold into a
// standalone collect.Sink.
func replayIngest(t *tier, in *mixedInputs, sent []int, tr *tracer, lg *ledger) error {
	ring, err := icn.NewRing(shards, 0, t.m.seed)
	if err != nil {
		return err
	}
	if ring.Digest() != t.rt.Ring().Digest() {
		return errors.New("standalone ring places antennas unlike the router's")
	}
	sinks, err := shard.NewSinks(ring, len(sent)+1, nil)
	if err != nil {
		return err
	}
	defer sinks.Close()
	for _, idx := range sent {
		op := tr.newOp()
		var recs []probe.Record
		var err error
		tr.timed(op, 0, "probe.parse", func() { recs, err = readAll(in.ingest[idx]) })
		if err == nil && len(recs) != ingestRecords {
			err = fmt.Errorf("parsed %d records, sent %d", len(recs), ingestRecords)
		}
		lg.op(err)
		if err != nil {
			return err
		}
		var subs map[int][]probe.Record
		tr.timed(op, 0, "shard.partition", func() { subs = sinks.Partition(recs) })
		var ok bool
		tr.timed(op, 0, "shard.offer", func() { ok = sinks.Offer(subs) })
		if !ok {
			return errors.New("standalone shard sinks refused a batch")
		}
		sink := collect.NewSink()
		tr.timed(op, 0, "collect.fold", func() { sink.AddBatch(recs) })
	}
	return nil
}

func readAll(body []byte) ([]probe.Record, error) {
	r := probe.NewReader(bytes.NewReader(body))
	var out []probe.Record
	for {
		rec, err := r.Read()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
}
