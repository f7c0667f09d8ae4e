package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	icn "repro"
	"repro/internal/fault"
	"repro/internal/pipe"
)

// The injected delays of the sensitivity self-test, each large enough to
// push the metric it targets past its bound and small enough to keep the
// run short.
const (
	forestDelay   = 2 * time.Second
	classifyDelay = 150 * time.Millisecond
	foldDelay     = 300 * time.Millisecond
)

// benchBounds reads each end-to-end metric's bound from BENCHMARK.json,
// so the self-test holds the benchmark to the bounds it publishes.
func benchBounds() (map[string]float64, error) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	out := map[string]float64{}
	for _, m := range spec.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out, nil
}

// sensCheck is one comparison of the self-test: a metric measured without
// and with one injected delay, which must (or must not) get worse by more
// than the bound.
type sensCheck struct {
	fault, workload, metric string
	base, injected, bound   float64
	higherIsBetter          bool
	expectMove              bool
}

func (c sensCheck) moved() bool {
	if c.higherIsBetter {
		return c.injected < c.base*(1-c.bound)
	}
	return c.injected > c.base*(1+c.bound)
}

func (c sensCheck) String() string {
	want := "stays within"
	if c.expectMove {
		want = "moves past"
	}
	verdict := "ok"
	if c.moved() != c.expectMove {
		verdict = "FAIL"
	}
	return fmt.Sprintf("  %-9s %-14s %-27s base %10.2f injected %10.2f  %s ±%.0f%%  %s",
		c.fault, c.workload, c.metric, c.base, c.injected, want, c.bound*100, verdict)
}

// runSelfTest injects a delay into one layer at a time through seams the
// program already has, and checks that the workload using the layer sees
// it past the benchmark's bound while the workload bypassing it, run with
// the same delay injected, does not:
//
//   - a pipe.WithStageHook hook sleeping in the "forest" stage moves
//     offline-full's latency and the forest.train stage record of the
//     hooked runs; classify-bulk, whose served model is trained under the
//     hook, keeps its latency;
//   - fault.Classify delays move classify-bulk's latency and its
//     serve.handler span; offline-full, run beside a tier carrying the
//     fault, keeps its latency;
//   - fault.ShardFold delays move online-mixed's throughput_per_s,
//     mixed_max_rps and shard.pending_records_max; classify-bulk, on a
//     tier carrying the fault, keeps its latency.
func runSelfTest(ctx context.Context, seed uint64, d time.Duration) error {
	bounds, err := benchBounds()
	if err != nil {
		return err
	}
	latB, rateB := bounds["latency_p50_ms"], bounds["throughput_per_s"]
	m, err := train(ctx, seed)
	if err != nil {
		return err
	}
	var lg ledger
	forestHook := func(stage string) error {
		if stage == "forest" {
			time.Sleep(forestDelay)
		}
		return nil
	}
	hooked := pipe.WithStageHook(ctx, forestHook)
	mHooked, err := train(hooked, seed)
	if err != nil {
		return err
	}
	classifyFaults := fault.New(seed, map[fault.Site]fault.Rule{fault.Classify: {DelayProb: 1, Delay: classifyDelay}})
	foldFaults := fault.New(seed, map[fault.Site]fault.Rule{fault.ShardFold: {DelayProb: 1, Delay: foldDelay}})

	offBase, err := measureOffline(ctx, m, nil, &lg)
	if err != nil {
		return err
	}
	offForest, err := measureOffline(hooked, m, nil, &lg)
	if err != nil {
		return err
	}
	offClassify, err := measureOffline(ctx, m, classifyFaults, &lg)
	if err != nil {
		return err
	}
	bulkBase, err := measureBulk(m, nil, d, &lg)
	if err != nil {
		return err
	}
	bulkForest, err := measureBulk(mHooked, nil, d, &lg)
	if err != nil {
		return err
	}
	bulkClassify, err := measureBulk(m, classifyFaults, d, &lg)
	if err != nil {
		return err
	}
	bulkFold, err := measureBulk(m, foldFaults, d, &lg)
	if err != nil {
		return err
	}
	var faulty ledger // refused ingest under the fold delay is expected
	mixBase, err := measureMixed(ctx, m, nil, d, &lg)
	if err != nil {
		return err
	}
	mixFold, err := measureMixed(ctx, m, foldFaults, d, &faulty)
	if err != nil {
		return err
	}

	checks := []sensCheck{
		{"forest", "offline-full", "latency_p50_ms", offBase.metric, offForest.metric, latB, false, true},
		{"forest", "offline-full", "stage forest.train_ms", offBase.layer, offForest.layer, latB, false, true},
		{"forest", "classify-bulk", "latency_p50_ms", bulkBase.metric, bulkForest.metric, latB, false, false},
		{"classify", "classify-bulk", "latency_p50_ms", bulkBase.metric, bulkClassify.metric, latB, false, true},
		{"classify", "classify-bulk", "span serve.handler_ms", bulkBase.layer, bulkClassify.layer, latB, false, true},
		{"classify", "offline-full", "latency_p50_ms", offBase.metric, offClassify.metric, latB, false, false},
		{"fold", "online-mixed", "throughput_per_s", mixBase.metric, mixFold.metric, rateB, true, true},
		{"fold", "online-mixed", "mixed_max_rps", mixBase.maxRate, mixFold.maxRate, rateB, true, true},
		{"fold", "online-mixed", "shard.pending_records_max", mixBase.layer, mixFold.layer, rateB, false, true},
		{"fold", "classify-bulk", "latency_p50_ms", bulkBase.metric, bulkFold.metric, latB, false, false},
	}
	fmt.Fprintf(os.Stderr, "perfbench: sensitivity self-test, seed %d, %s per measurement\n", seed, d)
	failed := 0
	for _, c := range checks {
		fmt.Fprintln(os.Stderr, c)
		if c.moved() != c.expectMove {
			failed++
		}
	}
	if n := lg.failed.Load(); n > 0 {
		return fmt.Errorf("%d operations failed without an injected fold delay:\n  %s", n, lg.summary())
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d checks failed", failed, len(checks))
	}
	return nil
}

// measurement is one self-test measurement: an end-to-end figure, the
// layer figure that should explain it and, on online-mixed, the highest
// passing rung.
type measurement struct{ metric, layer, maxRate float64 }

// measureOffline times cold runs with ctx's stage hook, if any, and a tier
// carrying faults started beside them (none when faults is nil). Its layer
// figure is the forest stage's record in the runs' own traces.
func measureOffline(ctx context.Context, m *model, faults *fault.Injector, lg *ledger) (measurement, error) {
	if faults != nil {
		t, err := startTier(m, faults)
		if err != nil {
			return measurement{}, err
		}
		defer t.close()
	}
	var forestMS []float64
	walls := offlineRuns(ctx, m, 0, 3, lg, func(res *icn.Result) {
		for _, st := range res.Trace().Stages() {
			if st.Name == "forest" {
				forestMS = append(forestMS, float64(st.Wall.Nanoseconds())/1e6)
			}
		}
	})
	if len(walls) < 3 || len(forestMS) < 3 {
		return measurement{}, fmt.Errorf("offline runs failed: %s", lg.summary())
	}
	return measurement{metric: median(walls) * 1000, layer: median(forestMS)}, nil
}

func measureBulk(m *model, faults *fault.Injector, d time.Duration, lg *ledger) (measurement, error) {
	t, err := startTier(m, faults)
	if err != nil {
		return measurement{}, err
	}
	defer t.close()
	bodies, err := bulkBodies(m)
	if err != nil {
		return measurement{}, err
	}
	if err := warmBulk(t, bodies); err != nil {
		return measurement{}, err
	}
	lat, _ := runBulk(t, bodies, d, lg)
	if len(lat) == 0 {
		return measurement{}, fmt.Errorf("no classify completed: %s", lg.summary())
	}
	tr := &tracer{}
	rep := t.rt.Replica(0)
	direct := "http://" + rep.Addr().String() + "/v1/classify"
	for _, body := range bodies {
		if err := classifyLayersOnce(context.Background(), t, rep, body, direct, t.rt.URL()+"/v1/classify", tr, lg); err != nil {
			return measurement{}, err
		}
	}
	return measurement{metric: median(lat), layer: median(tr.durByName("serve.handler"))}, nil
}

func measureMixed(ctx context.Context, m *model, faults *fault.Injector, d time.Duration, lg *ledger) (measurement, error) {
	t, err := startTier(m, faults)
	if err != nil {
		return measurement{}, err
	}
	defer t.close()
	in, err := buildMixedInputs(m)
	if err != nil {
		return measurement{}, err
	}
	if err := warmMixed(t, in); err != nil {
		return measurement{}, err
	}
	mr := newMixedRun(t, in, lg)
	// The rungs but the reference and the saturating one get the whole
	// measurement time each.
	rungs, err := mr.ladder(ctx, m.seed, d*time.Duration(len(mixedLadder)+2*refRungWeight-1))
	if err != nil {
		return measurement{}, err
	}
	if err := mr.check(ctx); err != nil {
		return measurement{}, err
	}
	pending := 0
	for _, r := range rungs {
		pending = max(pending, r.pendingMax)
	}
	return measurement{metric: rungs[len(rungs)-1].goodput(), layer: float64(pending), maxRate: maxRate(rungs)}, nil
}
