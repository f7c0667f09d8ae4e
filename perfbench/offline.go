package main

import (
	"context"
	"errors"
	"fmt"
	"runtime/metrics"
	"time"

	icn "repro"
	"repro/internal/forest"
	"repro/internal/mat"
	"repro/internal/rca"
)

// ariFloor is the lowest ARI against the planted environments that a
// scale-1.0, k = 9 run may report; every recorded seed clears it.
const ariFloor = 0.80

// offlineRuns times repeated cold Runs on one pre-generated dataset until
// the budget is spent (at least minRuns). Every run's labels must equal
// the reference run's, and its ARI must clear the floor. each, when set,
// sees every checked run.
func offlineRuns(ctx context.Context, m *model, budget time.Duration, minRuns int, lg *ledger, each func(*icn.Result)) []float64 {
	var walls []float64
	start := time.Now()
	for len(walls) < minRuns || time.Since(start) < budget {
		t0 := time.Now()
		res, err := icn.Run(ctx, pipelineConfig(m.seed), icn.WithDataset(m.ds))
		wall := time.Since(t0).Seconds()
		if err == nil {
			err = sameOffline(m.res, res)
		}
		lg.op(err)
		if err != nil {
			return walls
		}
		if each != nil {
			each(res)
		}
		walls = append(walls, wall)
	}
	return walls
}

// sameOffline checks a run against the reference run of the same inputs.
func sameOffline(ref, got *icn.Result) error {
	if !equalInts(ref.Labels, got.Labels) {
		return fmt.Errorf("offline labels differ between runs of one dataset")
	}
	if !equalInts(ref.OutdoorLabels, got.OutdoorLabels) {
		return fmt.Errorf("offline outdoor labels differ between runs of one dataset")
	}
	if ari := got.AdjustedRandIndex(); !(ari >= ariFloor) {
		return fmt.Errorf("ARI %.4f below the floor %.2f", ari, ariFloor)
	}
	return nil
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// stageLayers maps stages of the program's own graph, as Result.Trace
// records them, onto the per-layer metrics they report. "forest" is
// forest.TrainContext followed by the training accuracy; "forecast" builds
// the sampled hourly series and then calls forecast.FitSet; "assign" is
// cluster.Centroids plus cluster.WarmAssign. Other stages keep their own
// name under "stage.".
var stageLayers = map[string]string{
	"rsca":      "rca.rsca",
	"linkage":   "cluster.ward",
	"selection": "cluster.sweepk",
	"forest":    "forest.train",
	"temporal":  "analysis.temporal",
	"forecast":  "forecast.fitset",
	"assign":    "cluster.warm_assign",
}

// recordStages copies the stage records of one graph run into the tracer
// as spans under parent, each named prefix plus its layer, and returns
// the sum of their wall times in ms.
func recordStages(tr *tracer, op, parent uint64, prefix string, trace *icn.Trace) float64 {
	t0 := trace.Start()
	busy := 0.0
	for _, st := range trace.Stages() {
		name, ok := stageLayers[st.Name]
		if !ok {
			name = "stage." + st.Name
		}
		start := t0.Add(st.Waited)
		tr.record(op, parent, prefix+name, start, start.Add(st.Wall))
		busy += float64(st.Wall.Nanoseconds()) / 1e6
	}
	return busy
}

// splitOffline times, one after another and on the run's own inputs, the
// calls that one stage of the graph combines but the per-layer metrics
// report apart, and checks they reproduce the run's output: the
// "distances" stage's mat.PairwiseSqDistContext (it also derives the
// Euclidean copy), the "outdoor" stage's Eq. 5 and forest prediction over
// the outdoor rows, and forest.TrainContext alone, because in the graph
// the stages running beside it allocate into the same process counters.
func splitOffline(ctx context.Context, res *icn.Result, tr *tracer, op, parent uint64) (allocMB float64, err error) {
	ds, cfg := res.Dataset, res.Config
	tr.timed(op, parent, "mat.pairwise", func() { _, err = mat.PairwiseSqDistContext(ctx, res.RSCA) })
	if err != nil {
		return 0, err
	}
	var out *mat.Dense
	tr.timed(op, parent, "rca.eq5_outdoor", func() {
		var ref *rca.OutdoorReference
		if ref, err = rca.NewOutdoorReference(ds.Traffic); err == nil {
			out, err = ref.RSCAOutdoor(ds.OutdoorTraffic)
		}
	})
	if err != nil {
		return 0, err
	}
	var labels []int
	tr.timed(op, parent, "forest.predict_outdoor", func() { labels, err = res.Surrogate.PredictAllContext(ctx, out) })
	if err != nil {
		return 0, err
	}
	if !equalInts(labels, res.OutdoorLabels) {
		return 0, errors.New("the run's forest predicts other outdoor labels on a second pass")
	}
	a0 := allocatedBytes()
	var f *forest.Forest
	tr.timed(op, parent, "forest.train_alone", func() {
		f, err = forest.TrainContext(ctx, res.RSCA, res.Labels, res.K, forest.Config{
			Trees: cfg.ForestTrees, MaxDepth: cfg.ForestDepth, Seed: cfg.Seed + 1,
		})
	})
	allocMB = float64(allocatedBytes()-a0) / (1 << 20)
	if err != nil {
		return 0, err
	}
	if labels, err = f.PredictAllContext(ctx, out); err != nil {
		return 0, err
	}
	if !equalInts(labels, res.OutdoorLabels) {
		return 0, errors.New("a forest trained alone on the run's inputs predicts other outdoor labels")
	}
	return allocMB, nil
}

func allocatedBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
