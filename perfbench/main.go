// Command perfbench is the repository's benchmark: it runs one named
// workload against the public pipeline and serving APIs at the paper's
// full scale, checks every output against the offline reference, and
// prints its metrics by name. See README.md for the workloads, the
// metrics and how the per-layer figures map onto the end-to-end ones.
//
//	perfbench --workload offline-full --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. A human-readable report
// goes to standard error. The exit code is non-zero when any check fails.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"
)

// setupRepeats is how often a timed run sets up; setup_s is the median.
const setupRepeats = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is what one run produces: machine-readable metrics plus the
// human-readable rows behind them.
type report struct {
	metrics map[string]metric
	rows    []row
}

func (r *report) set(name string, v float64, unit string) {
	if r.metrics == nil {
		r.metrics = map[string]metric{}
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) add(rows ...row) { r.rows = append(r.rows, rows...) }

var workloads = map[string]func(ctx context.Context, seed uint64, d time.Duration, lg *ledger) (*report, error){
	"offline-full":  runOffline,
	"classify-bulk": runClassifyBulk,
	"online-mixed":  runOnlineMixed,
}

func main() {
	workload := flag.String("workload", "", "offline-full, classify-bulk or online-mixed")
	seed := flag.Uint64("seed", 1, "workload seed; the program only sees inputs generated from it")
	seconds := flag.Int("seconds", 20, "measured seconds of the run")
	trace := flag.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	selftest := flag.Bool("selftest", false, "run the sensitivity self-test instead of a workload")
	flag.Parse()

	ctx := context.Background()
	if *selftest {
		if err := runSelfTest(ctx, *seed, time.Duration(*seconds)*time.Second); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: self-test FAILED:", err)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "perfbench: self-test PASS")
		return
	}
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: usage: --workload offline-full|classify-bulk|online-mixed --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	var lg ledger
	d := time.Duration(*seconds) * time.Second
	var rep *report
	var err error
	if *trace == 1 {
		rep, err = runTraced(ctx, *workload, *seed, d, &lg)
	} else {
		rep, err = run(ctx, *seed, d, &lg)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %v\n", *workload, *seed, err)
		os.Exit(1)
	}
	attempted, failed := lg.attempted.Load(), lg.failed.Load()
	frac := 0.0
	if attempted > 0 {
		frac = float64(failed) / float64(attempted)
	}
	rep.add(row{name: "failed_frac", value: frac, unit: "ratio", n: int(attempted)})
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d trace %d\n", *workload, *seed, *trace)
	for _, r := range rep.rows {
		fmt.Fprintln(os.Stderr, r)
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d operations failed:\n  %s\n", failed, attempted, lg.summary())
	}
	for name, m := range rep.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s has no value\n", name)
			os.Exit(1)
		}
	}
	out := output{Correct: failed == 0 && attempted > 0, Attempted: attempted, Failed: failed, Metrics: rep.metrics}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

// endToEnd fills the metrics every workload reports.
func endToEnd(rep *report, setups []float64, p50ms, perS, heapMB float64, m *model) {
	rep.set("setup_s", median(setups), "s")
	rep.set("latency_p50_ms", p50ms, "ms")
	rep.set("throughput_per_s", perS, "1/s")
	rep.set("peak_heap_mb", heapMB, "MB")
	rep.set("model_ari", m.res.AdjustedRandIndex(), "ratio")
	rep.add(
		row{name: "setup_s", value: median(setups), unit: "s", n: len(setups)},
		row{name: "peak_heap_mb", value: heapMB, unit: "MB"},
		row{name: "pipeline_ari", value: m.res.AdjustedRandIndex(), unit: "ratio"},
	)
}

// settle drops the garbage of earlier set-ups so the heap peak of the
// measured phase is its own.
func settle() { runtime.GC() }

func runOffline(ctx context.Context, seed uint64, d time.Duration, lg *ledger) (*report, error) {
	var setups []float64
	var m *model
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		var err error
		if m, err = train(ctx, seed); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	settle()
	heap := startHeapPeak()
	walls := offlineRuns(ctx, m, d, 3, lg, nil)
	heapMB := heap.stopMB()
	if len(walls) == 0 {
		return nil, errors.New("no pipeline run completed")
	}
	antennas := float64(len(m.ds.Indoor) + len(m.ds.Outdoor))
	rep := &report{}
	p := median(walls)
	endToEnd(rep, setups, p*1000, antennas/p, heapMB, m)
	rep.add(row{name: "pipeline_s", value: p, unit: "s", n: len(walls)})
	return rep, nil
}

// setupTier trains the model, starts the tier and warms it, setupRepeats
// times; every tier but the last is shut down.
func setupTier(ctx context.Context, seed uint64, warm func(*tier) error) (*tier, []float64, error) {
	var setups []float64
	var t *tier
	for i := 0; i < setupRepeats; i++ {
		if t != nil {
			if err := t.close(); err != nil {
				return nil, nil, err
			}
		}
		t0 := time.Now()
		m, err := train(ctx, seed)
		if err != nil {
			return nil, nil, err
		}
		if t, err = startTier(m, nil); err != nil {
			return nil, nil, err
		}
		if err := warm(t); err != nil {
			t.close()
			return nil, nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	return t, setups, nil
}

func runClassifyBulk(ctx context.Context, seed uint64, d time.Duration, lg *ledger) (*report, error) {
	var bodies [][]byte
	t, setups, err := setupTier(ctx, seed, func(t *tier) error {
		var err error
		if bodies, err = bulkBodies(t.m); err != nil {
			return err
		}
		return warmBulk(t, bodies)
	})
	if err != nil {
		return nil, err
	}
	settle()
	heap := startHeapPeak()
	lat, rate := runBulk(t, bodies, d, lg)
	heapMB := heap.stopMB()
	if err := t.close(); err != nil {
		return nil, err
	}
	if len(lat) == 0 {
		return nil, errors.New("no classify completed")
	}
	rep := &report{}
	endToEnd(rep, setups, median(lat), rate, heapMB, t.m)
	rep.add(latencyRows("classify", lat, bulkTailQ)...)
	rep.add(row{name: "classify_antennas_per_s", value: rate, unit: "1/s", n: len(lat)})
	return rep, nil
}

// bulkTailQ is classify-bulk's tail percentile: about 170 requests in a
// 20 s run leave 17 beyond p90.
const bulkTailQ = 0.90
