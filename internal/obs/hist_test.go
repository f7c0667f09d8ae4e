package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	h := NewRegistry("test").GetHistogram("test.hist.quantiles", []float64{1, 10, 100})
	for i := 0; i < 90; i++ {
		h.Observe(0.5) // ≤1 bucket
	}
	for i := 0; i < 9; i++ {
		h.Observe(5) // ≤10 bucket
	}
	h.Observe(50) // ≤100 bucket
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d", s.Count)
	}
	if got := s.Cumulative[0]; got != 90 {
		t.Fatalf("≤1 bucket = %d", got)
	}
	if p50 := s.Quantile(0.5); p50 > 1 {
		t.Fatalf("p50 = %v, want within first bucket", p50)
	}
	p99 := s.Quantile(0.99)
	if p99 < 1 || p99 > 10 {
		t.Fatalf("p99 = %v, want within (1,10]", p99)
	}
	if want := 90*0.5 + 9*5 + 50; math.Abs(s.Sum-want) > 1e-9 {
		t.Fatalf("sum = %v, want %v", s.Sum, want)
	}
}

func TestHistogramOverflowBucket(t *testing.T) {
	h := NewRegistry("test").GetHistogram("test.hist.overflow", []float64{1})
	h.Observe(99)
	s := h.Snapshot()
	if s.Count != 1 || s.Cumulative[0] != 0 {
		t.Fatalf("overflow observation miscounted: %+v", s)
	}
	if q := s.Quantile(0.5); q != 1 {
		t.Fatalf("overflow quantile should clamp to last bound, got %v", q)
	}
}

func TestHistogramEmptyQuantile(t *testing.T) {
	h := GetHistogram("test.hist.empty", []float64{1})
	if q := h.Snapshot().Quantile(0.5); !math.IsNaN(q) {
		t.Fatalf("empty histogram quantile = %v, want NaN", q)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewRegistry("test").GetHistogram("test.hist.concurrent", []float64{1, 2})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(1.5)
			}
		}()
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != 8000 {
		t.Fatalf("count = %d, want 8000", s.Count)
	}
	if math.Abs(s.Sum-8000*1.5) > 1e-6 {
		t.Fatalf("sum = %v", s.Sum)
	}
}

func TestGetHistogramSharesInstance(t *testing.T) {
	a := GetHistogram("test.hist.shared", []float64{1})
	b := GetHistogram("test.hist.shared", []float64{5, 6, 7})
	if a != b {
		t.Fatal("same name must return the same histogram")
	}
}

func TestMetricsTextRendersCountersAndHistograms(t *testing.T) {
	r := NewRegistry("test")
	r.Add("test.metrics.counter", 3)
	r.ObserveMS("test.metrics.latency", 0.2)
	text := r.MetricsText()
	for _, want := range []string{
		"icn_test_metrics_counter 3",
		"# TYPE icn_test_metrics_latency histogram",
		`icn_test_metrics_latency_bucket{le="+Inf"} 1`,
		"icn_test_metrics_latency_count 1",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics text missing %q:\n%s", want, text)
		}
	}
}
