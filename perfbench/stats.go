package main

import (
	"fmt"
	"math"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/pipe"
)

// minBeyond is the number of samples a tail percentile must have beyond it
// before it is reported.
const minBeyond = 10

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs need not be sorted; it is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailOK reports whether n samples leave at least minBeyond samples beyond
// the q-quantile.
func tailOK(n int, q float64) bool { return float64(n)*(1-q) >= minBeyond }

// latencies is a concurrency-safe sample of operation latencies in ms.
type latencies struct {
	mu sync.Mutex
	xs []float64
}

func (l *latencies) add(ms float64) {
	l.mu.Lock()
	l.xs = append(l.xs, ms)
	l.mu.Unlock()
}

func (l *latencies) values() []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]float64(nil), l.xs...)
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// heapPeak samples the live heap (as of the last GC) until stopped and
// keeps the maximum, so the figure does not depend on how much garbage
// happened to be uncollected at the sampling instant.
type heapPeak struct {
	stop  chan struct{}
	tasks pipe.Tasks
	peak  uint64
}

func liveHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{})}
	h.tasks.Go(func() {
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			h.peak = max(h.peak, liveHeap())
			select {
			case <-h.stop:
				h.peak = max(h.peak, liveHeap())
				return
			case <-tick.C:
			}
		}
	})
	return h
}

// stopMB stops the sampler and returns the peak in MiB.
func (h *heapPeak) stopMB() float64 {
	close(h.stop)
	h.tasks.Wait()
	return float64(h.peak) / (1 << 20)
}

// ledger counts attempted and failed operations. An operation fails when
// it errors, is refused (429/503) or its output does not match the
// offline reference.
type ledger struct {
	attempted atomic.Int64
	failed    atomic.Int64
	mu        sync.Mutex
	notes     []string
}

// op records one attempted operation; a non-nil err marks it failed.
func (l *ledger) op(err error) {
	l.attempted.Add(1)
	if err != nil {
		l.fail(err)
	}
}

func (l *ledger) fail(err error) {
	l.failed.Add(1)
	l.mu.Lock()
	if len(l.notes) < 20 {
		l.notes = append(l.notes, err.Error())
	}
	l.mu.Unlock()
}

func (l *ledger) summary() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return strings.Join(l.notes, "\n  ")
}

// row is one human-readable report line: a metric by name with its unit
// and, for latencies, the sample count it rests on.
type row struct {
	name  string
	value float64
	unit  string
	n     int
	note  string
}

func (r row) String() string {
	if r.unit == "" {
		return fmt.Sprintf("  %-34s %s", r.name, r.note)
	}
	s := fmt.Sprintf("  %-34s %14.4f %-7s", r.name, r.value, r.unit)
	if r.n > 0 {
		s += fmt.Sprintf(" n=%d", r.n)
	}
	if r.note != "" {
		s += "  " + r.note
	}
	return s
}

// latencyRows reports the median and the workload's fixed tail percentile
// of xs; the tail row is withheld when fewer than minBeyond samples lie
// beyond it.
func latencyRows(prefix string, xs []float64, tailQ float64) []row {
	rows := []row{{name: prefix + "_p50_ms", value: median(xs), unit: "ms", n: len(xs)}}
	tail := row{name: fmt.Sprintf("%s_tail_ms", prefix), unit: "ms", n: len(xs),
		note: fmt.Sprintf("p%g", tailQ*100)}
	if tailOK(len(xs), tailQ) {
		tail.value = quantile(xs, tailQ)
	} else {
		tail.value = math.NaN()
		tail.note += " withheld: fewer than 10 samples beyond it"
	}
	return append(rows, tail)
}
