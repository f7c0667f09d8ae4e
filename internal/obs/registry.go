package obs

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Scope names the owner of a catalog metric, read from the first
// dot-separated segment of its name: serve.* belongs to one serving
// instance, shard.* to one sharded tier, and everything else (pipe.*,
// fault.*) to the process, whose worker pool and fault injector all
// instances share.
type Scope string

// The scopes: one registry per serve.Server, one per sharded tier, and
// the process registry behind the package-level functions.
const (
	processScope Scope = "process"
	ServerScope  Scope = "serve"
	TierScope    Scope = "shard"
)

func scopeOf(name string) Scope {
	prefix, _, _ := strings.Cut(name, ".")
	switch s := Scope(prefix); s {
	case ServerScope, TierScope:
		return s
	}
	return processScope
}

// Registry holds one owner's named counters and histograms. Each event is
// counted into exactly one registry, and every reader of that count —
// Stats structs and /metrics alike — reads it there.
type Registry struct {
	counters sync.Map // string -> *int64

	histMu sync.Mutex
	hists  map[string]*Histogram
}

// NewRegistry returns a registry seeded at zero with every catalog metric
// the scope owns, so each is on /metrics from the first scrape instead of
// appearing only after its first observation.
func NewRegistry(scope Scope) *Registry {
	r := &Registry{hists: map[string]*Histogram{}}
	for _, d := range Catalog {
		if scopeOf(d.Name) != scope {
			continue
		}
		switch d.Kind {
		case KindCounter:
			r.Add(d.Name, 0)
		case KindHistogram:
			r.GetHistogram(d.Name, d.Buckets)
		}
	}
	return r
}

// process is the registry of the shared substrates, behind the
// package-level Add, ObserveMS, GetHistogram, Counters and MetricsText.
var process = NewRegistry(processScope)

// Add increments the named counter by delta.
func (r *Registry) Add(name string, delta int64) {
	v, ok := r.counters.Load(name)
	if !ok {
		v, _ = r.counters.LoadOrStore(name, new(int64))
	}
	atomic.AddInt64(v.(*int64), delta)
}

// Counter reads one counter (0 when nothing was ever added to it).
func (r *Registry) Counter(name string) int64 {
	if v, ok := r.counters.Load(name); ok {
		return atomic.LoadInt64(v.(*int64))
	}
	return 0
}

// Counters snapshots every counter.
func (r *Registry) Counters() map[string]int64 {
	out := map[string]int64{}
	r.counters.Range(func(k, v any) bool {
		out[k.(string)] = atomic.LoadInt64(v.(*int64))
		return true
	})
	return out
}

// GetHistogram returns the named histogram, creating it with the given
// bucket bounds on first use (nil bounds select DefaultLatencyBuckets).
// Later calls ignore bounds, so concurrent callers always share one
// instance.
func (r *Registry) GetHistogram(name string, bounds []float64) *Histogram {
	r.histMu.Lock()
	defer r.histMu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	if bounds == nil {
		bounds = DefaultLatencyBuckets
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	h := &Histogram{name: name, bounds: b, counts: make([]int64, len(b)+1)}
	r.hists[name] = h
	return h
}

// ObserveMS records one observation (in milliseconds) into the named
// histogram with the default latency buckets.
func (r *Registry) ObserveMS(name string, ms float64) {
	r.GetHistogram(name, nil).Observe(ms)
}

// Histograms snapshots every histogram, sorted by name.
func (r *Registry) Histograms() []HistogramSnapshot {
	r.histMu.Lock()
	out := make([]HistogramSnapshot, 0, len(r.hists))
	for _, h := range r.hists {
		out = append(out, h.Snapshot())
	}
	r.histMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// MetricsText renders every counter and histogram in the Prometheus text
// exposition format. Metric names are derived from registry names by
// replacing non-alphanumeric runes with underscores and prefixing "icn_".
func (r *Registry) MetricsText() string {
	var b strings.Builder
	snap := r.Counters()
	for _, n := range sortedNames(snap) {
		m := metricName(n)
		fmt.Fprintf(&b, "# TYPE %s counter\n%s %d\n", m, m, snap[n])
	}
	for _, h := range r.Histograms() {
		m := metricName(h.Name)
		fmt.Fprintf(&b, "# TYPE %s histogram\n", m)
		for i, bound := range h.Bounds {
			fmt.Fprintf(&b, "%s_bucket{le=%q} %d\n", m, formatBound(bound), h.Cumulative[i])
		}
		fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", m, h.Count)
		fmt.Fprintf(&b, "%s_sum %g\n", m, h.Sum)
		fmt.Fprintf(&b, "%s_count %d\n", m, h.Count)
	}
	return b.String()
}

// ServeHTTP is one instance's /metrics: the instance registry followed by
// the process registry, so the scrape also carries the shared pipe.* and
// fault.* counts.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_, _ = io.WriteString(w, r.MetricsText())
	_, _ = io.WriteString(w, process.MetricsText())
}

// Add increments the named process counter by delta.
func Add(name string, delta int64) { process.Add(name, delta) }

// Counters snapshots every process counter.
func Counters() map[string]int64 { return process.Counters() }

// GetHistogram returns the named process histogram.
func GetHistogram(name string, bounds []float64) *Histogram {
	return process.GetHistogram(name, bounds)
}

// ObserveMS records one millisecond observation into the named process
// histogram.
func ObserveMS(name string, ms float64) { process.ObserveMS(name, ms) }

// MetricsText renders the process registry (see Registry.MetricsText).
func MetricsText() string { return process.MetricsText() }

func sortedNames(snap map[string]int64) []string {
	names := make([]string, 0, len(snap))
	for n := range snap {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func metricName(name string) string {
	var b strings.Builder
	b.WriteString("icn_")
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

func formatBound(v float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%f", v), "0"), ".")
}
