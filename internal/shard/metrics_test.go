package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// scrape reads a /metrics page into series → value, failing on a series
// that appears twice.
func scrape(t *testing.T, baseURL string) map[string]string {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	series := map[string]string{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, value, _ := strings.Cut(line, " ")
		if _, dup := series[name]; dup {
			t.Fatalf("series %s appears twice on %s/metrics", name, baseURL)
		}
		series[name] = value
	}
	return series
}

// seriesName is the exported name of a catalog metric.
func seriesName(name string) string {
	return "icn_" + strings.Map(func(r rune) rune {
		if r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' {
			return r
		}
		return '_'
	}, name)
}

func counterValue(t *testing.T, series map[string]string, name string) int64 {
	t.Helper()
	v, ok := series[name]
	if !ok {
		t.Fatalf("no %s series", name)
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return n
}

// TestReplicaMetricsAreTheirOwn: behind one router, each replica's
// /metrics carries that replica's own classify count, the replicas' counts
// add up to what the router proxied, and the router's ingest series is
// the count its Stats reports.
func TestReplicaMetricsAreTheirOwn(t *testing.T) {
	rt := startRouter(t, tinySnapshot(t), nil, Config{Shards: 2, Replicas: 2, RingSeed: 3})
	const n = 5
	body, err := json.Marshal(serve.ClassifyRequest{
		Antennas: []serve.AntennaVector{{ID: 1, Traffic: []float64{100, 5, 5}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		resp, err := http.Post(rt.URL()+"/v1/classify", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("classify status %d", resp.StatusCode)
		}
	}
	for i := 0; i < 3; i++ {
		if resp := postStream(t, rt.URL(), probeStream(t, ingestRecords(10, 8))); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("ingest status %d", resp.StatusCode)
		}
	}

	var sum int64
	for i := 0; i < 2; i++ {
		rep := rt.Replica(i)
		got := counterValue(t, scrape(t, "http://"+rep.Addr().String()), "icn_serve_classify_requests")
		if own := rep.Stats().ClassifyRequests; got != own {
			t.Errorf("replica %d: /metrics icn_serve_classify_requests = %d, Stats().ClassifyRequests = %d", i, got, own)
		}
		sum += got
	}
	if sum != n {
		t.Errorf("replicas report %d classify requests in total, want %d", sum, n)
	}
	got := counterValue(t, scrape(t, rt.URL()), "icn_shard_ingest_batches")
	if acked := rt.Stats().AckedBatches; got != acked || acked != 3 {
		t.Errorf("router /metrics icn_shard_ingest_batches = %d, Stats().AckedBatches = %d, want 3", got, acked)
	}
}

// TestFreshInstanceMetrics: a fresh instance's /metrics lists each series
// once, carries every catalog metric it owns at zero and none another
// instance owns, and still carries the process-wide pipe.* and fault.*
// series.
func TestFreshInstanceMetrics(t *testing.T) {
	srv, err := serve.New(tinySnapshot(t), nil, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	rt := startRouter(t, tinySnapshot(t), nil, Config{Shards: 2, Replicas: 1, RingSeed: 3})

	for _, c := range []struct {
		name    string
		url     string
		owns    string
		foreign string
		// nonzero holds the series a fresh instance has already counted:
		// the router records its ring's construction.
		nonzero map[string]string
	}{
		{"server", "http://" + srv.Addr().String(), "serve.", "icn_shard_", nil},
		{"router", rt.URL(), "shard.", "icn_serve_", map[string]string{
			"icn_shard_ring_changes":         "1",
			"icn_shard_ring_occupancy_count": "2",
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			series := scrape(t, c.url)
			for name := range series {
				if strings.HasPrefix(name, c.foreign) {
					t.Errorf("series %s belongs to another instance", name)
				}
			}
			for _, d := range obs.Catalog {
				owned := strings.HasPrefix(d.Name, c.owns)
				shared := strings.HasPrefix(d.Name, "pipe.") || strings.HasPrefix(d.Name, "fault.")
				if !owned && !shared {
					continue // another instance's metric: checked absent above
				}
				name := seriesName(d.Name)
				if d.Kind == obs.KindHistogram {
					name += "_count"
				}
				got, ok := series[name]
				if !ok {
					t.Errorf("catalog metric %s has no %s series", d.Name, name)
					continue
				}
				want, ok := c.nonzero[name]
				if !ok {
					want = "0"
				}
				if owned && got != want {
					t.Errorf("fresh %s reports %s %s, want %s", c.name, name, got, want)
				}
			}
		})
	}
}
