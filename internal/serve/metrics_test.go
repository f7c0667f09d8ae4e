package serve

import (
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
)

// scrapeCounter reads one counter series from a server's /metrics.
func scrapeCounter(t *testing.T, s *Server, series string) int64 {
	t.Helper()
	resp, err := http.Get(baseURL(s) + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				t.Fatalf("%s: %v", series, err)
			}
			return n
		}
	}
	t.Fatalf("/metrics has no %s series:\n%s", series, body)
	return 0
}

// TestServersCountIntoTheirOwnRegistry: two servers in one process each
// report their own counts, on /v1/stats and on /metrics alike.
func TestServersCountIntoTheirOwnRegistry(t *testing.T) {
	snap := tinySnapshot(t)
	a := startServer(t, snap, Config{})
	b := startServer(t, snap, Config{})
	resp, body := postJSON(t, baseURL(a)+"/v1/classify", ClassifyRequest{
		Antennas: []AntennaVector{{ID: 1, Traffic: []float64{100, 5, 5}}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("classify status %d: %s", resp.StatusCode, body)
	}
	for _, c := range []struct {
		name string
		srv  *Server
		want int64
	}{{"A", a, 1}, {"B", b, 0}} {
		if got := c.srv.Stats().ClassifyRequests; got != c.want {
			t.Errorf("server %s: Stats().ClassifyRequests = %d, want %d", c.name, got, c.want)
		}
		if got := scrapeCounter(t, c.srv, "icn_serve_classify_requests"); got != c.want {
			t.Errorf("server %s: /metrics icn_serve_classify_requests = %d, want %d", c.name, got, c.want)
		}
	}
}
