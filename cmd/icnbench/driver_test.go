package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/serve"
)

// scripted serves the given statuses in order, one per request, repeating
// the last; a 200 carries body.
func scripted(t *testing.T, body []byte, codes ...int) (*httptest.Server, func() int) {
	t.Helper()
	var (
		mu sync.Mutex
		n  int
	)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		code := codes[min(n, len(codes)-1)]
		n++
		mu.Unlock()
		w.WriteHeader(code)
		if code == http.StatusOK {
			_, _ = w.Write(body)
		}
	}))
	t.Cleanup(srv.Close)
	return srv, func() int {
		mu.Lock()
		defer mu.Unlock()
		return n
	}
}

func TestClassifyAuditRejectsBrokenParity(t *testing.T) {
	const rev = 0xabc
	offline := &analysis.Result{OutdoorLabels: []int{4, 5, 6, 7}}
	resultFor := func(r uint64) (*analysis.Result, bool) { return offline, r == rev }
	// The request was built from outdoor rows 2 and 3, in that order.
	batch := classifyBatch{body: []byte("{}"), rows: []int{2, 3}}
	verdicts := func(rev uint64, v ...serve.AntennaVerdict) []byte {
		data, err := json.Marshal(serve.ClassifyResponse{ModelRevision: rev, Results: v})
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	cases := []struct {
		name, wantErr string
		body          []byte
	}{
		{"parity", "", verdicts(rev, serve.AntennaVerdict{ID: 2, Cluster: 6}, serve.AntennaVerdict{ID: 3, Cluster: 7})},
		{"wrong cluster", "parity broken", verdicts(rev, serve.AntennaVerdict{ID: 2, Cluster: 6}, serve.AntennaVerdict{ID: 3, Cluster: 6})},
		// The clusters are right by position, so only the ID check
		// catches the swapped IDs.
		{"wrong echoed id", "echoes antenna", verdicts(rev, serve.AntennaVerdict{ID: 3, Cluster: 6}, serve.AntennaVerdict{ID: 2, Cluster: 7})},
		{"unregistered revision", "unregistered revision", verdicts(rev+1, serve.AntennaVerdict{ID: 2, Cluster: 6}, serve.AntennaVerdict{ID: 3, Cluster: 7})},
		{"missing verdict", "1 verdicts for 2 antennas", verdicts(rev, serve.AntennaVerdict{ID: 2, Cluster: 6})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv, _ := scripted(t, tc.body, http.StatusOK)
			got, err := newDriver(srv.URL, 5*time.Second, stormRetry).classify(context.Background(), batch, resultFor)
			if tc.wantErr == "" {
				if err != nil || got.rev != rev || got.shed {
					t.Fatalf("parity-perfect response: got %+v, err %v", got, err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want one containing %q", err, tc.wantErr)
			}
		})
	}
}

func TestIngestRetriesShedBatchUntilAcked(t *testing.T) {
	srv, sent := scripted(t, nil, http.StatusTooManyRequests, http.StatusAccepted)
	acked, shed, err := newDriver(srv.URL, 5*time.Second, benchRetry).ingest(context.Background(), []byte("x"))
	if err != nil || !acked || shed != 1 {
		t.Fatalf("429 then 202: acked=%v shed=%d err=%v, want acked once after one rejection", acked, shed, err)
	}
	if sent() != 2 {
		t.Fatalf("server saw %d posts, want 2 (no re-send after the ack)", sent())
	}
}

func TestSendOnceCountsShedBatchAsRejected(t *testing.T) {
	srv, sent := scripted(t, nil, http.StatusServiceUnavailable, http.StatusAccepted)
	acked, shed, err := newDriver(srv.URL, 5*time.Second, sendOnce).ingest(context.Background(), []byte("x"))
	if err != nil || acked || shed != 1 || sent() != 1 {
		t.Fatalf("503 under send-once: acked=%v shed=%d err=%v posts=%d, want one rejected post", acked, shed, err, sent())
	}
}

func TestServiceUnavailablePolicy(t *testing.T) {
	ctx := context.Background()
	resultFor := func(uint64) (*analysis.Result, bool) { return nil, false }
	batch := classifyBatch{body: []byte("{}")}

	// The shard bench injects no faults: a 503 is a failure on both routes.
	srv, _ := scripted(t, nil, http.StatusServiceUnavailable, http.StatusAccepted)
	bench := newDriver(srv.URL, 5*time.Second, benchRetry)
	if acked, _, err := bench.ingest(ctx, []byte("x")); err == nil || acked {
		t.Fatalf("bench ingest 503: acked=%v err=%v, want a failure", acked, err)
	}
	srv, _ = scripted(t, nil, http.StatusServiceUnavailable)
	bench.url = srv.URL
	if got, err := bench.classify(ctx, batch, resultFor); err == nil || got.shed {
		t.Fatalf("bench classify 503: %+v err=%v, want a failure", got, err)
	}

	// The storms count a 503 as shedding: ingest re-sends, classify counts.
	srv, sent := scripted(t, nil, http.StatusServiceUnavailable, http.StatusAccepted)
	storms := newDriver(srv.URL, 5*time.Second, stormRetry)
	if acked, shed, err := storms.ingest(ctx, []byte("x")); err != nil || !acked || shed != 1 || sent() != 2 {
		t.Fatalf("storm ingest 503 then 202: acked=%v shed=%d err=%v posts=%d", acked, shed, err, sent())
	}
	srv, _ = scripted(t, nil, http.StatusServiceUnavailable)
	storms.url = srv.URL
	if got, err := storms.classify(ctx, batch, resultFor); err != nil || !got.shed {
		t.Fatalf("storm classify 503: %+v err=%v, want it counted as shed", got, err)
	}
}
