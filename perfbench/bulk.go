package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"repro/internal/mat"
	"repro/internal/pipe"
	"repro/internal/serve"
)

// bulkBodyCount full 4096-antenna bodies cover 20,480 of the 22,000
// outdoor antennas.
const bulkBodyCount = 5

// bulkBodies pre-encodes the outdoor population as 4096-antenna classify
// bodies without a revision, so the replicas' verdict caches are bypassed.
func bulkBodies(m *model) ([][]byte, error) {
	var bodies [][]byte
	for b := 0; b < bulkBodyCount; b++ {
		idx := make([]int, bulkAntennas)
		for i := range idx {
			idx[i] = b*bulkAntennas + i
		}
		body, err := classifyBody(m.ds, idx, 0)
		if err != nil {
			return nil, err
		}
		bodies = append(bodies, body)
	}
	return bodies, nil
}

// warmBulk sends every body once so connections, pools and caches of the
// process are warm before timing.
func warmBulk(t *tier, bodies [][]byte) error {
	for _, body := range bodies {
		status, data, err := post(t.client, t.rt.URL()+"/v1/classify", "application/json", body)
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return fmt.Errorf("warm-up classify: status %d: %s", status, data)
		}
	}
	return nil
}

// runBulk drives closed-loop clients posting the bulk bodies through the
// router for d. Responses are kept and checked after timing, so client
// decoding does not compete with the tier while it is timed.
func runBulk(t *tier, bodies [][]byte, d time.Duration, lg *ledger) (lat []float64, antennasPerS float64) {
	var (
		all       latencies
		mu        sync.Mutex
		responses [][]byte
		tasks     pipe.Tasks
	)
	url := t.rt.URL() + "/v1/classify"
	start := time.Now()
	var lastDone time.Time
	for c := 0; c < clients; c++ {
		tasks.Go(func() {
			for i := c; time.Since(start) < d; i += clients {
				t0 := time.Now()
				status, data, err := post(t.client, url, "application/json", bodies[i%len(bodies)])
				ms := msSince(t0)
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("bulk classify: status %d: %s", status, data)
				}
				if err != nil {
					lg.op(err)
					continue
				}
				all.add(ms)
				mu.Lock()
				responses = append(responses, data)
				if now := time.Now(); now.After(lastDone) {
					lastDone = now
				}
				mu.Unlock()
			}
		})
	}
	tasks.Wait()
	classified := 0
	for _, data := range responses {
		n, err := checkClassify(t.rt, data)
		lg.op(err)
		classified += n
	}
	return all.values(), float64(classified) / lastDone.Sub(start).Seconds()
}

// classifyLayerNames are the per-layer figures of the bulk classify path.
var classifyLayerNames = []string{"serve.decode", "rca.eq5", "forest.predict", "serve.encode", "serve.handler", "serve.direct", "shard.router"}

// classifyLayers times each layer of one bulk classify on the same bodies
// the workload sends: decode, Eq. 5, forest and encode as the handler
// calls them, the handler through an in-memory recorder, the same body
// posted straight to replica 0, and through the router. It also times
// untraced router posts of the same bodies, for the tracing overhead.
func classifyLayers(t *tier, bodies [][]byte, rounds int, tr *tracer, lg *ledger) (untraced []float64, err error) {
	ctx := context.Background()
	rep := t.rt.Replica(0)
	direct := "http://" + rep.Addr().String() + "/v1/classify"
	router := t.rt.URL() + "/v1/classify"
	for r := 0; r < rounds; r++ {
		for _, body := range bodies {
			t0 := time.Now()
			status, data, err := post(t.client, router, "application/json", body)
			untraced = append(untraced, msSince(t0))
			if err == nil && status != http.StatusOK {
				err = fmt.Errorf("classify: status %d", status)
			}
			if err == nil {
				_, err = checkClassify(t.rt, data)
			}
			lg.op(err)
		}
	}
	for r := 0; r < rounds; r++ {
		for _, body := range bodies {
			if err := classifyLayersOnce(ctx, t, rep, body, direct, router, tr, lg); err != nil {
				return nil, err
			}
		}
	}
	return untraced, nil
}

func classifyLayersOnce(ctx context.Context, t *tier, rep *serve.Server, body []byte, direct, router string, tr *tracer, lg *ledger) error {
	snap := rep.Snapshot()
	op := tr.newOp()
	var req serve.ClassifyRequest
	var err error
	tr.timed(op, 0, "serve.decode", func() { err = json.NewDecoder(bytes.NewReader(body)).Decode(&req) })
	if err != nil {
		return err
	}
	var feats *mat.Dense
	tr.timed(op, 0, "rca.eq5", func() {
		rows := make([][]float64, len(req.Antennas))
		for i, a := range req.Antennas {
			rows[i] = a.Traffic
		}
		var traffic *mat.Dense
		if traffic, err = mat.FromRows(rows); err == nil {
			feats, err = snap.Ref.RSCAOutdoor(traffic)
		}
	})
	if err != nil {
		return err
	}
	var clusters []int
	tr.timed(op, 0, "forest.predict", func() { clusters, err = snap.Forest.PredictAllContext(ctx, feats) })
	if err != nil {
		return err
	}
	resp := serve.ClassifyResponse{ModelRevision: snap.Revision, Results: make([]serve.AntennaVerdict, len(req.Antennas))}
	for i, a := range req.Antennas {
		resp.Results[i] = serve.AntennaVerdict{ID: a.ID, Cluster: clusters[i]}
	}
	var enc bytes.Buffer
	tr.timed(op, 0, "serve.encode", func() { err = json.NewEncoder(&enc).Encode(resp) })
	if err != nil {
		return err
	}
	_, err = checkClassify(t.rt, enc.Bytes())
	lg.op(err)

	rec := httptest.NewRecorder()
	tr.timed(op, 0, "serve.handler", func() {
		rep.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/classify", bytes.NewReader(body)))
	})
	err = nil
	if rec.Code != http.StatusOK {
		err = fmt.Errorf("in-memory classify: status %d", rec.Code)
	} else {
		_, err = checkClassify(t.rt, rec.Body.Bytes())
	}
	lg.op(err)

	for _, hop := range []struct{ name, url string }{{"serve.direct", direct}, {"shard.router", router}} {
		var status int
		var data []byte
		tr.timed(op, 0, hop.name, func() { status, data, err = post(t.client, hop.url, "application/json", body) })
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("%s classify: status %d", hop.name, status)
		}
		if err == nil {
			_, err = checkClassify(t.rt, data)
		}
		lg.op(err)
	}
	return nil
}
