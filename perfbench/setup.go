package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	icn "repro"
	"repro/internal/fault"
	"repro/internal/serve"
)

// The paper's full scale: 4,762 indoor and 22,000 outdoor antennas, k = 9,
// a 100-tree surrogate.
const (
	scale        = 1.0
	clusterCount = 9
	forestTrees  = 100
	// clients bounds client goroutines and connections to the two cores
	// the benchmark is sized for (nproc).
	clients = 2
	// bulkAntennas is the largest classify body a replica accepts.
	bulkAntennas = 4096
	shards       = 4
	replicas     = 2
)

func pipelineConfig(seed uint64) icn.Config {
	return icn.Config{Seed: seed, Scale: scale, K: clusterCount, ForestTrees: forestTrees}
}

// model is one generated dataset and the pipeline result trained on it.
type model struct {
	seed uint64
	ds   *icn.Dataset
	res  *icn.Result
	snap *icn.ModelSnapshot
}

// train generates the seed's dataset and runs the cold pipeline on it.
// The run also builds the dataset's lazily cached hourly weight grids, so
// later runs on the same dataset start warm.
func train(ctx context.Context, seed uint64) (*model, error) {
	ds := icn.GenerateDataset(icn.DatasetConfig{Seed: seed, Scale: scale})
	res, err := icn.Run(ctx, pipelineConfig(seed), icn.WithDataset(ds))
	if err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	snap, err := icn.NewModelSnapshot(res)
	if err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	return &model{seed: seed, ds: ds, res: res, snap: snap}, nil
}

// tier is a started sharded router over the model plus the client that
// drives it.
type tier struct {
	m      *model
	rt     *icn.Router
	client *http.Client
	tr     *http.Transport
}

// startTier stands up shards × replicas around the model. faults may be
// nil; the sensitivity self-test passes delays through it.
func startTier(m *model, faults *fault.Injector) (*tier, error) {
	rt, err := icn.NewRouter(m.snap, m.res, icn.ShardConfig{
		Shards: shards, Replicas: replicas, RingSeed: m.seed, Faults: faults,
	})
	if err != nil {
		return nil, err
	}
	if err := rt.Start(); err != nil {
		rt.Shutdown(context.Background())
		return nil, err
	}
	tr := &http.Transport{
		MaxConnsPerHost:     clients,
		MaxIdleConnsPerHost: clients,
		DisableCompression:  true,
	}
	return &tier{m: m, rt: rt, tr: tr, client: &http.Client{Transport: tr, Timeout: 60 * time.Second}}, nil
}

func (t *tier) close() error {
	t.tr.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	return t.rt.Shutdown(ctx)
}

// post sends a pre-encoded body and returns the status and response body.
func post(c *http.Client, url, ctype string, body []byte) (int, []byte, error) {
	resp, err := c.Post(url, ctype, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// classifyBody pre-encodes a classify request over outdoor rows idx. A
// revision > 0 makes the replicas cache the verdicts.
func classifyBody(ds *icn.Dataset, idx []int, revision uint64) ([]byte, error) {
	req := serve.ClassifyRequest{Antennas: make([]serve.AntennaVector, len(idx))}
	for i, j := range idx {
		req.Antennas[i] = serve.AntennaVector{ID: uint32(j), Revision: revision, Traffic: ds.OutdoorTraffic.Row(j)}
	}
	return json.Marshal(req)
}

// checkClassify verifies a classify response against the offline outdoor
// labels of the revision it echoes.
func checkClassify(rt *icn.Router, data []byte) (int, error) {
	var cr serve.ClassifyResponse
	if err := json.Unmarshal(data, &cr); err != nil {
		return 0, fmt.Errorf("classify response: %w", err)
	}
	res, ok := rt.ResultFor(cr.ModelRevision)
	if !ok {
		return 0, fmt.Errorf("classify echoes unregistered revision %016x", cr.ModelRevision)
	}
	for _, v := range cr.Results {
		if int(v.ID) >= len(res.OutdoorLabels) || res.OutdoorLabels[v.ID] != v.Cluster {
			return 0, fmt.Errorf("parity: antenna %d served cluster %d under revision %016x", v.ID, v.Cluster, cr.ModelRevision)
		}
	}
	return len(cr.Results), nil
}
