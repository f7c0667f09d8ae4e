package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/fault"
	"repro/internal/probe"
	"repro/internal/serve"
)

// The client side every online leg shares: request bodies, an ingest POST
// that re-sends shed batches, and a classify POST whose 200s are audited
// against the offline labels of the revision they echo — the tier's
// served↔offline parity contract, checked the same way by every leg.

// policy is one leg's answer to load shedding.
type policy struct {
	// attempts is how often an ingest batch is sent before it counts as
	// not acked; 1 sends it once.
	attempts int
	// backoff is the pause before a shed batch is re-sent.
	backoff time.Duration
	// shed503 makes 503 sanctioned shedding (ingest and classify) rather
	// than a failure. 429 on ingest is always backpressure.
	shed503 bool
}

var (
	// sendOnce: the chaos schedules count 429/503 as rejected batches.
	sendOnce = policy{attempts: 1, shed503: true}
	// stormRetry: the storms re-send a shed batch until it is acked.
	stormRetry = policy{attempts: 200, backoff: 2 * time.Millisecond, shed503: true}
	// benchRetry: the shard bench injects no faults, so only ingest
	// backpressure (429) is sanctioned and a 503 is a failure.
	benchRetry = policy{attempts: 200, backoff: 5 * time.Millisecond}
)

func (p policy) sheds(code int) bool {
	return p.shed503 && code == http.StatusServiceUnavailable
}

// driver is one leg's HTTP client against a tier. http.Client is safe for
// concurrent use, so a leg's goroutines share one driver.
type driver struct {
	url    string
	client *http.Client
	policy
}

func newDriver(url string, timeout time.Duration, p policy) driver {
	return driver{url: url, client: &http.Client{Timeout: timeout}, policy: p}
}

func (d driver) post(ctx context.Context, path, contentType string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", contentType)
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// ingest POSTs one probe stream, re-sending it while the tier sheds it
// (up to the policy's attempts), and reports whether it was acked with
// 202 and how many attempts were shed.
func (d driver) ingest(ctx context.Context, stream []byte) (acked bool, shed int, err error) {
	for attempt := 0; attempt < d.attempts; attempt++ {
		if attempt > 0 {
			time.Sleep(d.backoff)
		}
		code, _, err := d.post(ctx, "/v1/ingest", "application/octet-stream", stream)
		if err != nil {
			return false, shed, err
		}
		switch {
		case code == http.StatusAccepted:
			return true, shed, nil
		case code == http.StatusTooManyRequests || d.sheds(code):
			shed++
		default:
			return false, shed, fmt.Errorf("unexpected ingest status %d", code)
		}
	}
	return false, shed, nil
}

// classified is one classify POST's outcome.
type classified struct {
	rev  uint64        // echoed model revision (0 when shed)
	shed bool          // the tier shed the request under the leg's policy
	wait time.Duration // request sent → response body read, before decode and audit
}

// classify POSTs b and audits a 200 against the offline result of the
// revision it echoes (see audit); a status the policy sheds is counted,
// any other non-200 is an error.
func (d driver) classify(ctx context.Context, b classifyBatch, resultFor func(uint64) (*analysis.Result, bool)) (classified, error) {
	t0 := time.Now()
	code, body, err := d.post(ctx, "/v1/classify", "application/json", b.body)
	out := classified{wait: time.Since(t0)}
	if err != nil {
		return out, err
	}
	if d.sheds(code) {
		out.shed = true
		return out, nil
	}
	if code != http.StatusOK {
		return out, fmt.Errorf("classify status %d: %s", code, body)
	}
	var cr serve.ClassifyResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		return out, err
	}
	out.rev = cr.ModelRevision
	return out, audit(cr, b.rows, resultFor)
}

// audit checks a classify response by position: verdict i must echo the
// outdoor row that request antenna i was built from and carry that row's
// label in Result.OutdoorLabels of the echoed revision, which must be
// registered.
func audit(cr serve.ClassifyResponse, rows []int, resultFor func(uint64) (*analysis.Result, bool)) error {
	offline, ok := resultFor(cr.ModelRevision)
	if !ok {
		return fmt.Errorf("response echoes unregistered revision %016x", cr.ModelRevision)
	}
	if len(cr.Results) != len(rows) {
		return fmt.Errorf("%d verdicts for %d antennas", len(cr.Results), len(rows))
	}
	for i, v := range cr.Results {
		if v.ID != uint32(rows[i]) {
			return fmt.Errorf("verdict %d echoes antenna %d, request sent %d", i, v.ID, rows[i])
		}
		if want := offline.OutdoorLabels[rows[i]]; v.Cluster != want {
			return fmt.Errorf("parity broken — antenna %d served cluster %d under revision %016x, offline labels say %d",
				v.ID, v.Cluster, cr.ModelRevision, want)
		}
	}
	return nil
}

// classifyBatch is one /v1/classify body and the outdoor row each of its
// antennas was built from, in request order.
type classifyBatch struct {
	body []byte
	rows []int
}

// outdoorBatch builds a classify body over n consecutive outdoor rows of
// res starting at first, wrapping at the end of the population; n is
// capped at the population size. Antenna IDs are the row indices.
func outdoorBatch(res *analysis.Result, first, n int) (classifyBatch, error) {
	outdoor := res.Dataset.OutdoorTraffic
	n = min(n, outdoor.Rows())
	b := classifyBatch{rows: make([]int, n)}
	req := serve.ClassifyRequest{Antennas: make([]serve.AntennaVector, n)}
	for i := range b.rows {
		row := (first + i) % outdoor.Rows()
		b.rows[i] = row
		req.Antennas[i] = serve.AntennaVector{ID: uint32(row), Traffic: outdoor.Row(row)}
	}
	var err error
	b.body, err = json.Marshal(req)
	return b, err
}

// encodeProbes writes recs as one /v1/ingest probe stream.
func encodeProbes(recs []probe.Record) ([]byte, error) {
	var buf bytes.Buffer
	pw := probe.NewWriter(&buf)
	for _, r := range recs {
		if err := pw.Write(r); err != nil {
			return nil, err
		}
	}
	if err := pw.Flush(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// legErrs keeps the first failure among a leg's goroutines.
type legErrs struct {
	mu  sync.Mutex
	err error
}

func (e *legErrs) fail(err error) {
	e.mu.Lock()
	if e.err == nil {
		e.err = err
	}
	e.mu.Unlock()
}

func (e *legErrs) first() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.err
}

// faultTotals sums the injector's errors and delays over every site.
func faultTotals(inj *fault.Injector) (errs, delays int) {
	for _, c := range inj.Stats() {
		errs += int(c.Errs)
		delays += int(c.Delays)
	}
	return errs, delays
}
