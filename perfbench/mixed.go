package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	icn "repro"
	"repro/internal/pipe"
	"repro/internal/probe"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/services"
)

// The online mix. No trace, measurement or cited source gives the
// relative rates of classify, forecast and ingest traffic or the share of
// repeated lookups, so the mix is the simplest one that exercises every
// path, not a tuned one: reads are classifies and forecasts in equal
// shares, half the classifies come from the hot set, and ingest arrives at
// a fixed rate beside the reads. The rates are sized from per-request costs
// measured at seed 1 on 2 cores (see README.md, "Sizing"):
//
//   - a 64-antenna classify costs about 4 ms and a forecast 0.16 ms, so
//     the two clients carry about 2 / 2.08 ms ≈ 960 reads/s. The
//     reference rung is 1/12 of that, a light load whose latency is the
//     service time; the others climb in halves of it up to all of it;
//   - a warm refresh was sized after 200,000 ingested records, so ingest
//     brings 200,000 records per 5 s, one refresh cycle of the 25 s run.
var mixedLadder = []float64{80, 480, 960}

const (
	mixedRefRung = 0
	// refRungWeight is the length of the reference rung and of the
	// saturating rung, in lengths of the other rungs: they carry the
	// JSON's figures, so they get twice the samples.
	refRungWeight = 2
	// classifyLimitMS is the limit on the 64-antenna classify tail. Every
	// rung of the ladder holds one refresh, which stalls reads for about
	// its own duration, so the limit is what a stalled read may cost.
	classifyLimitMS = 1000
	// mixedTailQ is online-mixed's tail percentile for classifies and
	// forecasts at the reference rung (about 330 of each at 25 s).
	mixedTailQ = 0.90
	// ingestTailQ is the ingest acknowledgement tail percentile, over the
	// passing rungs (at least about 65 batches at 25 s).
	ingestTailQ = 0.80
	// backlogLimit is the acked-but-unfolded record count a rung may end
	// with: more than two batches means the folds fall behind.
	backlogLimit = 2 * ingestRecords
	// latenessLimitMS bounds how late the generator may run over the
	// second half of a rung (p90) before the rung counts as overloaded:
	// the tier has not caught up with the offered rate after the refresh.
	latenessLimitMS = 50

	smallAntennas = 64
	hotBodies     = 16 // 1024 hot antennas, well inside the 4096-entry LRU
	coldBodies    = 64
	ingestRecords = 5000
	ingestBodies  = 8
	// ingestRate is in batches per second: 200,000 records per 5 s.
	ingestRate = 200000 / ingestRecords / 5.0
	// refreshAt is where in each rung its one RefreshOnce starts.
	refreshAt = 0.2
	// saturatingFactor scales the top rung's reads and ingest alike into
	// the saturating rung, ten times the read capacity the two clients
	// carry, which measures the mix's goodput.
	saturatingFactor = 10
	shareClassify    = 0.5 // of the reads
	shareHot         = 0.5 // of the classifies
)

var forecastHorizons = []int{24, 48, 168}

type reqKind int

const (
	kindClassify reqKind = iota
	kindForecast
	kindIngest
)

// mixedInputs holds every pre-encoded body of the mix.
type mixedInputs struct {
	hot, cold [][]byte
	forecast  [][]byte
	ingest    [][]byte
}

func buildMixedInputs(m *model) (*mixedInputs, error) {
	gen := mixRNG(m.seed, inputStream)
	in := &mixedInputs{}
	perm := gen.Perm(len(m.ds.Outdoor))
	next := 0
	take := func(n int) []int {
		idx := perm[next : next+n]
		next += n
		return idx
	}
	for b := 0; b < hotBodies; b++ {
		body, err := classifyBody(m.ds, take(smallAntennas), 1)
		if err != nil {
			return nil, err
		}
		in.hot = append(in.hot, body)
	}
	for b := 0; b < coldBodies; b++ {
		body, err := classifyBody(m.ds, take(smallAntennas), 0)
		if err != nil {
			return nil, err
		}
		in.cold = append(in.cold, body)
	}
	for _, h := range forecastHorizons {
		for c := 0; c < m.res.K; c++ {
			c := c
			body, err := json.Marshal(serve.ForecastRequest{Cluster: &c, Horizon: h})
			if err != nil {
				return nil, err
			}
			in.forecast = append(in.forecast, body)
		}
	}
	for _, am := range m.res.Forecasts.Antennas {
		a := am.Antenna
		body, err := json.Marshal(serve.ForecastRequest{Antenna: &a, Horizon: forecastHorizons[0]})
		if err != nil {
			return nil, err
		}
		in.forecast = append(in.forecast, body)
	}
	hours := m.ds.Cal.Hours()
	for b := 0; b < ingestBodies; b++ {
		var buf bytes.Buffer
		pw := probe.NewWriter(&buf)
		for j := 0; j < ingestRecords; j++ {
			rec := probe.Record{
				Hour:       uint32(gen.Intn(hours)),
				AntennaID:  uint32(gen.Intn(len(m.ds.Indoor))),
				Protocol:   probe.TCP,
				ServerPort: 443,
				ServerName: probe.DomainOf(gen.Intn(services.M)),
				DownBytes:  uint64(64<<10 + gen.Intn(1<<20)),
				UpBytes:    uint64(4<<10 + gen.Intn(64<<10)),
			}
			if err := pw.Write(rec); err != nil {
				return nil, err
			}
		}
		if err := pw.Flush(); err != nil {
			return nil, err
		}
		in.ingest = append(in.ingest, buf.Bytes())
	}
	return in, nil
}

// due is one scheduled request: when it is due (from the rung start),
// what it is, and which pre-encoded body it sends.
type due struct {
	at   time.Duration
	kind reqKind
	body []byte
	// ingest is the index of an ingest body, -1 otherwise.
	ingest int
}

// inputStream is the generator stream the mix's bodies are drawn from;
// rung i draws its schedule from stream i.
const inputStream = 1 << 32

// mixRNG is the seeded generator of one stream of the mix.
func mixRNG(seed, stream uint64) *rng.Source {
	return rng.New(seed ^ (stream+1)*0x9e3779b97f4a7c15)
}

// schedule draws Poisson arrivals for d: reads at rate per second and,
// merged with them, ingest batches at ingest per second.
func schedule(in *mixedInputs, gen *rng.Source, rate, ingest float64, d time.Duration) []due {
	var out []due
	at := time.Duration(0)
	total := rate + ingest
	for {
		at += time.Duration(gen.Exponential(total) * float64(time.Second))
		if at >= d {
			return out
		}
		q := due{at: at, ingest: -1}
		switch {
		case gen.Float64() < ingest/total:
			q.kind = kindIngest
			q.ingest = gen.Intn(len(in.ingest))
			q.body = in.ingest[q.ingest]
		case gen.Float64() >= shareClassify:
			q.kind = kindForecast
			q.body = in.forecast[gen.Intn(len(in.forecast))]
		case gen.Float64() < shareHot:
			q.kind = kindClassify
			q.body = in.hot[gen.Intn(len(in.hot))]
		default:
			q.kind = kindClassify
			q.body = in.cold[gen.Intn(len(in.cold))]
		}
		out = append(out, q)
	}
}

// rungResult is one ladder rung's measurements.
type rungResult struct {
	rate                          float64
	classify, forecast, ingestAck []float64
	// lateEnd is the generator's p90 lateness over the second half of
	// the rung, after the refresh stall has had time to clear.
	lateEnd    float64
	lateness   []float64
	backlogEnd int
	pendingMax int
	failed     int64
	// unsent counts scheduled requests the generator never sent because
	// the rung ended first.
	unsent    int64
	completed int64
	seconds   float64
	refreshes []serve.RefreshOutcome
	sent      []int // ingest body indices acked
}

func (r *rungResult) classifyTail() float64 {
	if !tailOK(len(r.classify), mixedTailQ) {
		return math.Inf(1)
	}
	return quantile(r.classify, mixedTailQ)
}

// passes reports whether the rung met the latency limit without failures,
// a growing backlog or a generator falling behind.
func (r *rungResult) passes() bool {
	return r.failed == 0 && r.classifyTail() <= classifyLimitMS &&
		r.backlogEnd <= backlogLimit && r.lateEnd <= latenessLimitMS
}

// goodput is the rate of operations completed without failure.
func (r *rungResult) goodput() float64 { return float64(r.completed) / r.seconds }

// mixedResponse is one response kept for the post-run correctness check.
type mixedResponse struct {
	kind       reqKind
	body, data []byte
	// notSampled marks a 404 for an antenna forecast; sent and done bound
	// the revisions that may have answered it.
	notSampled bool
	sent, done time.Time
}

// revSpan is one served revision and when it may have been live: from the
// start of the refresh that published it to the end of the next refresh.
type revSpan struct {
	rev        uint64
	from, till time.Time
}

// mixedRun drives the online mix against a tier.
type mixedRun struct {
	t   *tier
	in  *mixedInputs
	lg  *ledger
	mu  sync.Mutex
	out []mixedResponse
	// revs is the timeline of served revisions, oldest first.
	revs []revSpan
	// breakdown, when set, times each refresh layer by layer, with ingest
	// quiesced around it (traced pass).
	breakdown *refreshBreakdown
	// ingestGate is held shared by ingest posts and exclusively around a
	// traced refresh, so the breakdown and the refresh read one state.
	ingestGate sync.RWMutex
}

func newMixedRun(t *tier, in *mixedInputs, lg *ledger) *mixedRun {
	return &mixedRun{t: t, in: in, lg: lg, revs: []revSpan{{rev: t.rt.Replica(0).Snapshot().Revision}}}
}

// rungSpec is one rung: reads and ingest batches offered per second, its
// length, and whether it holds a RefreshOnce.
type rungSpec struct {
	rate, ingest float64
	d            time.Duration
	refresh      bool
}

// rung runs one open-loop rung. Requests are timed from the instant they
// were due, so a stall also charges the requests queued behind it.
// Requests still unsent when the rung ends are dropped.
func (mr *mixedRun) rung(ctx context.Context, gen *rng.Source, spec rungSpec) (*rungResult, error) {
	rate, d := spec.rate, spec.d
	sched := schedule(mr.in, gen, rate, spec.ingest, d)
	res := &rungResult{rate: rate}
	var (
		next                      atomic.Int64
		failed, unsent, completed atomic.Int64
		workers, sampler          pipe.Tasks
		mu                        sync.Mutex
		cl, fc, ing, late         latencies
		lateTail                  latencies
		pendingMax                int
		refreshErr                error
		stopSampler               = make(chan struct{})
		base                      = mr.t.rt.URL()
	)
	start := time.Now()
	end := start.Add(d)
	sampler.Go(func() {
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			pendingMax = max(pendingMax, mr.t.rt.Sinks().PendingRecords())
			select {
			case <-stopSampler:
				return
			case <-tick.C:
			}
		}
	})
	if spec.refresh {
		workers.Go(func() {
			time.Sleep(time.Until(start.Add(time.Duration(float64(d) * refreshAt))))
			out, err := mr.refresh(ctx)
			mu.Lock()
			refreshErr = err
			res.refreshes = append(res.refreshes, out)
			mu.Unlock()
		})
	}
	for c := 0; c < clients; c++ {
		workers.Go(func() {
			for {
				i := int(next.Add(1) - 1)
				if i >= len(sched) {
					return
				}
				if time.Now().After(end) {
					unsent.Add(1)
					continue
				}
				q := sched[i]
				dueAt := start.Add(q.at)
				time.Sleep(time.Until(dueAt))
				sentAt := time.Now()
				lateMS := float64(sentAt.Sub(dueAt).Nanoseconds()) / 1e6
				late.add(lateMS)
				if q.at >= d/2 {
					lateTail.add(lateMS)
				}
				path, ctype, want := "/v1/classify", "application/json", http.StatusOK
				switch q.kind {
				case kindForecast:
					path = "/v1/forecast"
				case kindIngest:
					path, ctype, want = "/v1/ingest", "application/octet-stream", http.StatusAccepted
					mr.ingestGate.RLock()
				}
				status, data, err := post(mr.t.client, base+path, ctype, q.body)
				if q.kind == kindIngest {
					mr.ingestGate.RUnlock()
				}
				ms := float64(time.Since(dueAt).Nanoseconds()) / 1e6
				notSampled := q.kind == kindForecast && status == http.StatusNotFound
				if err == nil && status != want && !notSampled {
					err = fmt.Errorf("%s: status %d: %s", path, status, bytes.TrimSpace(data))
				}
				if err != nil {
					failed.Add(1)
					mr.lg.op(err)
					continue
				}
				completed.Add(1)
				switch q.kind {
				case kindClassify:
					cl.add(ms)
				case kindForecast:
					fc.add(ms)
				case kindIngest:
					ing.add(ms)
					mr.lg.op(nil)
					mu.Lock()
					res.sent = append(res.sent, q.ingest)
					mu.Unlock()
					continue
				}
				mr.mu.Lock()
				mr.out = append(mr.out, mixedResponse{kind: q.kind, body: q.body, data: data,
					notSampled: notSampled, sent: sentAt, done: time.Now()})
				mr.mu.Unlock()
			}
		})
	}
	workers.Wait()
	res.backlogEnd = mr.t.rt.Sinks().PendingRecords()
	// The rung ends once every batch it acked is folded, so goodput counts
	// an ingest batch when it is aggregated, not when it is queued.
	if err := waitDrained(ctx, mr.t.rt); err != nil && refreshErr == nil {
		refreshErr = err
	}
	res.seconds = time.Since(start).Seconds()
	close(stopSampler)
	sampler.Wait()
	res.classify, res.forecast, res.ingestAck, res.lateness = cl.values(), fc.values(), ing.values(), late.values()
	if lt := lateTail.values(); len(lt) > 0 {
		res.lateEnd = quantile(lt, 0.9)
	}
	res.pendingMax = pendingMax
	res.failed, res.unsent, res.completed = failed.Load(), unsent.Load(), completed.Load()
	return res, refreshErr
}

// refresh runs one RefreshOnce and checks that every live replica serves
// the revision it published. With a breakdown set, ingest is held back
// around the refresh and its layers are timed.
func (mr *mixedRun) refresh(ctx context.Context) (serve.RefreshOutcome, error) {
	bd := mr.breakdown
	if bd != nil {
		mr.ingestGate.Lock()
		defer mr.ingestGate.Unlock()
		if err := waitDrained(ctx, mr.t.rt); err != nil {
			return serve.RefreshOutcome{}, err
		}
		if err := bd.before(); err != nil {
			mr.lg.op(err)
			return serve.RefreshOutcome{}, err
		}
	}
	start := time.Now()
	out, err := mr.t.rt.RefreshOnce(ctx)
	end := time.Now()
	mr.mu.Lock()
	last := &mr.revs[len(mr.revs)-1]
	if err == nil && out.Revision != last.rev {
		last.till = end
		mr.revs = append(mr.revs, revSpan{rev: out.Revision, from: start})
	}
	mr.mu.Unlock()
	if err == nil && bd != nil {
		err = bd.after(out, start, end)
	}
	if err == nil {
		for i, rs := range mr.t.rt.Stats().Replicas {
			if rs.Alive && rs.Revision != out.Revision {
				err = fmt.Errorf("replica %d serves revision %016x after refresh published %016x", i, rs.Revision, out.Revision)
				break
			}
		}
	}
	mr.lg.op(err)
	return out, err
}

// waitDrained waits until every acked ingest record is folded.
func waitDrained(ctx context.Context, rt *icn.Router) error {
	deadline := time.Now().Add(2 * time.Minute)
	for rt.Sinks().PendingRecords() != 0 {
		if time.Now().After(deadline) || ctx.Err() != nil {
			return fmt.Errorf("shard queues never drained (%d records pending)", rt.Sinks().PendingRecords())
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil
}

// check verifies every kept response against the offline result of the
// revision it echoes, and that every acked record was folded.
func (mr *mixedRun) check(ctx context.Context) error {
	if err := waitDrained(ctx, mr.t.rt); err != nil {
		return err
	}
	st := mr.t.rt.Stats()
	var err error
	if int64(st.FoldedRecords) != st.AckedRecords {
		err = fmt.Errorf("acked %d records, folded %d", st.AckedRecords, st.FoldedRecords)
	}
	mr.lg.op(err)
	mr.mu.Lock()
	out, revs := mr.out, mr.revs
	mr.mu.Unlock()
	for _, r := range out {
		switch r.kind {
		case kindClassify:
			_, err = checkClassify(mr.t.rt, r.data)
		case kindForecast:
			if r.notSampled {
				err = checkNotSampled(mr.t.rt, revs, r)
			} else {
				err = checkForecast(mr.t.rt, r.body, r.data)
			}
		}
		mr.lg.op(err)
	}
	return nil
}

// checkNotSampled accepts a 404 for an antenna forecast only when a
// revision that may have served the request has no model for the antenna:
// a refresh that moves cluster members re-draws the forecast stage's
// per-cluster antenna sample.
func checkNotSampled(rt *icn.Router, revs []revSpan, r mixedResponse) error {
	var req serve.ForecastRequest
	if err := json.Unmarshal(r.body, &req); err != nil {
		return err
	}
	if req.Antenna == nil {
		return fmt.Errorf("cluster forecast answered 404: %s", r.data)
	}
	for _, span := range revs {
		if r.done.Before(span.from) || (!span.till.IsZero() && r.sent.After(span.till)) {
			continue
		}
		res, ok := rt.ResultFor(span.rev)
		if ok && res.Forecasts.Antenna(*req.Antenna) == nil {
			return nil
		}
	}
	return fmt.Errorf("antenna %d forecast answered 404 though every revision live at the time samples it", *req.Antenna)
}

// checkForecast verifies a forecast bit for bit against the forecasters
// of the revision it echoes.
func checkForecast(rt *icn.Router, body, data []byte) error {
	var req serve.ForecastRequest
	var resp serve.ForecastResponse
	if err := json.Unmarshal(body, &req); err != nil {
		return err
	}
	if err := json.Unmarshal(data, &resp); err != nil {
		return fmt.Errorf("forecast response: %w", err)
	}
	res, ok := rt.ResultFor(resp.ModelRevision)
	if !ok {
		return fmt.Errorf("forecast echoes unregistered revision %016x", resp.ModelRevision)
	}
	var want []float64
	switch {
	case req.Cluster != nil:
		cm := res.Forecasts.Cluster(*req.Cluster)
		if cm == nil {
			return fmt.Errorf("no forecaster for cluster %d", *req.Cluster)
		}
		want = cm.Model.Forecast(req.Horizon)
	default:
		am := res.Forecasts.Antenna(*req.Antenna)
		if am == nil {
			return fmt.Errorf("no forecaster for antenna %d", *req.Antenna)
		}
		want = am.Model.Forecast(req.Horizon)
	}
	if len(want) != len(resp.Forecast) {
		return fmt.Errorf("forecast has %d hours, want %d", len(resp.Forecast), len(want))
	}
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(resp.Forecast[i]) {
			return fmt.Errorf("forecast hour %d is %v under revision %016x, offline %v", i, resp.Forecast[i], resp.ModelRevision, want[i])
		}
	}
	return nil
}

// warmMixed sends every classify and forecast body once.
func warmMixed(t *tier, in *mixedInputs) error {
	send := func(path string, bodies [][]byte) error {
		for _, b := range bodies {
			status, data, err := post(t.client, t.rt.URL()+path, "application/json", b)
			if err != nil {
				return err
			}
			if status != http.StatusOK {
				return fmt.Errorf("warm-up %s: status %d: %s", path, status, data)
			}
		}
		return nil
	}
	if err := send("/v1/classify", in.hot); err != nil {
		return err
	}
	if err := send("/v1/classify", in.cold); err != nil {
		return err
	}
	return send("/v1/forecast", in.forecast)
}

// ladder runs every rung of mixedLadder and then the saturating rung in d:
// the reference and the saturating rung take refRungWeight shares of it,
// every other rung one. Each rung of the ladder holds one refresh. The
// saturating rung holds none: it measures the mix's steady capacity, and
// with a refresh inside it the figure would mostly time that one refresh
// under load.
func (mr *mixedRun) ladder(ctx context.Context, seed uint64, d time.Duration) ([]*rungResult, error) {
	share := d / time.Duration(len(mixedLadder)+2*refRungWeight-1)
	var rungs []*rungResult
	for i, rate := range append(append([]float64{}, mixedLadder...), saturatingFactor*mixedLadder[len(mixedLadder)-1]) {
		spec := rungSpec{rate: rate, ingest: ingestRate, d: share, refresh: true}
		if i == mixedRefRung || i == len(mixedLadder) {
			spec.d *= refRungWeight
		}
		if i == len(mixedLadder) {
			spec.ingest *= saturatingFactor
			spec.refresh = false
		}
		r, err := mr.rung(ctx, mixRNG(seed, uint64(i)), spec)
		if err != nil {
			return rungs, err
		}
		rungs = append(rungs, r)
	}
	return rungs, nil
}

// maxRate is the highest open-loop rung that passed, climbing from the
// bottom; 0 when none did.
func maxRate(rungs []*rungResult) float64 {
	best := 0.0
	for _, r := range rungs[:len(mixedLadder)] {
		if !r.passes() {
			break
		}
		best = r.rate
	}
	return best
}

func runOnlineMixed(ctx context.Context, seed uint64, d time.Duration, lg *ledger) (*report, error) {
	var in *mixedInputs
	t, setups, err := setupTier(ctx, seed, func(t *tier) error {
		var err error
		if in, err = buildMixedInputs(t.m); err != nil {
			return err
		}
		return warmMixed(t, in)
	})
	if err != nil {
		return nil, err
	}
	settle()
	mr := newMixedRun(t, in, lg)
	heap := startHeapPeak()
	rungs, err := mr.ladder(ctx, seed, d)
	heapMB := heap.stopMB()
	if err == nil {
		err = mr.check(ctx)
	}
	if cerr := t.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	ref, top := rungs[mixedRefRung], rungs[len(rungs)-1]
	rep := &report{}
	endToEnd(rep, setups, median(ref.classify), top.goodput(), heapMB, t.m)
	rep.add(mixedRows(rungs)...)
	return rep, nil
}

// mixedRows are online-mixed's named metrics and one line per rung.
func mixedRows(rungs []*rungResult) []row {
	ref, top := rungs[mixedRefRung], rungs[len(rungs)-1]
	var rows []row
	rows = append(rows, latencyRows("classify", ref.classify, mixedTailQ)...)
	rows = append(rows, latencyRows("forecast", ref.forecast, mixedTailQ)...)
	var acks, refreshS []float64
	for _, r := range rungs[:len(mixedLadder)] {
		if !r.passes() {
			break
		}
		acks = append(acks, r.ingestAck...)
	}
	for _, r := range rungs {
		for _, o := range r.refreshes {
			refreshS = append(refreshS, o.Duration.Seconds())
		}
	}
	rows = append(rows, latencyRows("ingest", acks, ingestTailQ)[1:]...)
	rows = append(rows,
		row{name: "refresh_s", value: median(refreshS), unit: "s", n: len(refreshS)},
		row{name: "mixed_max_rps", value: maxRate(rungs), unit: "1/s", n: len(mixedLadder)},
		row{name: "mixed_goodput_rps", value: top.goodput(), unit: "1/s", n: int(top.completed),
			note: fmt.Sprintf("completed at the saturating rung (%g reads/s offered) until its batches were folded", top.rate)})
	for _, r := range rungs {
		rows = append(rows, row{name: fmt.Sprintf("rung_%g_classify_tail_ms", r.rate), value: r.classifyTail(), unit: "ms", n: len(r.classify),
			note: fmt.Sprintf("p50 %.2f ms, late %.1f ms, backlog %d (max %d), failed %d, unsent %d, goodput %.0f/s, pass %v",
				median(r.classify), r.lateEnd, r.backlogEnd, r.pendingMax, r.failed, r.unsent, r.goodput(), r.passes())})
	}
	return rows
}
