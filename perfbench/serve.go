package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"vocabpipe/internal/cache"
	"vocabpipe/internal/report"
	"vocabpipe/internal/sweep"
	"vocabpipe/internal/trace"
)

// serve-mixed: seeded open-loop Poisson traffic on an in-process vpserve
// with its default options. Hot keys are first touched before the window,
// so a repeat is a cache hit; cold keys are new grids or single schedule
// cells.
//
// The workload is ungated. Its median is a millisecond cache hit, often
// queued behind a cold request on one of the two connections, so on a
// shared host it follows the host's scheduling delays more than the
// program: runs of the same code spread by about 40% of the median. It
// stays as the traced run's probe of the server, cache, admission and obs
// layers, and runs on its own by name.

func init() {
	workloads = append(workloads,
		&workload{name: "serve-mixed", tailQ: 0.9, reaches: []string{"server"}, ungated: true, setup: setupServe})
}

// serveCheckShare is the share of cold responses the check re-evaluates
// in-process; every hit is compared with its key's first response.
const serveCheckShare = 0.125

type serveState struct {
	mix     *serveMix
	node    *node
	client  *http.Client
	hotBody [][]byte
	// results holds one entry per arrival, written by the senders.
	results []served
	cache0  cache.Stats
	scrape0 map[string]float64
}

// served is one arrival's outcome.
type served struct {
	op       int64
	traced   bool
	sent     time.Time
	lat, rtt time.Duration // from due time / from send
	lag      time.Duration
	cache    string
	body     []byte // kept only for responses the check re-evaluates
	err      error
	outcome  outcome
	check    bool
	parentID int64
}

func setupServe(ctx context.Context, b *bench) (state, error) {
	n, err := startNode(vpserveDefaults())
	if err != nil {
		return nil, err
	}
	st := &serveState{node: n, client: newClient()}
	if err := warmTable5(ctx, b, st.client, n.url); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

// prime generates the traffic and first-touches every hot key, which later
// requests hit.
func (st *serveState) prime(ctx context.Context, b *bench) error {
	var err error
	if st.mix, err = genServe(b.cfg.seed, b.cfg.window); err != nil {
		return err
	}
	for _, r := range st.mix.hot {
		resp, err := get(ctx, st.client, st.node.url+r.Path, 0)
		if err != nil || resp.status != http.StatusOK {
			return fmt.Errorf("warming %s: %v", r.Path, describe(resp, err))
		}
		st.hotBody = append(st.hotBody, resp.body)
	}
	st.node.log.take()
	return nil
}

// warmTable5 warms a server's simulation runners with the Table 5
// experiment, the same fixed work for every seed, and checks the response
// against the golden.
func warmTable5(ctx context.Context, b *bench, c *http.Client, base string) error {
	golden, err := os.ReadFile(filepath.Join(b.cfg.root, goldenTable5))
	if err != nil {
		return fmt.Errorf("reading the Table 5 golden: %w", err)
	}
	resp, err := get(ctx, c, base+"/api/v1/experiments/table5", 0)
	if err != nil || resp.status != http.StatusOK {
		return fmt.Errorf("warming with table5: %v", describe(resp, err))
	}
	if !bytes.Equal(resp.body, golden) {
		return fmt.Errorf("warming with table5: response differs from %s", goldenTable5)
	}
	return nil
}

func describe(r *response, err error) string {
	if err != nil {
		return err.Error()
	}
	return fmt.Sprintf("status %d: %.200s", r.status, r.body)
}

func (st *serveState) measure(ctx context.Context, b *bench, w *window) error {
	var err error
	st.cache0 = st.node.srv.CacheStats()
	if st.scrape0, err = scrape(ctx, st.client, st.node.url); err != nil {
		return err
	}
	arrivals := st.mix.arrivals
	b.note("mix", summarize(arrivals))
	st.results = make([]served, len(arrivals))
	rng := rand.New(rand.NewPCG(b.cfg.seed, 4))
	for i, r := range arrivals {
		st.results[i].check = r.Hot < 0 && rng.Float64() < serveCheckShare
	}
	next := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for s := 0; s < b.procs; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				st.send(ctx, b, start, i)
			}
		}()
	}
	for i := range arrivals {
		next <- i
	}
	close(next)
	wg.Wait()
	w.elapsed = time.Since(start)

	for i := range st.results {
		res := &st.results[i]
		w.led.add(res.outcome)
		w.lag = append(w.lag, ms(res.lag))
		if res.outcome != outcomeOK {
			continue
		}
		lat := ms(res.lat)
		w.lat = append(w.lat, lat)
		w.cells += arrivals[i].cells()
		if res.cache == "miss" {
			w.missLat = append(w.missLat, lat)
		} else {
			w.hitLat = append(w.hitLat, lat)
			if b.rec != nil {
				ab := 0
				if res.traced {
					ab = 1
				}
				w.abLat[ab] = append(w.abLat[ab], lat)
			}
		}
	}
	return nil
}

// send issues arrival i no earlier than its due time. Its latency runs
// from the due time, so a request the generator could not send on time
// (both connections busy) is charged for the wait.
func (st *serveState) send(ctx context.Context, b *bench, start time.Time, i int) {
	r := st.mix.arrivals[i]
	res := &st.results[i]
	due := start.Add(r.Due)
	if d := time.Until(due); d > 0 {
		time.Sleep(d)
	}
	res.op = b.nextOp()
	rec := b.recFor(res.op)
	res.traced = rec != nil
	sp := rec.begin(res.op, 0, "op")
	hs := rec.begin(res.op, sp.id(), "http.request")
	res.parentID = hs.id()
	res.sent = time.Now()
	res.lag = res.sent.Sub(due)
	resp, err := get(ctx, st.client, st.node.url+r.Path, res.op)
	end := time.Now()
	hs.end()
	sp.end()
	res.rtt, res.lat = end.Sub(res.sent), end.Sub(due)
	switch {
	case err != nil:
		res.err, res.outcome = err, outcomeFailed
	case resp.status == http.StatusTooManyRequests:
		res.outcome = outcomeShed
	case resp.status != http.StatusOK:
		res.err, res.outcome = fmt.Errorf("%s: %s", r.Path, describe(resp, nil)), outcomeFailed
	case r.Hot >= 0 && !bytes.Equal(resp.body, st.hotBody[r.Hot]):
		res.err, res.outcome = fmt.Errorf("%s: hit differs from the key's first response", r.Path), outcomeFailed
	default:
		res.outcome, res.cache = outcomeOK, resp.cache
		if res.check {
			res.body = resp.body
		}
	}
}

// check re-evaluates the hot keys and the sampled cold responses in-process
// and compares bytes.
func (st *serveState) check(ctx context.Context, b *bench, w *window) error {
	var firstErr error
	fail := func(err error) {
		if firstErr == nil {
			firstErr = err
		}
	}
	for i := range st.results {
		if err := st.results[i].err; err != nil {
			fail(err)
		}
	}
	for i, r := range st.mix.hot {
		want, err := evaluate(ctx, b, w, r.Grid)
		if err != nil {
			return err
		}
		if !bytes.Equal(want, st.hotBody[i]) {
			fail(fmt.Errorf("%s: first response differs from in-process evaluation", r.Path))
		}
		w.addComputed(r.Grid.Expand())
	}
	for i, r := range st.mix.arrivals {
		res := &st.results[i]
		if r.Hot < 0 {
			w.addComputed(r.Grid.Expand())
		}
		if res.outcome != outcomeOK || !res.check {
			continue
		}
		want, err := evaluate(ctx, b, w, r.Grid)
		if err != nil {
			return err
		}
		if !bytes.Equal(want, res.body) {
			fail(fmt.Errorf("%s: response differs from in-process evaluation", r.Path))
			w.led.OK--
			w.led.Failed++
		}
	}
	return firstErr
}

// evaluate is the single-node reference: the grid's records through
// sweep.RunCtx, encoded by report.WriteJSON.
func evaluate(ctx context.Context, b *bench, w *window, g *sweep.Grid) ([]byte, error) {
	t0 := time.Now()
	res, err := sweep.RunCtx(ctx, g, sweep.Options{Parallel: b.procs})
	if err != nil {
		return nil, err
	}
	wall := time.Since(t0)
	var buf bytes.Buffer
	t0 = time.Now()
	if err := report.WriteJSON(&buf, res.Records()); err != nil {
		return nil, err
	}
	w.sweeps = append(w.sweeps, sweepCall{wall: wall, cells: g.Expand()})
	w.encodes = append(w.encodes, encodeCall{dur: time.Since(t0), bytes: buf.Len()})
	return buf.Bytes(), nil
}

func (st *serveState) layers(ctx context.Context, b *bench, w *window, m map[string]float64) error {
	byOp := map[int64]handled{}
	for _, h := range st.node.log.take() {
		if h.BenchOp != 0 {
			byOp[h.BenchOp] = h
		}
	}
	var handler, transport []float64
	var respBytes float64
	for i := range st.results {
		res := &st.results[i]
		h, ok := byOp[res.op]
		if !ok || res.outcome != outcomeOK {
			continue
		}
		handler = append(handler, ms(h.Dur))
		transport = append(transport, ms(res.rtt-h.Dur))
		respBytes += float64(h.Out)
		if res.traced {
			b.rec.add(span{Name: "server.Handler", Op: res.op, Parent: res.parentID, Start: h.Start, End: h.Start.Add(h.Dur)})
		}
	}
	if len(handler) > 0 {
		m["report.bytes_per_response"] = respBytes / float64(len(handler))
	}
	m["server.handler_ms_p50"] = median(handler)
	m["server.transport_ms"] = median(transport)
	st1 := st.node.srv.CacheStats()
	cacheLayer(m, []cache.Stats{st.cache0}, []cache.Stats{st1}, w)
	return serverLayer(ctx, m, st.client, []*node{st.node}, []map[string]float64{st.scrape0})
}

// cacheLayer fills the cache metrics from counter deltas over the window
// and the client's hit/miss latency split.
func cacheLayer(m map[string]float64, before, after []cache.Stats, w *window) {
	var hits, misses, dedup, evict int64
	for i := range before {
		hits += after[i].Hits - before[i].Hits
		misses += after[i].Misses - before[i].Misses
		dedup += after[i].Deduped - before[i].Deduped
		evict += after[i].Evictions - before[i].Evictions
	}
	if total := hits + misses + dedup; total > 0 {
		m["cache.hit_pct"] = 100 * float64(hits+dedup) / float64(total)
	}
	m["cache.deduped"] = float64(dedup)
	m["cache.evictions"] = float64(evict)
	m["cache.hit_latency_p50_ms"] = median(w.hitLat)
	m["cache.miss_latency_p50_ms"] = median(w.missLat)
}

// serverLayer reads what the servers expose themselves: the admission and
// shed counters from /metrics and the cache, admission and span figures
// from the trace ring behind /api/v1/debug/traces.
func serverLayer(ctx context.Context, m map[string]float64, c *http.Client, nodes []*node, before []map[string]float64) error {
	var shed float64
	var traces [][]trace.Event
	for i, n := range nodes {
		after, err := scrape(ctx, c, n.url)
		if err != nil {
			return err
		}
		shed += after["vpserve_admission_shed_total"] - before[i]["vpserve_admission_shed_total"]
		t, err := fetchTraces(ctx, c, n.url, 256)
		if err != nil {
			return err
		}
		traces = append(traces, t...)
	}
	m["admission.shed"] = shed
	lookup := spanMS(traces, "cache.lookup", "outcome", "hit")
	admit := spanMS(traces, "admission", "", "")
	var err error
	if m["cache.lookup_hit_ms"], err = mustPercentile("cache.lookup hit spans", lookup, 0.5); err != nil {
		return err
	}
	if m["admission.wait_ms_p90"], err = mustPercentile("admission spans", admit, 0.9); err != nil {
		return err
	}
	spans := 0
	for _, t := range traces {
		spans += len(t)
	}
	if len(traces) > 0 {
		m["obs.spans_per_trace"] = float64(spans) / float64(len(traces))
	}
	return nil
}

func (st *serveState) close() {
	st.node.close()
	st.client.CloseIdleConnections()
}
