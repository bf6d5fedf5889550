package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"time"

	"vocabpipe/internal/cache"
	"vocabpipe/internal/cluster"
)

// cluster-sweep: one closed-loop client against a coordinator that shards
// every grid across two in-process worker servers. The coordinator keeps a
// one-entry result cache, so a hot repeat passes through to the workers,
// where cache-affine placement lands each shard on the worker that already
// holds it (the affinity-hit path); cold grids are new cells throughout.

func init() {
	workloads = append(workloads,
		&workload{name: "cluster-sweep", tailQ: 0.95, reaches: []string{"server", "cluster"}, setup: setupCluster})
}

type clusterState struct {
	gen     *clusterGen
	workers []*node
	coord   *node
	client  *http.Client
	pending *request
	ops     []clusterOp
	stats0  cluster.Stats
	cache0  []cache.Stats
	scrape0 []map[string]float64
}

type clusterOp struct {
	req      *request
	op       int64
	parentID int64
	traced   bool
	rtt      time.Duration
	traceID  string
	body     []byte
	outcome  outcome
	err      error
}

func setupCluster(ctx context.Context, b *bench) (state, error) {
	st := &clusterState{client: newClient()}
	var urls []string
	for i := 0; i < 2; i++ {
		n, err := startNode(vpserveDefaults())
		if err != nil {
			st.close()
			return nil, err
		}
		st.workers = append(st.workers, n)
		urls = append(urls, n.url)
	}
	opt := vpserveDefaults()
	opt.CacheSize = 1
	opt.Cluster = cluster.Options{Workers: urls, Dynamic: true, MemberTTL: 30 * time.Second, HedgeAfter: 2 * time.Second}
	var err error
	if st.coord, err = startNode(opt); err != nil {
		st.close()
		return nil, err
	}
	if err := warmTable5(ctx, b, st.client, st.coord.url); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

// prime seeds the op stream and places every hot grid's shards on the
// workers.
func (st *clusterState) prime(ctx context.Context, b *bench) error {
	var err error
	if st.gen, err = newClusterGen(b.cfg.seed); err != nil {
		return err
	}
	for _, r := range st.gen.hot {
		resp, err := get(ctx, st.client, st.coord.url+r.Path, 0)
		if err != nil || resp.status != http.StatusOK {
			return fmt.Errorf("warming %s: %v", r.Path, describe(resp, err))
		}
	}
	for _, n := range st.nodes() {
		n.log.take()
	}
	return nil
}

func (st *clusterState) nodes() []*node {
	out := append([]*node(nil), st.workers...)
	if st.coord != nil {
		out = append(out, st.coord)
	}
	return out
}

func (st *clusterState) measure(ctx context.Context, b *bench, w *window) error {
	st.stats0 = st.coord.srv.Cluster().Stats()
	for _, n := range st.workers {
		st.cache0 = append(st.cache0, n.srv.CacheStats())
	}
	for _, n := range st.nodes() {
		s, err := scrape(ctx, st.client, n.url)
		if err != nil {
			return err
		}
		st.scrape0 = append(st.scrape0, s)
	}
	prep := func() (err error) {
		st.pending, err = st.gen.next()
		return err
	}
	defer func() {
		reqs := make([]*request, len(st.ops))
		for i := range st.ops {
			reqs[i] = st.ops[i].req
		}
		b.note("mix", summarize(reqs))
	}()
	return b.closedLoop(ctx, w, b.cfg.window, prep, func(t opTrace) (int, outcome, bool, error) {
		r := st.pending
		op := clusterOp{req: r, op: t.id, traced: t.rec != nil}
		hs := t.begin("http.request")
		op.parentID = hs.id()
		t0 := time.Now()
		resp, err := get(ctx, st.client, st.coord.url+r.Path, t.id)
		op.rtt = time.Since(t0)
		hs.end()
		switch {
		case err != nil:
			op.err, op.outcome = err, outcomeFailed
		case resp.status == http.StatusTooManyRequests:
			op.outcome = outcomeShed
		case resp.status != http.StatusOK:
			op.err, op.outcome = fmt.Errorf("%s: %s", r.Path, describe(resp, nil)), outcomeFailed
		default:
			op.outcome, op.body, op.traceID = outcomeOK, resp.body, resp.traceID
		}
		st.ops = append(st.ops, op)
		return r.cells(), op.outcome, r.Hot >= 0, nil
	})
}

// check compares every response with a single-node evaluation of its
// grid, evaluated once per distinct grid.
func (st *clusterState) check(ctx context.Context, b *bench, w *window) error {
	want := map[string][]byte{}
	var firstErr error
	for i := range st.ops {
		op := &st.ops[i]
		if op.err != nil && firstErr == nil {
			firstErr = op.err
		}
		if op.outcome != outcomeOK {
			continue
		}
		key := op.req.Grid.Key()
		if _, ok := want[key]; !ok {
			body, err := evaluate(ctx, b, w, op.req.Grid)
			if err != nil {
				return err
			}
			want[key] = body
			w.addComputed(op.req.Grid.Expand())
		}
		if !bytes.Equal(want[key], op.body) {
			w.led.OK--
			w.led.Failed++
			if firstErr == nil {
				firstErr = fmt.Errorf("%s: coordinator response differs from single-node evaluation", op.req.Path)
			}
		}
		op.body = nil
	}
	return firstErr
}

func (st *clusterState) layers(ctx context.Context, b *bench, w *window, m map[string]float64) error {
	coord := map[int64]handled{}
	for _, h := range st.coord.log.take() {
		if h.BenchOp != 0 {
			coord[h.BenchOp] = h
		}
	}
	shards := map[string][]handled{}
	var wire int64
	for _, n := range st.workers {
		for _, h := range n.log.take() {
			shards[h.TraceID] = append(shards[h.TraceID], h)
			wire += h.InBytes + h.Out
		}
	}
	var handler, transport, overhead []float64
	var respBytes float64
	cells := 0
	for i := range st.ops {
		op := &st.ops[i]
		h, ok := coord[op.op]
		if !ok || op.outcome != outcomeOK {
			continue
		}
		handler = append(handler, ms(h.Dur))
		transport = append(transport, ms(op.rtt-h.Dur))
		respBytes += float64(h.Out)
		cells += op.req.cells()
		var slowest time.Duration
		var hid int64
		if op.traced {
			hid = b.rec.add(span{Name: "server.Handler", Op: op.op, Parent: op.parentID, Start: h.Start, End: h.Start.Add(h.Dur)})
		}
		for _, s := range shards[op.traceID] {
			slowest = max(slowest, s.Dur)
			if op.traced {
				b.rec.add(span{Name: "worker.Handler", Op: op.op, Parent: hid, Start: s.Start, End: s.Start.Add(s.Dur)})
			}
		}
		overhead = append(overhead, ms(h.Dur-slowest))
	}
	if len(handler) > 0 {
		m["report.bytes_per_response"] = respBytes / float64(len(handler))
	}
	m["server.handler_ms_p50"] = median(handler)
	m["server.transport_ms"] = median(transport)
	m["cluster.dispatch_overhead_ms"] = median(overhead)
	if cells > 0 {
		m["cluster.wire_bytes_per_cell"] = float64(wire) / float64(cells)
	}
	s1 := st.coord.srv.Cluster().Stats()
	m["cluster.retries"] = float64(s1.Retries - st.stats0.Retries)
	m["cluster.hedges"] = float64(s1.Hedges - st.stats0.Hedges)
	m["cluster.fallbacks"] = float64(s1.Fallbacks - st.stats0.Fallbacks)
	var after []cache.Stats
	for _, n := range st.workers {
		after = append(after, n.srv.CacheStats())
	}
	cacheLayer(m, st.cache0, after, w)
	m["cluster.worker_hit_pct"] = m["cache.hit_pct"]
	return serverLayer(ctx, m, st.client, st.nodes(), st.scrape0)
}

func (st *clusterState) close() {
	// Coordinator first, so no shard request is in flight when a worker
	// stops.
	if st.coord != nil {
		st.coord.close()
	}
	for _, n := range st.workers {
		n.close()
	}
	st.client.CloseIdleConnections()
}
