package main

import (
	"context"
	"fmt"
	"io"
	"math/rand/v2"
	"runtime"
	"sort"
	"strings"
	"time"

	"vocabpipe/internal/costmodel"
	"vocabpipe/internal/report"
	"vocabpipe/internal/schedule"
	"vocabpipe/internal/sim"
	"vocabpipe/internal/sweep"
)

// The traced run's per-layer metrics. The service layers (server, cache,
// admission, obs, cluster, tune) come from the workload's own calls and
// the counters and traces the servers expose. The compute layers (sim,
// schedule, sweep, report) come from a decomposition pass after the window:
// the window's distinct cells are rebuilt one call at a time through
// sim.BuildSpec, (*schedule.Engine).Build and the schedule.Analyzer.

const (
	// decompCells caps the cells the decomposition rebuilds (a seeded
	// sample when the window computed more).
	decompCells = 300
	// decompReps is how many times each order is rebuilt.
	decompReps = 2
)

// probes name the workload that measures a service layer group when the
// traced workload bypasses it, and the probe's window. The group's metrics
// then describe the probe, not the traced workload; the layer summary says
// so.
var probes = []struct {
	group    string
	prefixes []string
	workload string
	window   time.Duration
}{
	{"server", []string{"cache.", "server.", "admission.", "obs.spans_per_trace"}, "serve-mixed", 4 * time.Second},
	{"cluster", []string{"cluster."}, "cluster-sweep", 2 * time.Second},
	{"tune", []string{"tune."}, "tune-search", time.Second},
}

func (b *bench) layerMetrics(ctx context.Context, st state, w *window, out map[string]metric) error {
	m := map[string]float64{}
	if err := st.layers(ctx, b, w, m); err != nil {
		return fmt.Errorf("service layers: %w", err)
	}
	if err := b.decompose(ctx, w, m); err != nil {
		return fmt.Errorf("decomposition: %w", err)
	}
	var enc, encBytes []float64
	for _, e := range w.encodes {
		enc = append(enc, float64(e.dur.Nanoseconds())/1e3)
		encBytes = append(encBytes, float64(e.bytes))
	}
	m["report.encode_us"] = median(enc)
	if _, ok := m["report.bytes_per_response"]; !ok {
		m["report.bytes_per_response"] = sum(encBytes) / float64(len(encBytes))
	}
	if len(w.abLat[0]) > 0 && len(w.abLat[1]) > 0 {
		m["obs.trace_overhead_pct"] = 100 * (median(w.abLat[1])/median(w.abLat[0]) - 1)
	}
	var err error
	if m["driver.lag_ms_tail"], err = mustPercentile("generator lag", w.lag, b.wl.tailQ); err != nil {
		return err
	}
	m["runtime.alloc_mb_per_op"] = (w.rt1.allocBytes - w.rt0.allocBytes) / (1 << 20) / float64(w.led.Attempted)
	if cpu := w.rt1.totalCPU - w.rt0.totalCPU; cpu > 0 {
		m["runtime.gc_cpu_pct"] = 100 * (w.rt1.gcCPU - w.rt0.gcCPU) / cpu
	}
	m["runtime.heap_inuse_mb"] = w.heapMB
	m["runtime.heap_peak_mb"] = w.heapPeakMB

	probed := map[string]string{}
	for _, p := range probes {
		if b.wl.uses(p.group) {
			continue
		}
		pm, err := b.probe(ctx, p.workload, p.window)
		if err != nil {
			return fmt.Errorf("probing %s with %s: %w", p.group, p.workload, err)
		}
		for k, v := range pm {
			for _, pre := range p.prefixes {
				if strings.HasPrefix(k, pre) {
					m[k] = v
				}
			}
		}
		probed[p.group] = fmt.Sprintf("%s, %s window", p.workload, p.window)
	}
	if len(probed) > 0 {
		b.note("probed", probed)
	}

	path, err := b.writeArtifact(fmt.Sprintf("trace-%s-seed%d.json", b.cfg.workload, b.cfg.seed), b.rec.writeChrome)
	if err != nil {
		return err
	}
	self := map[string]float64{}
	for name, d := range selfTimes(b.rec.snapshot()) {
		self[name] = ms(d)
	}
	b.note("span_self_ms", self)
	b.note("chrome_trace", path)
	for _, name := range layerNames {
		v, ok := m[name]
		if !ok {
			return fmt.Errorf("layer metric %s not measured", name)
		}
		put(out, name, v)
	}
	return nil
}

// probe runs another workload untraced for a short window and returns its
// service-layer metrics.
func (b *bench) probe(ctx context.Context, name string, d time.Duration) (map[string]float64, error) {
	pb := &bench{cfg: b.cfg, wl: workloadByName(name), procs: b.procs, log: io.Discard}
	pb.cfg.workload, pb.cfg.window = name, d
	st, err := pb.wl.setup(ctx, pb)
	if err != nil {
		return nil, err
	}
	defer st.close()
	if p, ok := st.(primer); ok {
		if err := p.prime(ctx, pb); err != nil {
			return nil, err
		}
	}
	w := &window{}
	if err := st.measure(ctx, pb, w); err != nil {
		return nil, err
	}
	if err := st.check(ctx, pb, w); err != nil {
		return nil, err
	}
	m := map[string]float64{}
	return m, st.layers(ctx, pb, w, m)
}

// cellTime is one cell's rebuild, split by layer.
type cellTime struct {
	spec, build, analyze time.Duration
	passes, p            int
}

// decompose rebuilds the window's distinct cells on one reused engine,
// alternately in chain order (sorted so cells differing only in the
// microbatch count are adjacent, ascending) and in a seeded shuffle,
// ABBA across decompReps repetitions of each.
func (b *bench) decompose(ctx context.Context, w *window, m map[string]float64) error {
	cells := decompSample(w, rand.New(rand.NewPCG(b.cfg.seed, 5)))
	chain := append([]sweep.Cell(nil), cells...)
	sort.SliceStable(chain, func(i, j int) bool {
		ki, kj := chainKey(chain[i]), chainKey(chain[j])
		if ki != kj {
			return ki < kj
		}
		return chain[i].Config.NumMicro < chain[j].Config.NumMicro
	})
	op := b.nextOp()
	perCell := map[string][]cellTime{}
	var builds, specs, analyzes []float64
	var chainTotal, shufTotal []float64
	var buildNs, passes, p64Ns, p64Passes float64
	pHist := map[int]int{}
	for rep := 0; rep < 2*decompReps; rep++ {
		inChain := rep%4 == 0 || rep%4 == 3
		order := cells
		if inChain {
			order = chain
		}
		times, total, err := b.rebuild(op, order)
		if err != nil {
			return err
		}
		if inChain {
			chainTotal = append(chainTotal, ms(total))
		} else {
			shufTotal = append(shufTotal, ms(total))
		}
		for i, t := range times {
			if t.p == 0 {
				continue // the cell's spec is invalid; the sweep reports it as an error record
			}
			builds = append(builds, float64(t.build.Nanoseconds())/1e3)
			specs = append(specs, float64(t.spec.Nanoseconds())/1e3)
			analyzes = append(analyzes, float64(t.analyze.Nanoseconds())/1e3)
			if !inChain {
				continue
			}
			fp := cellFingerprint(order[i])
			perCell[fp] = append(perCell[fp], t)
			buildNs += float64(t.build.Nanoseconds())
			passes += float64(t.passes)
			if t.p == 64 {
				p64Ns += float64(t.build.Nanoseconds())
				p64Passes += float64(t.passes)
			}
			if rep == 0 {
				pHist[t.p]++
			}
		}
	}
	var err error
	if m["schedule.build_us_p50"], err = mustPercentile("builds", builds, 0.5); err != nil {
		return err
	}
	if m["schedule.build_us_p95"], err = mustPercentile("builds", builds, 0.95); err != nil {
		return err
	}
	m["schedule.ns_per_pass"] = buildNs / passes
	m["schedule.analyze_us"] = median(analyzes)
	m["sim.buildspec_us"] = median(specs)
	m["schedule.chain_order_gain_pct"] = 100 * (median(shufTotal)/median(chainTotal) - 1)
	p64Source := "workload cells"
	if p64Passes == 0 {
		ns, err := b.probeP64(op)
		if err != nil {
			return err
		}
		m["schedule.ns_per_pass.p64"] = ns
		p64Source = "probe: 21B/seq4096/V256k/vocab-1, 64 devices, 128 microbatches"
	} else {
		m["schedule.ns_per_pass.p64"] = p64Ns / p64Passes
	}
	if m["schedule.allocs_per_build"], err = allocsPerBuild(chain); err != nil {
		return err
	}

	// Cell cost (all three layers, mean over repetitions) drives the sweep
	// metrics: busy time against the workers' capacity over the window's
	// own sweep calls, and the slowest cell.
	cost := map[string]float64{}
	critical := 0.0
	for fp, ts := range perCell {
		t := 0.0
		for _, x := range ts {
			t += ms(x.spec + x.build + x.analyze)
		}
		cost[fp] = t / float64(len(ts))
		critical = max(critical, cost[fp])
	}
	var busy, capacity float64
	calls := 0
	for _, call := range w.sweeps {
		c, known := 0.0, true
		for _, cell := range call.cells {
			t, ok := cost[cellFingerprint(cell)]
			known = known && ok
			c += t
		}
		if known {
			calls++
			busy += c
			capacity += float64(min(b.procs, len(call.cells))) * ms(call.wall)
		}
	}
	if capacity > 0 {
		m["sweep.worker_idle_pct"] = 100 * (1 - busy/capacity)
	}
	m["sweep.critical_path_ms"] = critical
	b.note("decomposition", map[string]any{
		"cells": len(cells), "of": len(w.computed), "reps_per_order": decompReps,
		"sweep_calls_costed": calls, "sweep_calls": len(w.sweeps),
		"p_histogram": pHist, "p64_source": p64Source,
		"chain_total_ms": chainTotal, "shuffled_total_ms": shufTotal,
	})
	if len(w.encodes) == 0 {
		return b.encodeCells(ctx, w, cells)
	}
	return nil
}

// decompSample picks the cells to decompose, in a seeded shuffle: whole
// sweep calls first, in a seeded order, while they fit under decompCells
// (so those calls' cell costs are exact for sweep.worker_idle_pct), then
// the window's other cells.
func decompSample(w *window, rng *rand.Rand) []sweep.Cell {
	seen := map[string]bool{}
	var out []sweep.Cell
	fresh := func(cells []sweep.Cell) []sweep.Cell {
		var n []sweep.Cell
		for _, c := range cells {
			if !seen[cellFingerprint(c)] {
				n = append(n, c)
			}
		}
		return n
	}
	add := func(cells []sweep.Cell) {
		for _, c := range cells {
			seen[cellFingerprint(c)] = true
			out = append(out, c)
		}
	}
	for _, i := range rng.Perm(len(w.sweeps)) {
		if n := fresh(w.sweeps[i].cells); len(out)+len(n) <= decompCells {
			add(n)
		}
	}
	for _, i := range rng.Perm(len(w.computed)) {
		if len(out) >= decompCells {
			break
		}
		add(fresh(w.computed[i : i+1]))
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// chainKey groups cells that differ only in the microbatch count.
func chainKey(c sweep.Cell) string {
	c.Config.NumMicro = 0
	c.Label = ""
	return cellFingerprint(c)
}

// rebuild runs cells through sim.BuildSpec, (*schedule.Engine).Build and
// the analyzer calls sim.Runner makes, on one engine, timing each call. A
// cell whose spec does not build has p == 0.
func (b *bench) rebuild(op int64, cells []sweep.Cell) ([]cellTime, time.Duration, error) {
	eng := schedule.NewEngine()
	var an schedule.Analyzer
	out := make([]cellTime, len(cells))
	var total time.Duration
	for i, c := range cells {
		sp := b.rec.begin(op, 0, "sim.BuildSpec")
		t0 := time.Now()
		spec, err := sim.BuildSpec(c.Config, c.Method)
		t1 := time.Now()
		sp.end()
		if err != nil {
			continue
		}
		sp = b.rec.begin(op, 0, "schedule.Engine.Build")
		t1 = time.Now()
		tl, err := eng.Build(spec)
		t2 := time.Now()
		sp.end()
		if err != nil {
			return nil, 0, fmt.Errorf("building %s: %w", c.Label, err)
		}
		sp = b.rec.begin(op, 0, "schedule.Analyzer")
		t2 = time.Now()
		an.PeakMemoryBytes(tl, costmodel.RuntimeOverheadBytes)
		an.PeakInFlight(tl)
		t3 := time.Now()
		sp.end()
		out[i] = cellTime{spec: t1.Sub(t0), build: t2.Sub(t1), analyze: t3.Sub(t2), passes: len(tl.Passes), p: spec.P}
		total += t2.Sub(t1)
	}
	return out, total, nil
}

// probeP64 times the engine at P = 64 when the workload built no such
// cell: a fixed 64-device cell rebuilt after a differently-placed one, so
// no prefix is replayed.
func (b *bench) probeP64(op int64) (float64, error) {
	cfg, _ := costmodel.ConfigByName("21B")
	cfg = cfg.WithSeq(4096).WithVocab(256 * 1024)
	cfg.Devices, cfg.NumMicro = 64, 128
	warm, err := sim.BuildSpec(cfg, sim.Baseline)
	if err != nil {
		return 0, err
	}
	spec, err := sim.BuildSpec(cfg, sim.Vocab1)
	if err != nil {
		return 0, err
	}
	eng := schedule.NewEngine()
	var ns []float64
	for i := 0; i < 5; i++ {
		if _, err := eng.Build(warm); err != nil {
			return 0, err
		}
		sp := b.rec.begin(op, 0, "schedule.Engine.Build")
		t0 := time.Now()
		tl, err := eng.Build(spec)
		d := time.Since(t0)
		sp.end()
		if err != nil {
			return 0, err
		}
		ns = append(ns, float64(d.Nanoseconds())/float64(len(tl.Passes)))
	}
	return median(ns), nil
}

// allocsPerBuild counts heap allocations per (*schedule.Engine).Build on a
// warm engine over the chain-ordered cells, specs built beforehand.
func allocsPerBuild(cells []sweep.Cell) (float64, error) {
	var specs []*schedule.Spec
	for _, c := range cells {
		if s, err := sim.BuildSpec(c.Config, c.Method); err == nil {
			specs = append(specs, s)
		}
	}
	if len(specs) == 0 {
		return 0, fmt.Errorf("no buildable cell")
	}
	eng := schedule.NewEngine()
	for _, s := range specs {
		if _, err := eng.Build(s); err != nil {
			return 0, err
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, s := range specs {
		if _, err := eng.Build(s); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(len(specs)), nil
}

// encodeCells times report.WriteJSON for a workload that encodes nothing
// itself (tune-search): the decomposed cells, grouped by experiment, are
// evaluated and their records encoded five times each.
func (b *bench) encodeCells(ctx context.Context, w *window, cells []sweep.Cell) error {
	groups := map[string][]sweep.Cell{}
	for _, c := range cells {
		groups[c.Experiment] = append(groups[c.Experiment], c)
	}
	for name, cs := range groups {
		res, err := sweep.RunCtx(ctx, &sweep.Grid{Name: name, Cells: cs}, sweep.Options{Parallel: b.procs})
		if err != nil {
			return err
		}
		recs := res.Records()
		for i := 0; i < 5; i++ {
			var buf strings.Builder
			t0 := time.Now()
			if err := report.WriteJSON(&buf, recs); err != nil {
				return err
			}
			w.encodes = append(w.encodes, encodeCall{dur: time.Since(t0), bytes: buf.Len()})
		}
	}
	return nil
}
