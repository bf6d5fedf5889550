package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"time"

	"vocabpipe/internal/experiments"
	"vocabpipe/internal/report"
	"vocabpipe/internal/sim"
	"vocabpipe/internal/sweep"
	"vocabpipe/internal/tune"
)

// The two batch workloads call the simulator in-process with no server:
// paper-grids runs the paper's tables, tune-search the auto-tuner.

func init() {
	workloads = append(workloads,
		&workload{name: "paper-grids", tailQ: 0.75, setup: setupPaper},
		&workload{name: "tune-search", tailQ: 0.75, reaches: []string{"tune"}, setup: setupTune},
	)
}

// goldenTable5 is the Table 5 JSON the CLI golden test pins.
const goldenTable5 = "cmd/vpbench/testdata/table5.golden.json"

// paperState runs Table 5 and Table 6 cold through sweep.RunCtx and encodes
// the records, the paper's own workload.
type paperState struct {
	golden []byte // Table 5 golden bytes
	table6 []byte // Table 6 bytes of the warm-up op, the determinism reference
	cells  int    // cells per op
}

func setupPaper(ctx context.Context, b *bench) (state, error) {
	golden, err := os.ReadFile(filepath.Join(b.cfg.root, goldenTable5))
	if err != nil {
		return nil, fmt.Errorf("reading the Table 5 golden: %w", err)
	}
	st := &paperState{golden: golden,
		cells: len(experiments.Table5Grid().Expand()) + len(experiments.Table6Grid().Expand())}
	// Warm-up op: fills the sweep engine's runner pool and pins Table 6.
	out, err := st.op(ctx, b, opTrace{}, &window{})
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(out[0], golden) {
		return nil, fmt.Errorf("warm-up: Table 5 JSON differs from %s", goldenTable5)
	}
	st.table6 = out[1]
	return st, nil
}

// op evaluates both grids and returns their JSON (Table 5 first). The
// paper's grids are fixed, so the seed does not change this workload's
// inputs; it only orders the traced run's decomposition.
func (st *paperState) op(ctx context.Context, b *bench, t opTrace, w *window) ([2][]byte, error) {
	var out [2][]byte
	grids := []*sweep.Grid{experiments.Table5Grid(), experiments.Table6Grid()}
	for i, g := range grids {
		sp := t.begin("sweep.RunCtx")
		t0 := time.Now()
		res, err := sweep.RunCtx(ctx, g, sweep.Options{Parallel: b.procs})
		wall := time.Since(t0)
		sp.end()
		if err != nil {
			return out, fmt.Errorf("%s: %w", g.Name, err)
		}
		var buf bytes.Buffer
		sp = t.begin("report.WriteJSON")
		t0 = time.Now()
		err = report.WriteJSON(&buf, res.Records())
		enc := time.Since(t0)
		sp.end()
		if err != nil {
			return out, err
		}
		cells := g.Expand()
		w.sweeps = append(w.sweeps, sweepCall{wall: wall, cells: cells})
		w.encodes = append(w.encodes, encodeCall{dur: enc, bytes: buf.Len()})
		w.addComputed(cells)
		out[i] = buf.Bytes()
	}
	return out, nil
}

func (st *paperState) measure(ctx context.Context, b *bench, w *window) error {
	b.note("mix", summarize([]*request{
		{Grid: experiments.Table5Grid(), Route: "sweep.RunCtx", Hot: -1},
		{Grid: experiments.Table6Grid(), Route: "sweep.RunCtx", Hot: -1},
	}))
	return b.closedLoop(ctx, w, b.cfg.window, nil, func(t opTrace) (int, outcome, bool, error) {
		out, err := st.op(ctx, b, t, w)
		if err != nil {
			return 0, outcomeFailed, false, nil
		}
		if !bytes.Equal(out[0], st.golden) || !bytes.Equal(out[1], st.table6) {
			return 0, outcomeFailed, false, nil
		}
		return st.cells, outcomeOK, false, nil
	})
}

func (st *paperState) check(context.Context, *bench, *window) error { return nil }

func (st *paperState) layers(context.Context, *bench, *window, map[string]float64) error { return nil }

func (st *paperState) close() {}

// tuneScenarios are the tune-search scenarios with each one's exhaustive
// best candidate, pinned.
var tuneScenarios = []struct {
	name string
	best string
}{
	{"4b-full", "d4/m256/vocab-1"},
	{"21b-heavy", "d16/m128/vocab-1"},
	{"vhalf-30b", "d16/m256/vhalf-vocab-1"},
}

// tuneState runs one op = beam and exhaustive on every scenario.
type tuneState struct {
	rng *rand.Rand
	// searches records each tune.Search call of the window.
	searches []searchCall
	// firstOp describes the window's first op's searches, for the mix
	// summary.
	firstOp []*request
}

type searchCall struct {
	strategy  tune.Strategy
	wall      time.Duration
	evaluated int
}

func setupTune(ctx context.Context, b *bench) (state, error) {
	st := &tuneState{rng: rand.New(rand.NewPCG(b.cfg.seed, 3))}
	// Warm-up: one search per scenario warms the runner pool.
	for _, sc := range tuneScenarios {
		spec, _ := experiments.TuneSpec(sc.name)
		if _, err := tune.Search(ctx, spec, tune.StrategyBeam, tune.Options{Parallel: b.procs}); err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", sc.name, err)
		}
	}
	return st, nil
}

func (st *tuneState) measure(ctx context.Context, b *bench, w *window) error {
	err := b.closedLoop(ctx, w, b.cfg.window, nil, func(t opTrace) (int, outcome, bool, error) {
		cells, ok := st.op(ctx, b, t, w)
		if !ok {
			return 0, outcomeFailed, false, nil
		}
		return cells, outcomeOK, false, nil
	})
	b.note("mix", summarize(st.firstOp))
	return err
}

// op runs the scenarios in a seeded order; it fails when a search errors,
// finds nothing feasible, or exhaustive's best differs from the pin.
func (st *tuneState) op(ctx context.Context, b *bench, t opTrace, w *window) (int, bool) {
	cells, ok := 0, true
	for _, i := range st.rng.Perm(len(tuneScenarios)) {
		sc := tuneScenarios[i]
		for _, strategy := range []tune.Strategy{tune.StrategyBeam, tune.StrategyExhaustive} {
			spec, _ := experiments.TuneSpec(sc.name)
			sp := t.begin("tune.Search")
			t0 := time.Now()
			res, err := tune.Search(ctx, spec, strategy, tune.Options{Parallel: b.procs})
			wall := time.Since(t0)
			sp.end()
			if err != nil || res.Best == nil || (strategy == tune.StrategyExhaustive && res.Best.Label != sc.best) {
				ok = false
				continue
			}
			cells += res.Evaluated
			st.searches = append(st.searches, searchCall{strategy: strategy, wall: wall, evaluated: res.Evaluated})
			evaluated := candidateCells(spec, res)
			if len(st.firstOp) < 2*len(tuneScenarios) {
				st.firstOp = append(st.firstOp, &request{Grid: &sweep.Grid{Name: spec.Name, Cells: evaluated},
					Route: "tune.Search/" + string(strategy), Hot: -1})
			}
			w.sweeps = append(w.sweeps, sweepCall{wall: wall, cells: evaluated})
			w.addComputed(evaluated)
		}
	}
	return cells, ok
}

// candidateCells rebuilds the cells a search simulated from its ranked
// candidates.
func candidateCells(spec *tune.Spec, res *tune.Result) []sweep.Cell {
	d := spec.Defaulted()
	out := make([]sweep.Cell, 0, len(res.Candidates))
	for _, c := range res.Candidates {
		m, ok := sim.MethodByName(c.Method)
		if !ok {
			continue
		}
		cfg := d.Base
		cfg.Devices, cfg.NumMicro = c.Devices, c.Micro
		out = append(out, sweep.Cell{Experiment: "tune/" + d.Name, Label: c.Label, Config: cfg, Method: m})
	}
	return out
}

func (st *tuneState) check(context.Context, *bench, *window) error { return nil }

func (st *tuneState) layers(_ context.Context, _ *bench, _ *window, m map[string]float64) error {
	tuneLayer(st.searches, m)
	return nil
}

func (st *tuneState) close() {}

// tuneLayer derives the tune metrics from the window's searches.
func tuneLayer(searches []searchCall, m map[string]float64) {
	var beam, exh []float64
	evals := 0
	for _, s := range searches {
		evals += s.evaluated
		if s.strategy == tune.StrategyBeam {
			beam = append(beam, ms(s.wall))
		} else {
			exh = append(exh, ms(s.wall))
		}
	}
	if len(searches) > 0 {
		m["tune.evals_per_search"] = float64(evals) / float64(len(searches))
	}
	m["tune.search_ms.beam"] = median(beam)
	m["tune.search_ms.exhaustive"] = median(exh)
}
