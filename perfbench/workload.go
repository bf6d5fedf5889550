package main

import (
	"context"
	"strings"
	"time"

	"vocabpipe/internal/sweep"
)

// workload is one benchmark workload: how to set it up and which service
// layers it reaches. Layers it bypasses are probed in the traced run (see
// layers.go).
type workload struct {
	name string
	// tailQ is the tail percentile the workload reports as latency_tail_ms:
	// the highest that keeps at least minBeyond samples beyond it at the
	// workload's op rate in the default window.
	tailQ float64
	// reaches lists the service layers the workload exercises among
	// "server" (with cache, admission and obs), "cluster" and "tune".
	reaches []string
	// ungated marks a workload BENCHMARK.json does not list: it runs when
	// asked for by name and as the traced run's probe of the layers it
	// reaches, but no bound applies to its figures.
	ungated bool
	setup   func(ctx context.Context, b *bench) (state, error)
}

func (w *workload) uses(layer string) bool {
	for _, l := range w.reaches {
		if l == layer {
			return true
		}
	}
	return false
}

// primer is a state with seeded inputs to ready after the timed set-up:
// generating them and first-touching the keys the window repeats. Priming
// depends on the seed, so it stays out of setup_s, which times only the
// program's own boot and warm-up.
type primer interface {
	prime(ctx context.Context, b *bench) error
}

// state is a set-up workload, ready to measure.
type state interface {
	// measure runs the window, filling w.
	measure(ctx context.Context, b *bench, w *window) error
	// check verifies outputs that could not be checked inline, moving ops
	// whose output is wrong from ok to failed in w.led.
	check(ctx context.Context, b *bench, w *window) error
	// layers adds the metrics of the service layers the workload reaches.
	layers(ctx context.Context, b *bench, w *window, m map[string]float64) error
	close()
}

// window is what one measured window produced.
type window struct {
	led     ledger
	lat     []float64 // ms per ok op
	hitLat  []float64 // ms per ok op answered from a cache
	missLat []float64 // ms per ok op computed cold
	cells   int       // cells in ok ops
	elapsed time.Duration
	lag     []float64 // ms the generator sent late
	// heapMB and heapPeakMB are the median and largest heap-in-use samples.
	heapMB, heapPeakMB float64
	rt0                runtimeStats
	rt1                runtimeStats
	// abLat holds op latencies of untraced [0] and traced [1] ops in the
	// traced run.
	abLat [2][]float64
	// computed lists the cells the window evaluated, one entry per distinct
	// cell, for the schedule/sim decomposition.
	computed []sweep.Cell
	seen     map[string]bool // fingerprints of computed
	// sweeps are the benchmark's own sweep.RunCtx calls: wall time and
	// cells, for sweep.worker_idle_pct.
	sweeps []sweepCall
	// encodes are the benchmark's own report.WriteJSON calls.
	encodes []encodeCall
}

type sweepCall struct {
	wall  time.Duration
	cells []sweep.Cell
}

type encodeCall struct {
	dur   time.Duration
	bytes int
}

// addComputed records cells as evaluated, once per distinct cell.
func (w *window) addComputed(cells []sweep.Cell) {
	if w.seen == nil {
		w.seen = map[string]bool{}
	}
	for _, c := range cells {
		fp := cellFingerprint(c)
		if !w.seen[fp] {
			w.seen[fp] = true
			w.computed = append(w.computed, c)
		}
	}
}

// closedLoop runs op back to back on one caller until d has elapsed. op
// reports the cells it covered and its outcome; its latency is measured
// here. prep, when non-nil, draws the next op's input outside the op's
// timing. The generator's lag is the gap between one op's end and the next
// op's start, input drawing included.
func (b *bench) closedLoop(ctx context.Context, w *window, d time.Duration, prep func() error,
	op func(t opTrace) (cells int, o outcome, hit bool, err error)) error {
	start := time.Now()
	last := start
	for time.Since(start) < d {
		if prep != nil {
			if err := prep(); err != nil {
				return err
			}
		}
		id := b.nextOp()
		rec := b.recFor(id)
		t0 := time.Now()
		w.lag = append(w.lag, ms(t0.Sub(last)))
		sp := rec.begin(id, 0, "op")
		cells, o, hit, err := op(opTrace{id: id, root: sp.id(), rec: rec})
		sp.end()
		last = time.Now()
		if err != nil {
			return err
		}
		w.led.add(o)
		if o != outcomeOK {
			continue
		}
		lat := ms(last.Sub(t0))
		w.lat = append(w.lat, lat)
		w.cells += cells
		if hit {
			w.hitLat = append(w.hitLat, lat)
		} else {
			w.missLat = append(w.missLat, lat)
		}
		if b.rec != nil {
			ab := 0
			if rec != nil {
				ab = 1
			}
			w.abLat[ab] = append(w.abLat[ab], lat)
		}
	}
	w.elapsed = time.Since(start)
	return nil
}

// opTrace is one op's tracing context: its ID, its root span's ID and the
// recorder, nil when the op is untraced.
type opTrace struct {
	id, root int64
	rec      *recorder
}

func (t opTrace) begin(name string) *spanHandle { return t.rec.begin(t.id, t.root, name) }

var workloads []*workload

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}
