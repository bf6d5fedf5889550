// Command perfbench is the repository's benchmark: it drives the simulator
// and the service built on it through four seeded workloads and reports
// end-to-end metrics (the untraced run) or per-layer metrics (the traced
// run, --trace 1). BENCHMARK.json at the repository root describes the
// workloads and metrics; perfbench/run.sh builds and runs it:
//
//	bash perfbench/run.sh --workload cluster-sweep --seed 7 --seconds 20 --trace 0
//
// Workloads:
//
//	paper-grids    the Table 5 + Table 6 grids through sweep.RunCtx, encoded
//	tune-search    tune.Search beam + exhaustive on three scenarios
//	cluster-sweep  closed-loop shardable grids on a coordinator + 2 workers
//	serve-mixed    open-loop Poisson traffic on an in-process vpserve
//	               (ungated: not in BENCHMARK.json; see serve.go)
//
// The last line of standard output is the result object
// {"correct","attempted","failed","metrics"}; the lines before it describe
// the generated mix and, in the traced run, the per-layer breakdown. The
// traced run also writes its spans as a Chrome trace under -out.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"time"
)

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median, and the last set-up is the one measured.
const setupRepeats = 9

type config struct {
	workload string
	seed     uint64
	window   time.Duration
	trace    bool
	root     string // repository root (inputs such as goldens are read here)
	out      string // where the traced run writes its artifacts
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one run's shared state.
type bench struct {
	cfg   config
	wl    *workload
	rec   *recorder // nil in the untraced run
	ops   atomic.Int64
	procs int
	log   io.Writer // summary lines (standard output, before the result)
}

func (b *bench) nextOp() int64 { return b.ops.Add(1) }

// recFor returns the recorder an op records into. The traced run traces
// every other op, so the same run measures the recorder's own overhead
// (obs.trace_overhead_pct) against untraced ops.
func (b *bench) recFor(op int64) *recorder {
	if b.rec == nil || op%2 == 1 {
		return nil
	}
	return b.rec
}

func (b *bench) note(kind string, v any) {
	line, err := json.Marshal(map[string]any{"workload": b.cfg.workload, kind: v})
	if err != nil {
		fmt.Fprintf(b.log, "%s: %v\n", kind, err)
		return
	}
	fmt.Fprintf(b.log, "%s\n", line)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var seconds int
	var traced int
	fs.StringVar(&cfg.workload, "workload", "", "workload `name`: "+workloadNames())
	fs.Uint64Var(&cfg.seed, "seed", 1, "input seed")
	fs.IntVar(&seconds, "seconds", 15, "measured window in seconds")
	fs.IntVar(&traced, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&cfg.root, "root", ".", "repository root")
	fs.StringVar(&cfg.out, "out", ".bench_build/perfbench", "directory for the traced run's artifacts")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl := workloadByName(cfg.workload)
	if wl == nil || seconds < 1 || (traced != 0 && traced != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: want --workload (%s) --seed N --seconds S --trace 0|1\n", workloadNames())
		return 2
	}
	cfg.window = time.Duration(seconds) * time.Second
	cfg.trace = traced == 1
	b := &bench{cfg: cfg, wl: wl, procs: runtime.GOMAXPROCS(0), log: stdout}
	if cfg.trace {
		b.rec = newRecorder()
	}
	res, err := b.run(context.Background())
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// run sets the workload up setupRepeats times, measures one window on the
// last set-up, checks outputs, and assembles the metrics of the requested
// mode.
func (b *bench) run(ctx context.Context) (*result, error) {
	var setups []float64
	var st state
	for i := 0; i < setupRepeats; i++ {
		if st != nil {
			st.close()
		}
		t0 := time.Now()
		var err error
		if st, err = b.wl.setup(ctx, b); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer st.close()
	b.note("setup_s", setups)
	if p, ok := st.(primer); ok {
		if err := p.prime(ctx, b); err != nil {
			return nil, fmt.Errorf("priming: %w", err)
		}
	}

	runtime.GC()
	heap := startHeapSampler(10 * time.Millisecond)
	w := &window{rt0: readRuntime()}
	start := time.Now()
	err := st.measure(ctx, b, w)
	w.rt1 = readRuntime()
	w.heapMB, w.heapPeakMB = heap.Stop()
	if w.elapsed == 0 {
		w.elapsed = time.Since(start)
	}
	if err != nil {
		return nil, fmt.Errorf("measuring: %w", err)
	}
	checkErr := st.check(ctx, b, w)
	if err := w.led.check(); err != nil {
		return nil, err
	}
	b.note("ledger", map[string]any{"attempted": w.led.Attempted, "ok": w.led.OK,
		"failed": w.led.Failed, "shed": w.led.Shed, "failed_pct": w.led.failedPct()})
	if checkErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: output check: %v\n", b.cfg.workload, checkErr)
	}

	res := &result{
		Correct:   checkErr == nil && w.led.Failed == 0 && w.led.Shed == 0,
		Attempted: w.led.Attempted,
		Failed:    w.led.Failed + w.led.Shed,
		Metrics:   map[string]metric{},
	}
	if b.cfg.trace {
		err = b.layerMetrics(ctx, st, w, res.Metrics)
	} else {
		err = b.endToEnd(w, median(setups), res.Metrics)
	}
	if err != nil {
		return nil, err
	}
	return res, checkNames(res.Metrics, b.cfg.trace)
}

// endToEnd fills the untraced run's metrics.
func (b *bench) endToEnd(w *window, setupS float64, m map[string]metric) error {
	p50, err := mustPercentile("latency p50", w.lat, 0.5)
	if err != nil {
		return err
	}
	tail, err := mustPercentile("latency tail", w.lat, b.wl.tailQ)
	if err != nil {
		return err
	}
	secs := w.elapsed.Seconds()
	var ladder []string
	for _, q := range []float64{0.5, 0.75, 0.9, 0.95, 0.99} {
		ladder = append(ladder, percentile(w.lat, q).String())
	}
	b.note("latency_ms", ladder)
	put(m, "setup_s", setupS)
	put(m, "ops_per_s", float64(w.led.OK)/secs)
	put(m, "cells_per_s", float64(w.cells)/secs)
	put(m, "latency_p50_ms", p50)
	put(m, "latency_tail_ms", tail)
	put(m, "ok_pct", 100*float64(w.led.OK)/float64(w.led.Attempted))
	return nil
}

// units is every metric's unit; BENCHMARK.json lists the same names.
var units = map[string]string{}

// e2eNames and layerNames are the metrics each mode must print, in order.
var e2eNames, layerNames []string

func defineMetrics(list *[]string, defs ...string) {
	for i := 0; i < len(defs); i += 2 {
		*list = append(*list, defs[i])
		units[defs[i]] = defs[i+1]
	}
}

func init() {
	defineMetrics(&e2eNames,
		"setup_s", "s",
		"ops_per_s", "1/s",
		"cells_per_s", "1/s",
		"latency_p50_ms", "ms",
		"latency_tail_ms", "ms",
		"ok_pct", "%",
	)
	defineMetrics(&layerNames,
		"schedule.build_us_p50", "us",
		"schedule.build_us_p95", "us",
		"schedule.ns_per_pass", "ns",
		"schedule.ns_per_pass.p64", "ns",
		"schedule.allocs_per_build", "count",
		"schedule.chain_order_gain_pct", "%",
		"schedule.analyze_us", "us",
		"sim.buildspec_us", "us",
		"sweep.worker_idle_pct", "%",
		"sweep.critical_path_ms", "ms",
		"tune.evals_per_search", "count",
		"tune.search_ms.beam", "ms",
		"tune.search_ms.exhaustive", "ms",
		"report.encode_us", "us",
		"report.bytes_per_response", "bytes",
		"cache.hit_pct", "%",
		"cache.deduped", "count",
		"cache.evictions", "count",
		"cache.lookup_hit_ms", "ms",
		"cache.hit_latency_p50_ms", "ms",
		"cache.miss_latency_p50_ms", "ms",
		"server.handler_ms_p50", "ms",
		"server.transport_ms", "ms",
		"admission.wait_ms_p90", "ms",
		"admission.shed", "count",
		"obs.trace_overhead_pct", "%",
		"obs.spans_per_trace", "count",
		"cluster.dispatch_overhead_ms", "ms",
		"cluster.worker_hit_pct", "%",
		"cluster.wire_bytes_per_cell", "bytes",
		"cluster.retries", "count",
		"cluster.hedges", "count",
		"cluster.fallbacks", "count",
		"driver.lag_ms_tail", "ms",
		"runtime.alloc_mb_per_op", "MiB",
		"runtime.gc_cpu_pct", "%",
		"runtime.heap_inuse_mb", "MiB",
		"runtime.heap_peak_mb", "MiB",
	)
}

func put(m map[string]metric, name string, v float64) {
	m[name] = metric{Value: v, Unit: units[name]}
}

// checkNames verifies the result carries exactly the mode's metrics.
func checkNames(m map[string]metric, traced bool) error {
	want := e2eNames
	if traced {
		want = layerNames
	}
	var errs []error
	for _, n := range want {
		if _, ok := m[n]; !ok {
			errs = append(errs, fmt.Errorf("metric %s missing", n))
		}
	}
	if len(m) != len(want) {
		var got []string
		for n := range m {
			got = append(got, n)
		}
		sort.Strings(got)
		errs = append(errs, fmt.Errorf("metrics %v, want %d names", got, len(want)))
	}
	return errors.Join(errs...)
}

// writeArtifact creates a file under the output directory.
func (b *bench) writeArtifact(name string, write func(io.Writer) error) (string, error) {
	if err := os.MkdirAll(b.cfg.out, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(b.cfg.out, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := write(f); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
