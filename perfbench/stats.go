package main

import (
	"fmt"
	"math"
	"runtime/metrics"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a percentile before the
// benchmark reports it: a p99 needs at least 1000 samples, a median 20.
const minBeyond = 10

// quantile is one percentile of a sample together with the sample size it
// was taken from, so every reported percentile states its evidence.
type quantile struct {
	Q      float64 // 0.5 for the median, 0.99 for p99
	Value  float64
	N      int // sample count
	Beyond int // samples ranked strictly above Value
}

// OK reports whether the percentile has at least minBeyond samples beyond it.
func (q quantile) OK() bool { return q.N > 0 && q.Beyond >= minBeyond }

func (q quantile) String() string {
	name := fmt.Sprintf("p%g", 100*q.Q)
	if !q.OK() {
		return fmt.Sprintf("%s unreported (n=%d, %d beyond, need %d)", name, q.N, q.Beyond, minBeyond)
	}
	return fmt.Sprintf("%s=%.4g (n=%d, %d beyond)", name, q.Value, q.N, q.Beyond)
}

// percentile returns the nearest-rank q-quantile of xs. The caller checks
// OK before reporting it.
func percentile(xs []float64, q float64) quantile {
	out := quantile{Q: q, N: len(xs)}
	if len(xs) == 0 {
		return out
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(q*float64(len(s)) - 1e-9)) // 1-based rank
	k = max(1, min(k, len(s)))
	out.Value = s[k-1]
	out.Beyond = len(s) - k
	return out
}

// mustPercentile is percentile for a figure the run cannot do without: too
// few samples is an error rather than a silently weaker statistic.
func mustPercentile(what string, xs []float64, q float64) (float64, error) {
	p := percentile(xs, q)
	if !p.OK() {
		return 0, fmt.Errorf("%s: %v", what, p)
	}
	return p.Value, nil
}

// median is the plain middle value, for figures that are themselves
// summaries of a few repeats (set-up time) rather than latency samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ledger counts operations by outcome. Every attempted operation ends in
// exactly one bucket: ok, failed (an error or a wrong output) or shed (the
// server refused it with 429).
type ledger struct {
	Attempted, OK, Failed, Shed int
}

func (l *ledger) add(o outcome) {
	l.Attempted++
	switch o {
	case outcomeOK:
		l.OK++
	case outcomeShed:
		l.Shed++
	default:
		l.Failed++
	}
}

// check verifies the ledger invariant attempted = ok + failed + shed.
func (l ledger) check() error {
	if l.Attempted != l.OK+l.Failed+l.Shed {
		return fmt.Errorf("ledger: attempted %d != ok %d + failed %d + shed %d",
			l.Attempted, l.OK, l.Failed, l.Shed)
	}
	if l.Attempted == 0 {
		return fmt.Errorf("ledger: no operation attempted")
	}
	return nil
}

// failedPct is failed, shed or wrong-output operations over attempted.
func (l ledger) failedPct() float64 {
	return 100 * float64(l.Failed+l.Shed) / float64(l.Attempted)
}

type outcome int

const (
	outcomeOK outcome = iota
	outcomeFailed
	outcomeShed
)

// runtimeStats snapshots the Go runtime counters the runtime layer reports.
type runtimeStats struct {
	allocBytes float64 // cumulative heap allocation
	gcCPU      float64 // cumulative GC CPU seconds
	totalCPU   float64 // cumulative CPU seconds available to the runtime
}

func readRuntime() runtimeStats {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeStats{float64(s[0].Value.Uint64()), s[1].Value.Float64(), s[2].Value.Float64()}
}

// heapSampler samples the Go heap in use (live and not yet swept objects
// plus unused span space) while it runs.
type heapSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64 // MiB; written by the sampling goroutine until done
}

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	s := []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
	}
	read := func() {
		metrics.Read(s)
		h.samples = append(h.samples, float64(s[0].Value.Uint64()+s[1].Value.Uint64())/(1<<20))
	}
	go func() {
		defer close(h.done)
		read()
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				read()
				return
			case <-t.C:
				read()
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the median and the largest sample, in MiB.
func (h *heapSampler) Stop() (median50, peak float64) {
	close(h.stop)
	<-h.done
	for _, s := range h.samples {
		peak = max(peak, s)
	}
	return median(h.samples), peak
}
