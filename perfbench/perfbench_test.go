package main

import (
	"encoding/json"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

func servePaths(t *testing.T, seed uint64) []string {
	t.Helper()
	mix, err := genServe(seed, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, r := range append(mix.hot, mix.arrivals...) {
		out = append(out, r.Path+"@"+r.Due.String())
	}
	return out
}

func TestServeGeneratorDeterministic(t *testing.T) {
	a, b := servePaths(t, 7), servePaths(t, 7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed generated different serve-mixed inputs")
	}
	if reflect.DeepEqual(a, servePaths(t, 8)) {
		t.Fatal("different seeds generated identical serve-mixed inputs")
	}
	mix, _ := genServe(7, 2*time.Second)
	if got, want := len(mix.arrivals), int(2*serveRate); got != want {
		t.Fatalf("%d arrivals in 2s, want exactly %d", got, want)
	}
	for _, r := range mix.arrivals {
		if r.Due < 0 || r.Due >= 2*time.Second {
			t.Fatalf("arrival due at %v, outside the window", r.Due)
		}
	}
}

func clusterPaths(t *testing.T, seed uint64, n int) []string {
	t.Helper()
	cg, err := newClusterGen(seed)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for i := 0; i < n; i++ {
		r, err := cg.next()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, r.Path)
	}
	return out
}

func TestClusterGeneratorDeterministic(t *testing.T) {
	a, b := clusterPaths(t, 3, 300), clusterPaths(t, 3, 300)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed generated different cluster-sweep inputs")
	}
	if reflect.DeepEqual(a, clusterPaths(t, 4, 300)) {
		t.Fatal("different seeds generated identical cluster-sweep inputs")
	}
}

// Cold cluster cells must not be hot cells, nor recur while the workers'
// caches (2 × 256 entries) could still hold them, or a "cold" shard could
// hit a worker's cache.
func TestClusterColdCellsAreNew(t *testing.T) {
	cg, err := newClusterGen(5)
	if err != nil {
		t.Fatal(err)
	}
	hot := map[string]bool{}
	for _, r := range cg.hot {
		for _, c := range r.Grid.Expand() {
			hot[cellFingerprint(c)] = true
		}
	}
	const horizon = 4 * 2 * 256 // cold cells after which a repeat is allowed
	last := map[string]int{}    // cell → index among cold cells
	cold := 0
	for i := 0; i < 3000; i++ {
		r, err := cg.next()
		if err != nil {
			t.Fatal(err)
		}
		cells := r.Grid.Expand()
		if len(cells) < 4 || len(cells) > 8 {
			t.Fatalf("grid of %d cells, want 4–8", len(cells))
		}
		if r.Hot >= 0 {
			continue
		}
		for _, c := range cells {
			fp := cellFingerprint(c)
			if hot[fp] {
				t.Fatalf("cold op %d repeats hot cell %s", i, fp)
			}
			if j, ok := last[fp]; ok && cold-j < horizon {
				t.Fatalf("cold op %d repeats cell %s after %d cold cells", i, fp, cold-j)
			}
			last[fp] = cold
			cold++
		}
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: the helper must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n    int
		q    float64
		ok   bool
		want float64
	}{
		{19, 0.5, false, 10},
		{20, 0.5, true, 10},
		{999, 0.99, false, 990},
		{1000, 0.99, true, 990},
		{40, 0.75, true, 30},
		{39, 0.75, false, 30},
		{0, 0.5, false, 0},
	} {
		p := percentile(seq(tc.n), tc.q)
		if p.OK() != tc.ok || p.Value != tc.want || p.N != tc.n {
			t.Errorf("percentile(n=%d, q=%g) = %+v (ok %v), want value %g ok %v",
				tc.n, tc.q, p, p.OK(), tc.want, tc.ok)
		}
		if !strings.Contains(p.String(), "n=") {
			t.Errorf("%q does not state the sample count", p.String())
		}
		if _, err := mustPercentile("x", seq(tc.n), tc.q); (err == nil) != tc.ok {
			t.Errorf("mustPercentile(n=%d, q=%g) error = %v, want ok %v", tc.n, tc.q, err, tc.ok)
		}
	}
}

func TestLedgerInvariant(t *testing.T) {
	var l ledger
	if l.check() == nil {
		t.Fatal("an empty ledger passed the check")
	}
	for _, o := range []outcome{outcomeOK, outcomeOK, outcomeFailed, outcomeShed, outcomeOK} {
		l.add(o)
	}
	if err := l.check(); err != nil {
		t.Fatal(err)
	}
	if l.Attempted != 5 || l.OK != 3 || l.Failed != 1 || l.Shed != 1 {
		t.Fatalf("ledger %+v", l)
	}
	if got := l.failedPct(); got != 40 {
		t.Fatalf("failedPct = %g, want 40", got)
	}
	l.OK--
	if l.check() == nil {
		t.Fatal("a ledger with attempted != ok+failed+shed passed the check")
	}
}

func TestSelfTimes(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	got := selfTimes([]span{
		{Name: "op", ID: 1, Start: at(0), End: at(100)},
		{Name: "a", ID: 2, Parent: 1, Start: at(10), End: at(40)},
		{Name: "b", ID: 3, Parent: 1, Start: at(30), End: at(60)}, // overlaps a
		{Name: "c", ID: 4, Parent: 2, Start: at(20), End: at(30)},
	})
	want := map[string]time.Duration{"op": 50 * time.Millisecond, "a": 20 * time.Millisecond,
		"b": 30 * time.Millisecond, "c": 10 * time.Millisecond}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
}

func TestMetricNamesAreUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, n := range append(append([]string(nil), e2eNames...), layerNames...) {
		if seen[n] {
			t.Errorf("metric %s defined twice", n)
		}
		seen[n] = true
		if units[n] == "" {
			t.Errorf("metric %s has no unit", n)
		}
	}
}

// BENCHMARK.json must list exactly the metrics each mode prints, with the
// same units, and every gated workload.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []string) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d printed", kind, len(got), len(want))
		}
		for i := range min(len(got), len(want)) {
			if got[i].Name != want[i] || got[i].Unit != units[want[i]] {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark prints %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i], units[want[i]])
			}
		}
	}
	check("end_to_end", doc.EndToEnd, e2eNames)
	check("per_layer", doc.PerLayer, layerNames)
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
		if wl := workloadByName(w.Name); wl == nil || wl.ungated {
			t.Errorf("BENCHMARK.json workload %s is not a gated workload", w.Name)
		}
	}
	gated := 0
	for _, w := range workloads {
		if !w.ungated {
			gated++
		}
	}
	if len(names) != gated {
		t.Errorf("BENCHMARK.json lists workloads %v, the benchmark defines %s", names, workloadNames())
	}
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "paper-grids", "--trace", "2"},
		{"--workload", "paper-grids", "--seconds", "0"},
	} {
		if code := run(args, io.Discard, io.Discard); code != 2 {
			t.Errorf("run(%v) = %d, want 2", args, code)
		}
	}
}
