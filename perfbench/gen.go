package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"time"

	"vocabpipe/internal/costmodel"
	"vocabpipe/internal/sim"
	"vocabpipe/internal/sweep"
)

// This file generates every workload input from the --seed argument. The
// program under test only ever receives the generated requests.

// request is one generated HTTP request together with the grid the server
// evaluates for it, which the output checks evaluate independently.
type request struct {
	Path  string      // URL path and query
	Grid  *sweep.Grid // what the server computes for Path
	Route string      // "sweep" or "schedule"
	Hot   int         // index into the hot set, -1 for a cold request
	Due   time.Duration
}

func (r *request) cells() int { return len(r.Grid.Expand()) }

// zooModel is a model of the zoo with the device counts at which both the
// 1F1B (layers divisible by p) and the V-Half (by 2p) layouts are valid, so
// no generated cell is an invalid configuration.
type zooModel struct {
	name    string
	devices []int
}

var zoo = []zooModel{
	{"4B", []int{4, 8, 16}},
	{"10B", []int{4, 8, 12, 24}},
	{"21B", []int{8, 16, 32}},
	{"7B", []int{4, 8, 16}},
	{"16B", []int{8, 12, 24}},
	{"30B", []int{8, 16, 32}},
}

// cellSpec is the parameter set of one generated grid.
type cellSpec struct {
	model   string
	seqs    []int
	vocabs  []int
	methods []sim.Method
	micro   int
	devices int
}

// sweepRequest renders the spec as a /api/v1/sweep query.
func (c cellSpec) sweepRequest() (*request, error) {
	names := make([]string, len(c.methods))
	for i, m := range c.methods {
		names[i] = m.String()
	}
	spec := fmt.Sprintf("model=%s;seq=%s;vocab=%s;method=%s;micro=%d;devices=%d",
		c.model, joinInts(c.seqs, 1), joinInts(c.vocabs, 1024), strings.Join(names, ","), c.micro, c.devices)
	g, err := sweep.ParseGrid(spec)
	if err != nil {
		return nil, fmt.Errorf("generated grid %q: %w", spec, err)
	}
	return &request{Path: "/api/v1/sweep?grid=" + url.QueryEscape(spec), Grid: g, Route: "sweep", Hot: -1}, nil
}

// scheduleRequest renders a single-cell spec as a /api/v1/schedule query,
// with the grid the server builds for it.
func (c cellSpec) scheduleRequest() (*request, error) {
	cfg, ok := costmodel.ConfigByName(c.model)
	if !ok {
		return nil, fmt.Errorf("unknown model %q", c.model)
	}
	cfg = cfg.WithSeq(c.seqs[0]).WithVocab(c.vocabs[0])
	cfg.NumMicro, cfg.Devices = c.micro, c.devices
	q := url.Values{}
	q.Set("config", c.model)
	q.Set("method", c.methods[0].String())
	q.Set("seq", strconv.Itoa(c.seqs[0]))
	q.Set("vocab", strconv.Itoa(c.vocabs[0]))
	q.Set("micro", strconv.Itoa(c.micro))
	q.Set("devices", strconv.Itoa(c.devices))
	g := &sweep.Grid{Name: "schedule", Configs: []costmodel.Config{cfg}, Methods: []sim.Method{c.methods[0]}}
	return &request{Path: "/api/v1/schedule?" + q.Encode(), Grid: g, Route: "schedule", Hot: -1}, nil
}

func joinInts(xs []int, unit int) string {
	s := make([]string, len(xs))
	for i, x := range xs {
		if unit > 1 && x%unit == 0 {
			s[i] = strconv.Itoa(x/unit) + "k"
		} else {
			s[i] = strconv.Itoa(x)
		}
	}
	return strings.Join(s, ",")
}

// gen draws workload inputs from one seeded stream. Cold inputs are
// distinct: every grid key it hands out is new, so a cold request cannot
// hit the server's result cache.
type gen struct {
	rng   *rand.Rand
	keys  map[string]bool
	decks map[string][]int
}

func newGen(seed uint64, stream uint64) *gen {
	return &gen{
		rng:   rand.New(rand.NewPCG(seed, stream)),
		keys:  map[string]bool{},
		decks: map[string][]int{},
	}
}

// deal draws from a shuffled deck of 0..n-1 that is refilled when empty,
// so every value appears equally often in each pass: the cost mix of a run
// varies little from seed to seed.
func (g *gen) deal(name string, n int) int {
	d := g.decks[name]
	if len(d) == 0 {
		d = g.rng.Perm(n)
	}
	g.decks[name] = d[1:]
	return d[0]
}

// dealSubset deals k distinct indices below n, ascending, from the named
// deck (a card that repeats one already dealt to this subset is dropped),
// so every index is chosen about equally often across draws.
func (g *gen) dealSubset(name string, n, k int) []int {
	picked := map[int]bool{}
	out := make([]int, 0, k)
	for len(out) < k {
		if i := g.deal(name, n); !picked[i] {
			picked[i] = true
			out = append(out, i)
		}
	}
	sort.Ints(out)
	return out
}

func pickInts(xs []int, idx []int) []int {
	out := make([]int, len(idx))
	for i, j := range idx {
		out[i] = xs[j]
	}
	return out
}

// spec draws a grid of exactly n cells (n ≤ 56) of model at the given
// device and microbatch counts. The cell count factors over the seq (1–2),
// vocab (1–4) and method (1–7) axes; the factorization and each axis's
// values are dealt from decks, so the mix of cell costs varies little from
// seed to seed.
func (g *gen) spec(n int, m zooModel, devices, micro int) cellSpec {
	type split struct{ s, v, m int }
	var splits []split
	for s := 1; s <= 2; s++ {
		for v := 1; v <= 4; v++ {
			if n%(s*v) == 0 && n/(s*v) <= len(sim.AllMethods) {
				splits = append(splits, split{s, v, n / (s * v)})
			}
		}
	}
	sp := splits[g.deal("split/"+strconv.Itoa(n), len(splits))]
	methods := make([]sim.Method, 0, sp.m)
	for _, i := range g.dealSubset("method", len(sim.AllMethods), sp.m) {
		methods = append(methods, sim.AllMethods[i])
	}
	return cellSpec{
		model:   m.name,
		seqs:    pickInts(costmodel.SeqLengths, g.dealSubset("seq", len(costmodel.SeqLengths), sp.s)),
		vocabs:  pickInts(costmodel.VocabSizes, g.dealSubset("vocab", len(costmodel.VocabSizes), sp.v)),
		methods: methods,
		micro:   micro,
		devices: devices,
	}
}

// fresh reports whether the request's grid key is new to this generator,
// and claims it.
func (g *gen) fresh(r *request) bool {
	key := r.Route + "|" + r.Grid.Key()
	if g.keys[key] {
		return false
	}
	g.keys[key] = true
	return true
}

// cellFingerprint identifies a cell's simulated inputs, the fields
// sweep.Grid.Key spells out per cell (the label alone omits micro and
// devices).
func cellFingerprint(c sweep.Cell) string {
	cf := c.Config
	return fmt.Sprintf("%s;%s;%s;L%d;a%d;h%d;s%d;b%d;m%d;v%d;d%d",
		c.Label, c.Method, cf.Name, cf.Layers, cf.Heads, cf.Hidden,
		cf.Seq, cf.MicroBatch, cf.NumMicro, cf.Vocab, cf.Devices)
}

// coldRequest draws a new distinct request built by mk.
func (g *gen) coldRequest(mk func() (*request, error)) (*request, error) {
	for try := 0; try < 1000; try++ {
		r, err := mk()
		if err != nil {
			return nil, err
		}
		if g.fresh(r) {
			return r, nil
		}
	}
	return nil, fmt.Errorf("generator: no fresh request after 1000 draws")
}

// serve-mixed traffic shape.
const (
	serveRate         = 100.0 // arrivals per second (open loop, Poisson)
	serveHotShare     = 0.6   // requests repeating a hot key
	serveColdSchedule = 0.1   // cold single-cell /api/v1/schedule requests
	zipfS             = 1.1   // hot-key popularity exponent
)

// serveHotCells fixes the hot set's shape (cells per key, 1 = a
// /api/v1/schedule cell) so hit cost is alike across seeds; the seed picks
// each key's model and parameters.
var serveHotCells = []int{1, 2, 1, 4, 1, 3, 2, 1, 4, 2, 1, 3}

var serveMicros = []int{64, 128, 192, 256}

// dealDevices deals one of the model's device counts.
func (g *gen) dealDevices(m zooModel) int {
	return m.devices[g.deal("devices/"+m.name, len(m.devices))]
}

// dealServe draws a serve-mixed spec of 1 to maxCells cells. The cell
// count, model and microbatch count come from one deck over all their
// combinations, so every seed sends each cost class equally often and the
// tail latency depends little on the seed.
func (g *gen) dealServe(deck string, maxCells int) cellSpec {
	k := g.deal(deck, maxCells*len(zoo)*len(serveMicros))
	n := 1 + k%maxCells
	k /= maxCells
	m := zoo[k%len(zoo)]
	micro := serveMicros[k/len(zoo)]
	return g.spec(n, m, g.dealDevices(m), micro)
}

// serveMix is the serve-mixed input: the hot set (first touched before the
// window) and the open-loop arrivals over it.
type serveMix struct {
	hot      []*request
	arrivals []*request
}

func genServe(seed uint64, window time.Duration) (*serveMix, error) {
	g := newGen(seed, 1)
	mix := &serveMix{}
	for i, n := range serveHotCells {
		r, err := g.coldRequest(func() (*request, error) {
			m := zoo[g.deal("hot-model", len(zoo))]
			s := g.spec(n, m, g.dealDevices(m), serveMicros[g.deal("hot-micro", len(serveMicros))])
			if n == 1 && i%2 == 0 {
				return s.scheduleRequest()
			}
			return s.sweepRequest()
		})
		if err != nil {
			return nil, err
		}
		r.Hot = i
		mix.hot = append(mix.hot, r)
	}
	zipf := make([]float64, len(mix.hot))
	total := 0.0
	for i := range zipf {
		total += 1 / math.Pow(float64(i+1), zipfS)
		zipf[i] = total
	}
	// Exactly rate × window arrivals, placed as a Poisson process
	// conditioned on that count: cumulative exponential gaps scaled so the
	// one after the last would land at the window's end. The fixed count
	// keeps ops_per_s from varying with the seed.
	n := int(serveRate * window.Seconds())
	due := make([]float64, n+1)
	for i := range due {
		due[i] = g.rng.ExpFloat64()
		if i > 0 {
			due[i] += due[i-1]
		}
	}
	for i := 0; i < n; i++ {
		var r *request
		switch u := g.rng.Float64(); {
		case u < serveHotShare:
			x := g.rng.Float64() * total
			i := sort.SearchFloat64s(zipf, x)
			cp := *mix.hot[min(i, len(zipf)-1)]
			r = &cp
		case u < serveHotShare+serveColdSchedule:
			var err error
			if r, err = g.coldRequest(func() (*request, error) { return g.dealServe("schedule", 1).scheduleRequest() }); err != nil {
				return nil, err
			}
		default:
			var err error
			if r, err = g.coldRequest(func() (*request, error) { return g.dealServe("sweep", 8).sweepRequest() }); err != nil {
				return nil, err
			}
		}
		r.Due = time.Duration(due[i] / due[n] * float64(window))
		mix.arrivals = append(mix.arrivals, r)
	}
	return mix, nil
}

// cluster-sweep traffic shape: a cycle of two cold grids and one hot
// repeat, so the median lands inside the cold population, whose latency
// is simulation time rather than loopback round trips and scheduler
// wake-ups, and so holds steady on a shared host.
var clusterCycle = []bool{false, false, true} // true = hot repeat

// clusterHotCells fixes the hot set's shape (cells per grid) so hot-path
// cost is alike across seeds; the seed picks each grid's parameters.
var clusterHotCells = []int{4, 5, 6, 6, 7, 8}

// Hot grids run clusterHotMicro microbatches. Cold grids cycle through
// clusterMicroSpan counts, clusterMicroStep apart from clusterMicroBase,
// per model and device count, so a cold cell recurs only after that many
// cold grids of its model and device count: thousands of other cells have
// passed through the workers' caches (256 entries each) by then, and it
// is cold again. The counts make a cold grid cost tens of milliseconds of
// simulation, which outweighs the dispatch path it also takes.
const (
	clusterHotMicro  = 48
	clusterMicroBase = 192
	clusterMicroStep = 8
	clusterMicroSpan = 24
)

// clusterGen produces the cluster-sweep op stream: shardable grids of 4–8
// cells, cold ones new, hot ones repeating a small fixed set.
type clusterGen struct {
	g     *gen
	hot   []*request
	i     int
	micro map[string]int
}

func newClusterGen(seed uint64) (*clusterGen, error) {
	cg := &clusterGen{g: newGen(seed, 2), micro: map[string]int{}}
	for i, n := range clusterHotCells {
		r, err := cg.grid(n, func(string) int { return clusterHotMicro })
		if err != nil {
			return nil, err
		}
		r.Hot = i
		cg.hot = append(cg.hot, r)
	}
	return cg, nil
}

// grid draws a new grid of n cells on a dealt model and device count.
func (cg *clusterGen) grid(n int, micro func(key string) int) (*request, error) {
	m := zoo[cg.g.deal("model", len(zoo))]
	devices := cg.g.dealDevices(m)
	key := m.name + "/" + strconv.Itoa(devices)
	return cg.g.coldRequest(func() (*request, error) {
		return cg.g.spec(n, m, devices, micro(key)).sweepRequest()
	})
}

func (cg *clusterGen) cold() (*request, error) {
	return cg.grid(4+cg.g.deal("cells", 5), func(key string) int {
		cg.micro[key]++
		return clusterMicroBase + clusterMicroStep*(cg.micro[key]%clusterMicroSpan)
	})
}

// next returns the next op's request.
func (cg *clusterGen) next() (*request, error) {
	hot := clusterCycle[cg.i%len(clusterCycle)]
	cg.i++
	if !hot {
		return cg.cold()
	}
	cp := *cg.hot[cg.g.deal("hot", len(cg.hot))]
	return &cp, nil
}

// mixSummary describes the generated traffic so a reader can check it
// matches the workload's definition.
type mixSummary struct {
	Requests      int            `json:"requests"`
	CellsPerReq   float64        `json:"cells_per_request"`
	CellsHist     map[int]int    `json:"cells_histogram"`
	RepeatPct     float64        `json:"repeat_pct"`
	Routes        map[string]int `json:"routes"`
	PHist         map[int]int    `json:"p_histogram"`
	DistinctCells int            `json:"distinct_cells"`
}

func summarize(reqs []*request) mixSummary {
	s := mixSummary{CellsHist: map[int]int{}, Routes: map[string]int{}, PHist: map[int]int{}}
	seen := map[string]bool{}
	hot, cells := 0, 0
	for _, r := range reqs {
		s.Requests++
		cs := r.Grid.Expand()
		cells += len(cs)
		s.CellsHist[len(cs)]++
		s.Routes[r.Route]++
		if r.Hot >= 0 {
			hot++
		}
		for _, c := range cs {
			s.PHist[c.Config.Devices]++
			seen[cellFingerprint(c)] = true
		}
	}
	if s.Requests > 0 {
		s.CellsPerReq = float64(cells) / float64(s.Requests)
		s.RepeatPct = 100 * float64(hot) / float64(s.Requests)
	}
	s.DistinctCells = len(seen)
	return s
}
