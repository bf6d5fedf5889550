package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"vocabpipe/internal/server"
	"vocabpipe/internal/trace"
)

// vpserveDefaults are the options cmd/vpserve passes to server.New when run
// with no flags.
func vpserveDefaults() server.Options {
	return server.Options{
		CacheSize:     256,
		MaxCells:      4096,
		JobWorkers:    2,
		JobCapacity:   64,
		SlowRequest:   time.Second,
		TraceCapacity: 256,
	}
}

// handled is one request as the server-side wrapper saw it.
type handled struct {
	TraceID      string // the server's X-Trace-Id (a worker adopts the coordinator's)
	Start        time.Time
	Dur          time.Duration
	InBytes, Out int64
	BenchOp      int64 // the benchmark op that sent it, 0 for server-to-server calls
}

// handlerLog wraps server.Handler() to time every request in-process, on
// the same clock as the client, and to count wire bytes.
type handlerLog struct {
	mu   sync.Mutex
	recs []handled
}

// opHeader carries the benchmark's op ID so the wrapper can attach server
// time to the op that caused it. The program ignores it.
const opHeader = "X-Perfbench-Op"

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

func (l *handlerLog) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cw := &countingWriter{ResponseWriter: w}
		start := time.Now()
		h.ServeHTTP(cw, r)
		rec := handled{
			TraceID: w.Header().Get("X-Trace-Id"),
			Start:   start,
			Dur:     time.Since(start),
			InBytes: max(r.ContentLength, 0),
			Out:     cw.n,
		}
		rec.BenchOp, _ = strconv.ParseInt(r.Header.Get(opHeader), 10, 64)
		l.mu.Lock()
		l.recs = append(l.recs, rec)
		l.mu.Unlock()
	})
}

// take returns and clears the records logged so far.
func (l *handlerLog) take() []handled {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.recs
	l.recs = nil
	return out
}

// node is one in-process vpserve on a loopback listener.
type node struct {
	srv  *server.Server
	url  string
	hs   *http.Server
	log  *handlerLog
	done chan struct{}
}

func startNode(opt server.Options) (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	n := &node{srv: server.New(opt), url: "http://" + ln.Addr().String(), log: &handlerLog{}, done: make(chan struct{})}
	n.hs = &http.Server{Handler: n.log.wrap(n.srv.Handler())}
	go func() {
		defer close(n.done)
		n.hs.Serve(ln)
	}()
	return n, nil
}

// close drains the listener, stops the server's background work and waits
// for the serve goroutine to exit.
func (n *node) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	n.hs.Shutdown(ctx)
	<-n.done
	n.srv.Close(ctx)
}

// newClient returns an HTTP client holding at most nproc connections per
// host: the benchmark never opens more connections than the machine has
// cores.
func newClient() *http.Client {
	tr := &http.Transport{
		MaxConnsPerHost:     runtime.NumCPU(),
		MaxIdleConnsPerHost: runtime.NumCPU(),
		IdleConnTimeout:     time.Minute,
	}
	return &http.Client{Transport: tr, Timeout: 60 * time.Second}
}

// response is one completed client request.
type response struct {
	status  int
	body    []byte
	cache   string // X-Cache
	traceID string // X-Trace-Id
}

// get fetches url; a nonzero op is sent in opHeader.
func get(ctx context.Context, c *http.Client, url string, op int64) (*response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	if op != 0 {
		req.Header.Set(opHeader, strconv.FormatInt(op, 10))
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("reading %s: %w", url, err)
	}
	return &response{
		status:  resp.StatusCode,
		body:    body,
		cache:   resp.Header.Get("X-Cache"),
		traceID: resp.Header.Get("X-Trace-Id"),
	}, nil
}

// scrape reads the server's Prometheus text exposition and sums every
// sample of each metric family over its labels.
func scrape(ctx context.Context, c *http.Client, base string) (map[string]float64, error) {
	r, err := get(ctx, c, base+"/metrics", 0)
	if err != nil {
		return nil, err
	}
	if r.status != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", r.status)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(r.body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		name := line[:i]
		if j := strings.IndexByte(name, '{'); j >= 0 {
			name = name[:j]
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics line %q: %w", line, err)
		}
		out[name] += v
	}
	return out, sc.Err()
}

// fetchTraces reads up to limit of the server's most recent traces through
// GET /api/v1/debug/traces and returns each one's Chrome export (local half
// only).
func fetchTraces(ctx context.Context, c *http.Client, base string, limit int) ([][]trace.Event, error) {
	r, err := get(ctx, c, fmt.Sprintf("%s/api/v1/debug/traces?limit=%d", base, limit), 0)
	if err != nil {
		return nil, err
	}
	if r.status != http.StatusOK {
		return nil, fmt.Errorf("GET /api/v1/debug/traces: status %d", r.status)
	}
	var list []struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(r.body, &list); err != nil {
		return nil, fmt.Errorf("decoding trace list: %w", err)
	}
	out := make([][]trace.Event, 0, len(list))
	for _, t := range list {
		r, err := get(ctx, c, base+"/api/v1/debug/traces/"+t.ID+"?local=1", 0)
		if err != nil {
			return nil, err
		}
		if r.status != http.StatusOK {
			continue // evicted from the ring between list and fetch
		}
		events, err := trace.ReadChromeTrace(bytes.NewReader(r.body))
		if err != nil {
			return nil, err
		}
		out = append(out, events)
	}
	return out, nil
}

// spanMS returns the durations (ms) of every event named name whose args
// match the given key/value filter (empty key matches all).
func spanMS(traces [][]trace.Event, name, key, value string) []float64 {
	var out []float64
	for _, t := range traces {
		for _, e := range t {
			if e.Name == name && (key == "" || e.Args[key] == value) {
				out = append(out, e.Dur/1e3)
			}
		}
	}
	return out
}
