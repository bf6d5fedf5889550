package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"time"

	"vocabpipe/internal/trace"
)

// span is one timed call the benchmark made into a layer. Spans of one
// operation share Op; Parent is the enclosing span's ID (0 for the op's
// root).
type span struct {
	Name       string
	Op, ID     int64
	Parent     int64
	Start, End time.Time
}

// recorder keeps the traced run's spans in memory until the run ends. A nil
// recorder (the untraced run) records nothing and costs one nil check.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	next  int64
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// spanHandle is an open span; end closes it. Methods on a nil handle are
// no-ops, so call sites need no tracing branches.
type spanHandle struct {
	r *recorder
	s span
}

func (r *recorder) begin(op, parent int64, name string) *spanHandle {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	r.next++
	id := r.next
	r.mu.Unlock()
	return &spanHandle{r: r, s: span{Name: name, Op: op, ID: id, Parent: parent, Start: time.Now()}}
}

func (h *spanHandle) id() int64 {
	if h == nil {
		return 0
	}
	return h.s.ID
}

func (h *spanHandle) end() {
	if h == nil {
		return
	}
	h.s.End = time.Now()
	h.r.add(h.s)
}

// add records a span timed elsewhere (the server-side handler wrapper)
// and returns its ID.
func (r *recorder) add(s span) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.ID == 0 {
		r.next++
		s.ID = r.next
	}
	r.spans = append(r.spans, s)
	return s.ID
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns each span name's total self time: its duration minus
// the part its child spans cover (children are clipped to the parent and
// their overlaps merged, so concurrent children are not double-counted).
func selfTimes(spans []span) map[string]time.Duration {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start.Before(kids[j].Start) })
		covered := time.Duration(0)
		cur := s.Start
		for _, k := range kids {
			st, en := maxTime(k.Start, cur), minTime(k.End, s.End)
			if en.After(st) {
				covered += en.Sub(st)
				cur = en
			}
		}
		out[s.Name] += s.End.Sub(s.Start) - covered
	}
	return out
}

func maxTime(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

func minTime(a, b time.Time) time.Time {
	if a.Before(b) {
		return a
	}
	return b
}

// writeChrome writes the spans as Chrome trace_event complete events, the
// same schema the server's /api/v1/debug/traces/{id} export uses, so both
// open in one viewer. Each op gets its own row (Tid); timestamps are
// microseconds since the recorder started.
func (r *recorder) writeChrome(w io.Writer) error {
	spans := r.snapshot()
	events := make([]trace.Event, 0, len(spans))
	for _, s := range spans {
		events = append(events, trace.Event{
			Name: s.Name,
			Cat:  "perfbench",
			Ph:   "X",
			Ts:   float64(s.Start.Sub(r.epoch).Nanoseconds()) / 1e3,
			Dur:  float64(s.End.Sub(s.Start).Nanoseconds()) / 1e3,
			Tid:  int(s.Op),
			Args: map[string]string{
				"op":        strconv.FormatInt(s.Op, 10),
				"span_id":   strconv.FormatInt(s.ID, 10),
				"parent_id": strconv.FormatInt(s.Parent, 10),
			},
		})
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].Ts < events[j].Ts })
	if err := json.NewEncoder(w).Encode(events); err != nil {
		return fmt.Errorf("writing chrome trace: %w", err)
	}
	return nil
}
