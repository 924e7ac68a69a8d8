package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (the program under test carries no spans of its own). Spans
// of one request — an SCF repeat or a served job — share Req.
type span struct {
	ID     int
	Parent int // 0: a root
	Name   string
	Req    string
	Lane   int // the benchmark goroutine that made the call
	Start  time.Duration
	End    time.Duration
	Args   map[string]any
}

// recorder keeps spans in memory until the run ends. A nil recorder is
// tracing switched off: begin and end do nothing.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span // guarded by mu
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) begin(name, req string, parent, lane int) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Req: req, Lane: lane, Start: now, End: -1})
	return id
}

func (r *recorder) end(id int, args map[string]any) {
	if r == nil {
		return
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].End = now
	r.spans[id-1].Args = args
}

// record adds a span that is already over, from timestamps the caller
// took anyway; it is how a gap that cannot be bracketed becomes a span.
func (r *recorder) record(name, req string, parent, lane int, start, end time.Time, args map[string]any) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Req: req, Lane: lane,
		Start: start.Sub(r.epoch), End: end.Sub(r.epoch), Args: args})
	return id
}

// snapshot returns the finished spans.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval that its child spans cover.
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := time.Duration(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// chromeEvent is one complete ("X") event of the Chrome trace format;
// span identity travels in args so a reader can rebuild the tree.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

func writeChromeTrace(path string, spans []span) error {
	tr := chromeTrace{DisplayTimeUnit: "ms", TraceEvents: make([]chromeEvent, 0, len(spans))}
	self := selfTimes(spans)
	for _, s := range spans {
		args := map[string]any{"id": s.ID, "parent": s.Parent, "req": s.Req,
			"self_us": float64(self[s.ID].Nanoseconds()) / 1e3}
		for k, v := range s.Args {
			args[k] = v
		}
		tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
			Name: s.Name, Cat: layerOf(s.Name), Ph: "X",
			Ts:  float64(s.Start.Nanoseconds()) / 1e3,
			Dur: float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: s.Lane, Args: args,
		})
	}
	data, err := json.Marshal(tr)
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}

// layerOf is the module a span or metric name belongs to: the part
// before the first dot.
func layerOf(name string) string {
	for i := 0; i < len(name); i++ {
		if name[i] == '.' {
			return name[:i]
		}
	}
	return name
}
