package main

import (
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/httpapi"
)

// span is one timed interval recorded by the benchmark's own code:
// client calls (layer apiclient), handler runs inside the access log
// (httpapi), durable appends (store), and the restart steps (store,
// snap, bench). Parent links make the tree client -> handler -> store.
type span struct {
	ID     string `json:"id,omitempty"`
	Parent string `json:"parent,omitempty"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	// StartUs is relative to the tracer's start; DurUs is the length.
	StartUs float64 `json:"start_us"`
	DurUs   float64 `json:"dur_us"`

	start time.Time
	dur   time.Duration
}

// tracer keeps spans in memory; write dumps them when the run ends. A
// nil tracer records nothing.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) add(s span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// begin opens a span and returns the function that closes it.
func (t *tracer) begin(parent, layer, name string) func() {
	if t == nil {
		return func() {}
	}
	start := time.Now()
	return func() {
		t.add(span{ID: parent + "/" + name, Parent: parent, Layer: layer, Name: name, start: start, dur: time.Since(start)})
	}
}

func handlerSpanID(reqID string) string { return reqID + "/handler" }

// handler times the API handler (mux, lock wait, handler body) inside
// the access log, as the child of the client span named by the
// request ID the client sent.
func (t *tracer) handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		next.ServeHTTP(w, r)
		dur := time.Since(start)
		if id := httpapi.RequestID(r); strings.HasPrefix(id, "bench-") {
			t.add(span{ID: handlerSpanID(id), Parent: id, Layer: "httpapi",
				Name: r.Method + " " + r.URL.Path, start: start, dur: dur})
		}
	})
}

// finalize fills the exported times and returns the spans in start
// order.
func (t *tracer) finalize() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.spans {
		s := &t.spans[i]
		s.StartUs = float64(s.start.Sub(t.t0).Nanoseconds()) / 1e3
		s.DurUs = float64(s.dur.Nanoseconds()) / 1e3
	}
	sort.SliceStable(t.spans, func(i, j int) bool { return t.spans[i].start.Before(t.spans[j].start) })
	return t.spans
}

func (t *tracer) write(path string, meta map[string]any) error {
	doc := map[string]any{"meta": meta, "spans": t.finalize()}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// layerTimes is one layer's share of the traced pass.
type layerTimes struct {
	spans int
	total time.Duration
	self  time.Duration
}

// selfTimes attributes time to layers: a span's self time is its
// length minus the lengths of its child spans.
func (t *tracer) selfTimes() map[string]*layerTimes {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[string]time.Duration{}
	for _, s := range t.spans {
		if s.Parent != "" {
			children[s.Parent] += s.dur
		}
	}
	out := map[string]*layerTimes{}
	for _, s := range t.spans {
		lt := out[s.Layer]
		if lt == nil {
			lt = &layerTimes{}
			out[s.Layer] = lt
		}
		self := s.dur
		if s.ID != "" {
			self -= children[s.ID]
		}
		lt.spans++
		lt.total += s.dur
		lt.self += self
	}
	return out
}

// byName returns the durations (ms) of the spans of one layer whose
// name has the given prefix.
func (t *tracer) byName(layer, prefix string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Layer == layer && strings.HasPrefix(s.Name, prefix) {
			out = append(out, ms(s.dur))
		}
	}
	return out
}

// requestSplit pairs every traced request with its handler and store
// spans: round trip, handler time, network+client time (round trip
// minus handler) and handler self time (handler minus store appends).
func (t *tracer) requestSplit() (rtt, handler, net, self []float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	hs := map[string]time.Duration{}
	storeIn := map[string]time.Duration{}
	for _, s := range t.spans {
		switch s.Layer {
		case "httpapi":
			hs[s.Parent] = s.dur
		case "store":
			if s.Name == "store.append" && s.Parent != "" {
				storeIn[s.Parent] += s.dur
			}
		}
	}
	for _, s := range t.spans {
		if s.Layer != "apiclient" {
			continue
		}
		rtt = append(rtt, ms(s.dur))
		h, ok := hs[s.ID]
		if !ok {
			continue
		}
		handler = append(handler, ms(h))
		net = append(net, ms(s.dur-h))
		self = append(self, ms(h-storeIn[handlerSpanID(s.ID)]))
	}
	return rtt, handler, net, self
}
