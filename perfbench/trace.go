package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request
// share Req; Parent is the span that caused this one (0 for a root).
// Times are nanoseconds since the tracer's epoch.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory while recording is on; they are written
// out once the run ends. Only the benchmark's own wrappers around the
// program's public seams record spans.
type tracer struct {
	epoch time.Time
	on    atomic.Bool
	ids   atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// recording reports whether spans are being kept; a nil tracer never
// records.
func (t *tracer) recording() bool { return t != nil && t.on.Load() }

// newID reserves a span id, so a span can parent others before it ends.
func (t *tracer) newID() int64 { return t.ids.Add(1) }

// ns converts a wall time to the tracer's time base.
func (t *tracer) ns(at time.Time) int64 { return int64(at.Sub(t.epoch)) }

// put stores a finished span; callers decide whether to record.
func (t *tracer) put(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// add records [start, end) as a new span when recording.
func (t *tracer) add(name string, req, parent int64, start, end time.Time) {
	if t.recording() {
		t.put(span{ID: t.newID(), Parent: parent, Req: req, Name: name, Start: t.ns(start), End: t.ns(end)})
	}
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores spans as JSON lines at path, creating its directory.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns every span's self time: its duration minus the part
// of its interval that the union of its children covers. Children may
// overlap each other (parallel work) and are clipped to the parent.
func selfTimes(spans []span) map[int64]int64 {
	kids := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int64]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s.Start, s.End, kids[s.ID])
	}
	return out
}

// covered is the length of [lo, hi) covered by the union of the spans.
func covered(lo, hi int64, spans []span) int64 {
	iv := make([][2]int64, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if a < b {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	end = lo
	for _, v := range iv {
		if v[1] <= end {
			continue
		}
		if v[0] > end {
			end = v[0]
		}
		total += v[1] - end
		end = v[1]
	}
	return total
}

// reqHeader and parentHeader carry the benchmark's request id and the
// client span a request belongs to into the server-side middleware;
// the program ignores both. They are sent only while tracing.
const (
	reqHeader    = "X-Perfbench-Req"
	parentHeader = "X-Perfbench-Parent"
)

type spanKey struct{}

// spanFrom returns the id of the middleware span a request context
// belongs to (0 outside a traced request).
func spanFrom(ctx context.Context) int64 {
	id, _ := ctx.Value(spanKey{}).(int64)
	return id
}

// traceHandler wraps h so each request while recording becomes a span
// named name: its request id comes from reqHeader and its span id rides
// the request context, so evaluator wrappers can parent their spans on
// it, and it parents on the client span named by parentHeader (0 when
// absent, as on a coordinator-to-worker hop). inspect, when non-nil,
// sees each traced request with its span before h runs and may read
// the body if it restores it.
func traceHandler(t *tracer, name string, h http.Handler, inspect func(id int64, r *http.Request)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.recording() {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		id := t.newID()
		req, _ := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)
		parent, _ := strconv.ParseInt(r.Header.Get(parentHeader), 10, 64)
		if inspect != nil {
			inspect(id, r)
		}
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), spanKey{}, id)))
		t.put(span{ID: id, Parent: parent, Req: req, Name: name, Start: t.ns(start), End: t.ns(time.Now())})
	})
}

// tracePath is where a traced run leaves its spans, inside the
// checkout's ignored build directory.
func tracePath(workload string, seed int64) string {
	return filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
}

// requestLayers derives the request-path metrics every workload shares
// from a span tree of client -> http -> server.handler -> evaluator
// spans: the mean per request of the generator's lateness (client self
// time), transport (http self time) and the serving layer's own time
// (handler self time), plus what no layer accounts for.
func requestLayers(spans []span) map[string]float64 {
	self := selfTimes(spans)
	var late, transport, srvSelf, e2e, rest []float64
	byParent := map[int64][]span{}
	for _, s := range spans {
		byParent[s.Parent] = append(byParent[s.Parent], s)
	}
	for _, c := range spans {
		if c.Name != "client" {
			continue
		}
		late = append(late, float64(self[c.ID])/1e6)
		for _, h := range byParent[c.ID] {
			transport = append(transport, float64(self[h.ID])/1e6)
			for _, s := range byParent[h.ID] {
				srvSelf = append(srvSelf, float64(self[s.ID])/1e6)
			}
		}
		e2e = append(e2e, float64(c.dur())/1e6)
		rest = append(rest, float64(c.dur()-subtree(c, byParent, self))/1e6)
	}
	m := map[string]float64{
		"loadgen.late_ms":       mean(late),
		"server.transport_ms":   mean(transport),
		"server.self_ms":        mean(srvSelf),
		"trace.unattributed_ms": mean(rest),
	}
	if e := mean(e2e); e > 0 {
		m["trace.unattributed_pct"] = 100 * mean(rest) / e
	}
	return m
}

// subtree sums the self times of s and all its descendants.
func subtree(s span, byParent map[int64][]span, self map[int64]int64) int64 {
	t := self[s.ID]
	for _, c := range byParent[s.ID] {
		t += subtree(c, byParent, self)
	}
	return t
}
