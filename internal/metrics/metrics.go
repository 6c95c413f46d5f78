// Package metrics is the one Prometheus text-exposition writer behind
// /metrics on both pixeld roles (worker and fleet coordinator):
// counters, gauges read through a callback, labelled counters and
// labelled histograms with caller-given buckets. Families render in
// registration order and labelled series in sorted label-value order,
// so scrapes are diffable.
package metrics

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds metric families. Register every family before the
// first Write (families are set up at construction, not synchronized);
// recording into them and writing are safe from any goroutine.
type Registry struct {
	families []family
}

type family struct {
	name, help, typ string
	samples         func(w io.Writer)
}

func (r *Registry) add(name, help, typ string, samples func(w io.Writer)) {
	r.families = append(r.families, family{name, help, typ, samples})
}

// Write renders every family in Prometheus text format. Prometheus
// semantics do not require cross-series atomicity, so each family is
// read on its own.
func (r *Registry) Write(w io.Writer) {
	for _, f := range r.families {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		f.samples(w)
	}
}

// Counter is a monotone count.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current count.
func (c *Counter) Load() int64 { return c.v.Load() }

// Counter registers and returns a counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := new(Counter)
	r.CounterFunc(name, help, c.Load)
	return c
}

// CounterFunc registers a counter whose value f reads at scrape time
// (a count kept by someone else, such as the engine's cost calls).
func (r *Registry) CounterFunc(name, help string, f func() int64) {
	r.scalar(name, help, "counter", f)
}

// GaugeFunc registers a gauge whose value f reads at scrape time.
func (r *Registry) GaugeFunc(name, help string, f func() int64) {
	r.scalar(name, help, "gauge", f)
}

func (r *Registry) scalar(name, help, typ string, f func() int64) {
	r.add(name, help, typ, func(w io.Writer) { fmt.Fprintf(w, "%s %d\n", name, f()) })
}

// vec is a family's label-value → series map. Series keys join the
// values with NUL, so sorting keys sorts tuples value by value.
type vec[V any] struct {
	labels []string
	mu     sync.Mutex
	series map[string]*series[V]
}

type series[V any] struct {
	pairs string // rendered `label="value",...`
	v     V
}

func newVec[V any](labels []string) vec[V] {
	return vec[V]{labels: labels, series: map[string]*series[V]{}}
}

// at returns the series for values, creating it on first use. The
// caller holds mu.
func (v *vec[V]) at(values []string) *series[V] {
	key := strings.Join(values, "\x00")
	s, ok := v.series[key]
	if !ok {
		pairs := make([]string, len(values))
		for i, val := range values {
			pairs[i] = fmt.Sprintf("%s=%q", v.labels[i], val)
		}
		s = &series[V]{pairs: strings.Join(pairs, ",")}
		v.series[key] = s
	}
	return s
}

// each visits every series in sorted label-value order under mu.
func (v *vec[V]) each(fn func(s *series[V])) {
	v.mu.Lock()
	defer v.mu.Unlock()
	keys := make([]string, 0, len(v.series))
	for k := range v.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fn(v.series[k])
	}
}

// CounterVec is a counter family partitioned by label values.
type CounterVec struct{ vec[int64] }

// CounterVec registers and returns a labelled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	c := &CounterVec{newVec[int64](labels)}
	r.add(name, help, "counter", func(w io.Writer) {
		c.each(func(s *series[int64]) { fmt.Fprintf(w, "%s{%s} %d\n", name, s.pairs, s.v) })
	})
	return c
}

// Inc adds one to the series named by values (one per label, in
// registration order).
func (c *CounterVec) Inc(values ...string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.at(values).v++
}

// HistogramVec is a histogram family partitioned by label values.
type HistogramVec struct {
	vec[histogram]
	buckets []float64
}

type histogram struct {
	counts []int64 // one per bucket, cumulative at render time only
	sum    float64
	count  int64
}

// HistogramVec registers and returns a labelled histogram family with
// the given upper bucket bounds (ascending; +Inf is implicit).
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	h := &HistogramVec{vec: newVec[histogram](labels), buckets: buckets}
	r.add(name, help, "histogram", func(w io.Writer) {
		h.each(func(s *series[histogram]) {
			var cum int64
			for i, b := range h.buckets {
				cum += s.v.counts[i]
				fmt.Fprintf(w, "%s_bucket{%s,le=%q} %d\n", name, s.pairs, strconv.FormatFloat(b, 'g', -1, 64), cum)
			}
			fmt.Fprintf(w, "%s_bucket{%s,le=\"+Inf\"} %d\n", name, s.pairs, s.v.count)
			fmt.Fprintf(w, "%s_sum{%s} %g\n", name, s.pairs, s.v.sum)
			fmt.Fprintf(w, "%s_count{%s} %d\n", name, s.pairs, s.v.count)
		})
	})
	return h
}

// Observe records one value into the series named by values.
func (h *HistogramVec) Observe(v float64, values ...string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := &h.at(values).v
	if s.counts == nil {
		s.counts = make([]int64, len(h.buckets))
	}
	for i, b := range h.buckets {
		if v <= b {
			s.counts[i]++
			break
		}
	}
	s.sum += v
	s.count++
}
