package metrics

import (
	"strings"
	"testing"
)

// TestWriteExposition pins the rendered text: HELP/TYPE headers in
// registration order, callback reads at scrape time, labelled series
// sorted value by value (a shorter value sorts before its extensions),
// and cumulative histogram buckets with the implicit +Inf.
func TestWriteExposition(t *testing.T) {
	var r Registry
	c := r.Counter("x_total", "Things.")
	inFlight := int64(3)
	r.GaugeFunc("x_in_flight", "Now.", func() int64 { return inFlight })
	reqs := r.CounterVec("x_requests_total", "Requests.", "route", "code")
	lat := r.HistogramVec("x_seconds", "Latency.", []float64{0.1, 1}, "route")

	c.Add(2)
	reqs.Inc("/ab", "200")
	reqs.Inc("/a", "500")
	reqs.Inc("/a", "200")
	reqs.Inc("/a", "200")
	lat.Observe(0.05, "/a")
	lat.Observe(0.5, "/a")
	lat.Observe(5, "/a")

	var b strings.Builder
	r.Write(&b)
	want := `# HELP x_total Things.
# TYPE x_total counter
x_total 2
# HELP x_in_flight Now.
# TYPE x_in_flight gauge
x_in_flight 3
# HELP x_requests_total Requests.
# TYPE x_requests_total counter
x_requests_total{route="/a",code="200"} 2
x_requests_total{route="/a",code="500"} 1
x_requests_total{route="/ab",code="200"} 1
# HELP x_seconds Latency.
# TYPE x_seconds histogram
x_seconds_bucket{route="/a",le="0.1"} 1
x_seconds_bucket{route="/a",le="1"} 2
x_seconds_bucket{route="/a",le="+Inf"} 3
x_seconds_sum{route="/a"} 5.55
x_seconds_count{route="/a"} 3
`
	if got := b.String(); got != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", got, want)
	}
}
