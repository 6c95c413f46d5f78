package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"pixel"
	"pixel/api"
	"pixel/internal/server"
)

var update = flag.Bool("update", false, "rewrite mc_golden.txt from in-process reference runs")

func TestPercentileRule(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // unsorted input
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 100 {
		t.Fatal("percentile sorted its input in place")
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples should be NaN")
	}

	// The highest percentile with at least ten samples beyond it, and
	// that count.
	for _, c := range []struct {
		n     int
		q     float64
		count int
		ok    bool
	}{
		{10000, 0.999, 10, true},
		{1000, 0.99, 10, true},
		{999, 0.95, 49, true},
		{100, 0.9, 10, true},
		{99, 0.75, 24, true},
		{21, 0.5, 10, true},
		{20, 0.5, 10, true},
		{19, 0, 0, false},
	} {
		q, count, ok := highestSupported(c.n)
		if q != c.q || count != c.count || ok != c.ok {
			t.Errorf("highestSupported(%d) = p%g with %d beyond (ok=%t), want p%g with %d (ok=%t)",
				c.n, 100*q, count, ok, 100*c.q, c.count, c.ok)
		}
	}
}

func TestOpenScheduleIsSeededGrid(t *testing.T) {
	const n = 50
	window := time.Second
	a := openSchedule(rand.New(rand.NewSource(7)), n, window, 10)
	b := openSchedule(rand.New(rand.NewSource(7)), n, window, 10)
	slot := window / n
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different schedule at %d: %v vs %v", i, a[i], b[i])
		}
		if a[i].idx != 10+i {
			t.Errorf("arrival %d has index %d, want %d", i, a[i].idx, 10+i)
		}
		if lo := time.Duration(i) * slot; a[i].due < lo || a[i].due >= lo+slot {
			t.Errorf("arrival %d due %v outside its slot [%v, %v)", i, a[i].due, lo, lo+slot)
		}
	}
}

// TestOpenLoopLateness: a request due while its connection is busy is
// sent late, and its latency runs from when it was due, so the stall
// is charged to it; a request on another lane does not wait.
func TestOpenLoopLateness(t *testing.T) {
	const hold = 40 * time.Millisecond
	sched := []arrival{{due: 0, idx: 0}, {due: 10 * time.Millisecond, idx: 1}, {due: 10 * time.Millisecond, idx: 2}}
	lane := func(idx int) int { return idx / 2 } // 0 and 1 share a lane, 2 has its own
	out := runOpen(context.Background(), sched, 2, lane, func(ctx context.Context, idx int) (time.Time, time.Time, error) {
		sent := time.Now()
		time.Sleep(hold)
		return sent, time.Now(), nil
	})
	if l := out[0].late(); l > 5*time.Millisecond {
		t.Errorf("first request sent %v late on an idle lane", l)
	}
	// Request 1 waits for request 0 to free the lane: sent ~30ms late.
	if l := out[1].late(); l < hold-10*time.Millisecond-2*time.Millisecond {
		t.Errorf("queued request late by %v, want about %v", l, hold-10*time.Millisecond)
	}
	if got, min := out[1].latency(), out[1].late()+hold; got < min {
		t.Errorf("latency %v does not include the lateness (want >= %v)", got, min)
	}
	if l := out[2].late(); l > 5*time.Millisecond {
		t.Errorf("request on its own lane sent %v late", l)
	}
	for i, s := range out {
		if s.idx != i || s.err != nil {
			t.Errorf("sample %d = %+v", i, s)
		}
	}
}

func TestOpenLoopCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sched := []arrival{{due: time.Hour, idx: 0}}
	out := runOpen(ctx, sched, 1, func(int) int { return 0 }, func(context.Context, int) (time.Time, time.Time, error) {
		t.Error("sent after cancellation")
		return time.Now(), time.Now(), nil
	})
	if out[0].err == nil {
		t.Error("undispatched arrival reported without an error")
	}
}

// TestSelfTimeOverlappingChildren: self time is the span minus the
// union of its children, clipped to the span; overlapping children
// count once and grandchildren belong to their own parent.
func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 40},
		{ID: 3, Parent: 1, Start: 30, End: 60},  // overlaps 2
		{ID: 4, Parent: 1, Start: 90, End: 120}, // runs past the parent
		{ID: 5, Parent: 2, Start: 15, End: 35},
		{ID: 6, Parent: 3, Start: 0, End: 200}, // covers all of 3
	}
	self := selfTimes(spans)
	want := map[int64]int64{1: 40, 2: 10, 3: 0, 4: 30, 5: 20, 6: 200}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
	if c := covered(0, 10, nil); c != 0 {
		t.Errorf("covered with no spans = %d", c)
	}
}

// TestRequestLayersAccountForLatency: on a client -> http -> handler ->
// eval tree the layers' self times add up to the request's latency.
func TestRequestLayersAccountForLatency(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "client", Start: 0, End: 10e6},
		{ID: 2, Parent: 1, Name: "http", Start: 2e6, End: 10e6},
		{ID: 3, Parent: 2, Name: "server.handler", Start: 3e6, End: 9e6},
		{ID: 4, Parent: 3, Name: "server.eval", Start: 5e6, End: 8e6},
	}
	m := requestLayers(spans)
	for k, want := range map[string]float64{
		"loadgen.late_ms": 2, "server.transport_ms": 2, "server.self_ms": 3,
		"trace.unattributed_ms": 0, "trace.unattributed_pct": 0,
	} {
		if math.Abs(m[k]-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", k, m[k], want)
		}
	}
}

func TestImageKeyRoundTrip(t *testing.T) {
	w := &inferWL{seed: 3, shape: pixel.InferShape{H: 20, W: 20, C: 1, MaxValue: 15}}
	for _, c := range []imageKey{{0, 0}, {1, 63}, {123456, 17}, {-1, 0}} {
		img := w.image(c.req, c.k)
		if got := keyOf(img); got != c {
			t.Errorf("keyOf(image(%d, %d)) = %+v", c.req, c.k, got)
		}
		for _, v := range img {
			if v < 0 || v > 15 {
				t.Fatalf("image value %d outside the activation range", v)
			}
		}
	}
	if bytes.Equal(w.body(0), w.body(1)) {
		t.Error("two requests carry the same images")
	}
}

// TestDigestsCatchCorruption: a served robustness body digests equal to
// the in-process reference encoded as pixeld encodes it, and a body
// with one byte changed does not.
func TestDigestsCatchCorruption(t *testing.T) {
	srv := server.New(server.Config{
		Engine: pixel.NewEngine(pixel.EngineOptions{}),
		Robust: server.RobustnessFunc(pixel.RobustnessContext),
		Logger: quietLogger(),
	})
	defer srv.Close()
	req := api.RobustnessRequest{Network: "tiny", Design: "OO", Sigmas: []float64{1, 3}, Trials: 3, Seed: 5}
	body, _ := json.Marshal(req)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/robustness", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	served := rec.Body.Bytes()
	rep, err := pixel.RobustnessContext(context.Background(), pixel.RobustnessSpec{
		Network: req.Network, Design: pixel.OO, Sigmas: req.Sigmas, Trials: req.Trials, Seed: req.Seed, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ref := digestOf(encodeLikeServer(rep))
	if digestOf(served) != ref {
		t.Fatal("served body differs from the in-process reference")
	}
	corrupt := append([]byte(nil), served...)
	i := bytes.IndexAny(corrupt, "123456789")
	corrupt[i] = '0'
	if digestOf(corrupt) == ref {
		t.Fatal("a corrupted body digests equal to the reference")
	}

	outs := [][]int64{{1, 2, 3}, {4, 5, 6}}
	d := outputsDigest(outs, []int{2, 2})
	outs[1][0] = 7
	if outputsDigest(outs, []int{2, 2}) == d {
		t.Error("a changed inference output was not caught")
	}
	if outputsDigest(outs[:1], []int{2}) == outputsDigest(outs, []int{2, 2}) {
		t.Error("a missing image was not caught")
	}

	p, err := parseDigest(ref.String())
	if err != nil || p != ref {
		t.Errorf("parseDigest(String()) = %v, %v", p, err)
	}
	if _, err := parseDigest("xyz"); err == nil {
		t.Error("parseDigest accepted a malformed digest")
	}
}

// TestMCGolden checks the recorded default-seed digests against fresh
// in-process runs of their first requests. With -update it rewrites
// the file: run it on the commit whose answers are the reference.
func TestMCGolden(t *testing.T) {
	w := &mcWL{seed: goldenSeed, seeds: map[int]int64{}}
	ctx := context.Background()
	if *update {
		const n = 400
		ds := make([]digest, n)
		if err := forEach(ctx, n, func(i int) error {
			d, err := w.reference(ctx, i)
			ds[i] = d
			return err
		}); err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, d := range ds {
			b.WriteString(d.String() + "\n")
		}
		if err := os.WriteFile("mc_golden.txt", []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	golden, err := goldenDigests()
	if err != nil {
		t.Fatal(err)
	}
	if len(golden) < 300 {
		t.Fatalf("mc_golden.txt holds %d digests, want at least a run's worth", len(golden))
	}
	for _, idx := range []int{0, 1} {
		d, err := w.reference(ctx, idx)
		if err != nil {
			t.Fatal(err)
		}
		if d != golden[idx] {
			t.Errorf("request %d: reference digest %v, recorded %v", idx, d, golden[idx])
		}
	}
}

// TestMCRequestsHaveFixedWork: request seeds are distinct, their
// predicted work lies within the band, and one request per block is
// protected.
func TestMCRequestsHaveFixedWork(t *testing.T) {
	w := &mcWL{seed: 9, seeds: map[int]int64{}}
	seen := map[int64]bool{}
	protected := 0
	for idx := 0; idx < 2*protectEvery; idx++ {
		req := w.request(idx)
		if seen[req.Seed] {
			t.Errorf("request %d reuses seed %d", idx, req.Seed)
		}
		seen[req.Seed] = true
		if dev := math.Abs(w.predictedWork(req.Seed)/w.target - 1); dev > workBand {
			t.Errorf("request %d predicted work off target by %.0f%%", idx, 100*dev)
		}
		if req.Protection != nil {
			protected++
		}
	}
	if protected != 2 {
		t.Errorf("%d protected requests in two blocks, want 2", protected)
	}
}

// TestShardAttribution: a shard sub-grid belongs to the request it was
// cut from and not to another one.
func TestShardAttribution(t *testing.T) {
	w := &sweepWL{seed: 4, nets: pixel.Networks(), designs: []string{"EE", "OE", "OO"}}
	var sweepIdx, evalIdx = -1, -1
	for idx := 0; sweepIdx < 0 || evalIdx < 0; idx++ {
		if route, _, _ := w.request(idx); route == "/v1/sweep" {
			sweepIdx = idx
		} else {
			evalIdx = idx
		}
	}
	_, body, _ := w.request(sweepIdx)
	var full api.SweepRequest
	if err := json.Unmarshal(body, &full); err != nil {
		t.Fatal(err)
	}
	sub := full
	sub.Designs, sub.Lanes = full.Designs[:1], full.Lanes[1:]
	shard, _ := json.Marshal(sub)
	if !w.partOf("/v1/sweep "+string(shard), sweepIdx) {
		t.Error("a sub-grid of the request is not attributed to it")
	}
	sub.Bits = []int{maxBits + 1}
	shard, _ = json.Marshal(sub)
	if w.partOf("/v1/sweep "+string(shard), sweepIdx) {
		t.Error("a grid outside the request is attributed to it")
	}
	_, ebody, _ := w.request(evalIdx)
	if !w.partOf("/v1/evaluate "+string(ebody), evalIdx) || w.partOf("/v1/evaluate "+string(ebody), sweepIdx) {
		t.Error("evaluate attribution is wrong")
	}
}

// TestMetricsMatchBenchmarkJSON: the result line names exactly the
// metrics, with the units, that BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
		Workloads []struct{ Name string }
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	same := func(what string, decl []struct{ Name, Unit string }, have []struct{ name, unit string }) {
		if len(decl) != len(have) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the benchmark prints %d", what, len(decl), len(have))
			return
		}
		for i := range decl {
			if decl[i].Name != have[i].name || decl[i].Unit != have[i].unit {
				t.Errorf("%s %d: declared %s [%s], printed %s [%s]", what, i, decl[i].Name, decl[i].Unit, have[i].name, have[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("declared workload %q is not implemented", w.Name)
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("%d workloads declared, %d implemented", len(b.Workloads), len(workloads))
	}
}
