package pixel_test

// One benchmark per published artifact of the paper's evaluation. Each
// bench regenerates the artifact's full data series (the same rows the
// corresponding table/figure reports), so `go test -bench=.` both
// exercises the model end-to-end and gives the per-artifact
// regeneration cost. Run `cmd/pixelsim -exp <id>` to see the rows.
//
// (External test package so the serving benchmarks can import
// internal/server, which itself imports pixel.)

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"pixel"
	"pixel/internal/arch"
	"pixel/internal/cnn"
	"pixel/internal/eval"
	"pixel/internal/omac"
	"pixel/internal/optsim"
	"pixel/internal/server"
	sweepeng "pixel/internal/sweep"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := eval.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tab, err := e.Run()
		if err != nil {
			b.Fatal(err)
		}
		if err := tab.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1 regenerates Table I (VGG16 per-layer op counts).
func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }

// BenchmarkFig4 regenerates Figure 4 (single-MAC energy/bit sweep).
func BenchmarkFig4(b *testing.B) { benchExperiment(b, "fig4") }

// BenchmarkFig5 regenerates Figure 5 (per-component energy, 3 CNNs).
func BenchmarkFig5(b *testing.B) { benchExperiment(b, "fig5") }

// BenchmarkFig6 regenerates Figure 6 (area vs lanes).
func BenchmarkFig6(b *testing.B) { benchExperiment(b, "fig6") }

// BenchmarkFig7 regenerates Figure 7 (normalized energy, 6 CNNs).
func BenchmarkFig7(b *testing.B) { benchExperiment(b, "fig7") }

// BenchmarkFig8 regenerates Figure 8 (geomean latency sweep).
func BenchmarkFig8(b *testing.B) { benchExperiment(b, "fig8") }

// BenchmarkFig9 regenerates Figure 9 (ZFNet per-layer latency).
func BenchmarkFig9(b *testing.B) { benchExperiment(b, "fig9") }

// BenchmarkFig10 regenerates Figure 10 (normalized EDP, 6 CNNs).
func BenchmarkFig10(b *testing.B) { benchExperiment(b, "fig10") }

// BenchmarkTable2 regenerates Table II (component breakdown).
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2") }

// --- Sweep-engine benchmarks: the multi-core grid sweep behind the
// design-space figures, engine vs the seed's serial loop.

// Sweep grid shared by the engine/serial comparison: all designs over
// the paper's lanes and bits axes (48 points).
var (
	benchSweepLanes = []int{2, 4, 8, 16}
	benchSweepBits  = []int{4, 8, 16, 32}
)

// BenchmarkSweepSerial reproduces the seed's Sweep: a serial triple
// loop that re-resolves the network and rebuilds the configuration and
// cost model from scratch at every (design, lanes, bits) point.
func BenchmarkSweepSerial(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, d := range arch.Designs() {
			for _, lanes := range benchSweepLanes {
				for _, bits := range benchSweepBits {
					net, err := cnn.ByName("AlexNet")
					if err != nil {
						b.Fatal(err)
					}
					cfg, err := arch.NewConfig(d, lanes, bits)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := arch.CostNetwork(net, cfg); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
	}
}

// BenchmarkSweepCold runs the same grid through a fresh engine every
// iteration: worker-pool fan-out plus shared-work dedup, no result
// reuse across iterations. This is the first-sweep cost.
func BenchmarkSweepCold(b *testing.B) {
	jobs := make([]sweepeng.Job, 0, 48)
	for _, p := range sweepeng.Grid(arch.Designs(), benchSweepLanes, benchSweepBits) {
		jobs = append(jobs, sweepeng.Job{Network: "AlexNet", Point: p})
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := sweepeng.New(sweepeng.Options{})
		if _, err := e.Run(context.Background(), jobs, sweepeng.RunOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweep runs the public engine-backed SweepNetworks in steady
// state: the shared engine's LRU holds the grid after the first
// iteration, so this is the repeat-sweep cost the eval figures and
// long-running services see.
func BenchmarkSweep(b *testing.B) {
	ctx, nets := context.Background(), []string{"AlexNet"}
	points := pixel.Grid(pixel.Designs(), benchSweepLanes, benchSweepBits)
	if _, err := pixel.SweepNetworks(ctx, nets, points, nil); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pixel.SweepNetworks(ctx, nets, points, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Robustness benchmarks: the Monte-Carlo yield sweep with and
// without fault mitigation. The protected variants run every trial
// twice (unprotected + protected, common random numbers), so their
// cost over "nominal" is the price of the paired curve; the scheme
// overhead factors themselves are printed by pixelmc -protect (see
// README.md, "Robustness").

func benchRobustness(b *testing.B, prot *pixel.ProtectionSpec) {
	b.Helper()
	spec := pixel.RobustnessSpec{
		Network:    "lenet",
		Design:     pixel.OO,
		Sigmas:     []float64{2},
		Trials:     4,
		Seed:       1,
		Protection: prot,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := pixel.RobustnessContext(context.Background(), spec)
		if err != nil {
			b.Fatal(err)
		}
		if prot != nil && rep.Protection == nil {
			b.Fatal("protected spec produced no protection report")
		}
	}
}

// BenchmarkRobustness measures the LeNet OO yield sweep (4 trials at
// σ=2) nominal and under each mitigation scheme.
func BenchmarkRobustness(b *testing.B) {
	b.Run("nominal", func(b *testing.B) { benchRobustness(b, nil) })
	b.Run("tmr", func(b *testing.B) { benchRobustness(b, &pixel.ProtectionSpec{Scheme: "tmr"}) })
	b.Run("parity", func(b *testing.B) { benchRobustness(b, &pixel.ProtectionSpec{Scheme: "parity"}) })
	b.Run("guardband", func(b *testing.B) { benchRobustness(b, &pixel.ProtectionSpec{Scheme: "guardband"}) })
}

// --- Serving benchmarks: the HTTP overhead pixeld layers on top of
// the engine (routing, JSON, coalescing, admission, metrics).

func benchServer() *httptest.Server {
	srv := server.New(server.Config{
		Engine: pixel.NewEngine(pixel.EngineOptions{}),
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	return httptest.NewServer(srv.Handler())
}

func benchPost(b *testing.B, client *http.Client, url string) {
	b.Helper()
	resp, err := client.Post(url, "application/json",
		strings.NewReader(`{"network":"AlexNet","design":"OO","lanes":4,"bits":16}`))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		b.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("status %d", resp.StatusCode)
	}
}

// BenchmarkServerEvaluate measures one /v1/evaluate round trip: "warm"
// is the steady-state path (result LRU hit, the serving overhead on
// top of the ~55µs cached engine path); "cold" includes the first
// pricing of the point on a fresh engine.
func BenchmarkServerEvaluate(b *testing.B) {
	b.Run("warm", func(b *testing.B) {
		ts := benchServer()
		defer ts.Close()
		client := ts.Client()
		benchPost(b, client, ts.URL+"/v1/evaluate") // prime the LRU
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchPost(b, client, ts.URL+"/v1/evaluate")
		}
	})
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			ts := benchServer()
			client := ts.Client()
			b.StartTimer()
			benchPost(b, client, ts.URL+"/v1/evaluate")
			b.StopTimer()
			ts.Close()
			b.StartTimer()
		}
	})
}

// --- Inference-serving benchmarks: the batched bit-sliced pipeline
// behind /v1/infer, engine-level and over HTTP. docs/SERVING.md cites
// their figures with the host; end-to-end serving figures come from
// perfbench's infer-mixed workload (perfbench/BASELINE.json).

// benchInferImages builds deterministic in-range images for a demo
// network.
func benchInferImages(tb testing.TB, network string, n int) [][]int64 {
	tb.Helper()
	shape, err := pixel.InferNetworkShape(network)
	if err != nil {
		tb.Fatal(err)
	}
	imgs := make([][]int64, n)
	for k := range imgs {
		img := make([]int64, shape.H*shape.W*shape.C)
		for i := range img {
			img[i] = int64((i*7 + k*13) % int(shape.MaxValue+1))
		}
		imgs[k] = img
	}
	return imgs
}

// BenchmarkInferLeNet compares one 64-image batched pass (the
// /v1/infer path: RunBatch on the lane-parallel BatchedStripes engine,
// pooled scratch, weights packed once) against 64 single-image passes
// through the same production path — the gain micro-batching buys the
// serving path. Both report images/sec; outputs are proven identical in
// TestRunBatchEquivalence.
func BenchmarkInferLeNet(b *testing.B) {
	imgs := benchInferImages(b, "lenet", 64)
	b.Run("sequential64", func(b *testing.B) {
		if _, err := pixel.InferContext(context.Background(), pixel.InferSpec{Network: "lenet", Images: imgs[:1]}); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for k := range imgs {
				if _, err := pixel.InferContext(context.Background(), pixel.InferSpec{Network: "lenet", Images: imgs[k : k+1]}); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(len(imgs))*float64(b.N)/b.Elapsed().Seconds(), "images/s")
	})
	b.Run("batch64", func(b *testing.B) {
		if _, err := pixel.InferContext(context.Background(), pixel.InferSpec{Network: "lenet", Images: imgs}); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := pixel.InferContext(context.Background(), pixel.InferSpec{Network: "lenet", Images: imgs}); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(imgs))*float64(b.N)/b.Elapsed().Seconds(), "images/s")
	})
}

// BenchmarkServerInfer measures /v1/infer under concurrent
// single-image load with micro-batching on (batches of up to 64
// images; requests collect while a pass runs): end-to-end request
// latency (p99 reported) and served images/sec, the figures a capacity
// plan needs.
func BenchmarkServerInfer(b *testing.B) {
	srv := server.New(server.Config{
		Engine:    pixel.NewEngine(pixel.EngineOptions{}),
		Infer:     server.PixelInfer{},
		BatchSize: 64,
		Logger:    slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	img := benchInferImages(b, "lenet", 1)[0]
	body, err := json.Marshal(map[string]any{"network": "lenet", "images": [][]int64{img}})
	if err != nil {
		b.Fatal(err)
	}
	post := func(client *http.Client) time.Duration {
		start := time.Now()
		resp, err := client.Post(ts.URL+"/v1/infer", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
		return time.Since(start)
	}
	post(ts.Client()) // warm the model cache

	var mu sync.Mutex
	var lat []time.Duration
	b.SetParallelism(8) // 8 concurrent clients per GOMAXPROCS
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		client := ts.Client()
		for pb.Next() {
			d := post(client)
			mu.Lock()
			lat = append(lat, d)
			mu.Unlock()
		}
	})
	b.StopTimer()
	if len(lat) > 0 {
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		b.ReportMetric(float64(lat[len(lat)*99/100].Microseconds())/1000, "p99-ms")
		b.ReportMetric(float64(len(lat))/b.Elapsed().Seconds(), "images/s")
	}
}

// --- Microbenchmarks of the simulator substrates, for profiling the
// pieces the artifact benches compose.

// BenchmarkCostNetworkVGG16 prices one full VGG16 inference (the unit of
// work behind Figures 5/7/8/10).
func BenchmarkCostNetworkVGG16(b *testing.B) {
	cfg := arch.MustConfig(arch.OO, 4, 16)
	net := cnn.VGG16()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := arch.CostNetwork(net, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFunctionalOEMultiply runs one 8-bit multiply through the
// simulated hybrid optical datapath.
func BenchmarkFunctionalOEMultiply(b *testing.B) {
	u, err := omac.NewOEUnit(omac.DefaultConfig(4, 8), 1)
	if err != nil {
		b.Fatal(err)
	}
	led := optsim.NewLedger()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := u.Multiply(uint64(i)&255, uint64(i>>8)&255, led); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblations re-runs the six-CNN evaluation under every
// calibration ablation (the design-choice sensitivity study).
func BenchmarkAblations(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := arch.RunAblations(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFunctionalOOMultiply runs one 8-bit multiply through the
// simulated all-optical datapath (MRR AND + cascaded-MZI accumulate).
func BenchmarkFunctionalOOMultiply(b *testing.B) {
	u, err := omac.NewOOUnit(omac.DefaultConfig(4, 8), 1)
	if err != nil {
		b.Fatal(err)
	}
	led := optsim.NewLedger()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := u.Multiply(uint64(i)&255, uint64(i>>8)&255, led); err != nil {
			b.Fatal(err)
		}
	}
}
