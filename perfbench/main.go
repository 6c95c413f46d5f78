// Command perfbench is the repository's benchmark. It runs one named
// workload against in-process pixeld servers (and, for sweep-fleet, a
// fleet coordinator) served over loopback HTTP, checks every output
// after the measured window, and prints one JSON result line.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload infer-mixed --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics, taken from spans the
// benchmark records around the program's public seams. README.md
// describes the workloads, the metrics and which layer moves which.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sync"
	"syscall"
	"time"

	"pixel/internal/bitserial"
)

// workload is one traffic mix against freshly built servers.
type workload interface {
	// measure runs the workload's traffic for the window and returns
	// what the load generator saw. Successive calls continue the
	// workload's seeded request sequence.
	measure(ctx context.Context, window time.Duration) (*outcome, error)
	// layers turns everything traced so far into per-layer metrics.
	layers(ctx context.Context) (map[string]float64, error)
	// check verifies every output received so far against its reference
	// and returns how many differ.
	check(ctx context.Context) (failed int, err error)
	close()
}

// outcome is one measured window: latencies of the workload's primary
// and secondary request classes, the work completed and the time it
// took, and the operation counts.
type outcome struct {
	primary, secondary []float64 // ms
	work, busy         float64   // work units; seconds
	attempted, failed  int
}

// spec describes a workload: how to build it, and which percentile of
// its primary latency the tail metric reports (fixed per workload so
// runs stay comparable; see README.md).
type spec struct {
	setup func(ctx context.Context, seed int64, tr *tracer) (workload, error)
	tail  float64
}

var workloads = map[string]spec{
	"infer-mixed": {setup: setupInfer, tail: 0.6},
	"mc-yield":    {setup: setupMC, tail: 0.9},
	"sweep-fleet": {setup: setupSweep, tail: 0.99},
}

// endToEnd and perLayer are the metric names and units the result
// line carries with --trace 0 and --trace 1; BENCHMARK.json lists the
// same names.
var endToEnd = []struct{ name, unit string }{
	{"primary_p50_ms", "ms"},
	{"primary_tail_ms", "ms"},
	{"secondary_p50_ms", "ms"},
	{"work_per_s", "1/s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

var perLayer = []struct{ name, unit string }{
	{"loadgen.late_ms", "ms"},
	{"server.wait_ms", "ms"},
	{"server.eval_ms", "ms"},
	{"server.self_ms", "ms"},
	{"server.transport_ms", "ms"},
	{"server.batch_images", "count"},
	{"server.shed", "count"},
	{"server.coalesced", "count"},
	{"qnn.runbatch_ms", "ms"},
	{"qnn.self_ms", "ms"},
	{"qnn.replay_ratio", "ratio"},
	{"bitserial.engine_ms", "ms"},
	{"bitserial.calls", "count"},
	{"bitserial.mmac_per_s", "Mmac/s"},
	{"bitserial.vector_sweep", "bool"},
	{"montecarlo.sample_us", "us"},
	{"montecarlo.inference_ms", "ms"},
	{"montecarlo.dot_ns", "ns"},
	{"montecarlo.dot_calls", "count"},
	{"montecarlo.clean_ratio", "ratio"},
	{"montecarlo.replay_ratio", "ratio"},
	{"protect.retry_factor", "ratio"},
	{"sweep.eval_ms", "ms"},
	{"sweep.cost_calls", "count"},
	{"sweep.cache_hit_ratio", "ratio"},
	{"fleet.self_ms", "ms"},
	{"fleet.shards_per_request", "count"},
	{"fleet.retries", "count"},
	{"fleet.attempt_useful_ratio", "ratio"},
	{"trace.unattributed_ms", "ms"},
	{"trace.unattributed_pct", "%"},
	{"trace.overhead_pct", "%"},
}

// Run-shape constants: the warm-up that lets pools and caches fill
// before timing, how many cold set-ups setup_s takes the median of, and
// the wall-clock budget every run must end within.
const (
	warmup      = time.Second
	setupProbes = 11
	runBudget   = 170 * time.Second
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: infer-mixed, mc-yield or sweep-fleet")
	seed := fs.Int64("seed", 1, "seed the workload's inputs derive from")
	seconds := fs.Float64("seconds", 20, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "1 records spans and reports per-layer metrics instead of end-to-end ones")
	probe := fs.Bool("setup-probe", false, "build the workload's servers once, print ready and exit (used to time set-up)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (infer-mixed, mc-yield, sweep-fleet), --seconds > 0 and --trace 0|1\n")
		return 2
	}
	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	defer cancel()

	if *probe {
		wl, err := sp.setup(ctx, *seed, nil)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintln(stdout, "ready")
		wl.close()
		return 0
	}

	res, err := bench(ctx, *name, sp, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// bench runs one workload end to end: set-up timing, warm-up, the
// measured window (split into an untraced and a traced half when
// tracing), then the correctness check.
func bench(ctx context.Context, name string, sp spec, seed int64, window time.Duration, traced bool, log io.Writer) (*result, error) {
	fmt.Fprintf(log, "perfbench: %s seed=%d window=%s trace=%t host: %s nproc=%d GOMAXPROCS=%d avx2_sweep=%t\n",
		name, seed, window, traced, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), bitserial.VectorSweep())
	setupS, err := timeSetup(ctx, name, seed, log)
	if err != nil {
		return nil, err
	}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	wl, err := sp.setup(ctx, seed, tr)
	if err != nil {
		return nil, err
	}
	defer wl.close()

	warm, err := wl.measure(ctx, warmup)
	if err != nil {
		return nil, err
	}
	res := &result{Metrics: map[string]metric{}}
	var outs []*outcome
	if !traced {
		out, err := wl.measure(ctx, window)
		if err != nil {
			return nil, err
		}
		outs = append(outs, out)
		e := summarize(out, sp.tail, log)
		e["setup_s"] = setupS
		e["peak_rss_mb"] = peakRSSMB()
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{Value: finite(e[m.name]), Unit: m.unit}
		}
	} else {
		plain, err := wl.measure(ctx, window/2)
		if err != nil {
			return nil, err
		}
		tr.on.Store(true)
		out, err := wl.measure(ctx, window/2)
		tr.on.Store(false)
		if err != nil {
			return nil, err
		}
		outs = append(outs, plain, out)
		lm, err := wl.layers(ctx)
		if err != nil {
			return nil, err
		}
		base, with := summarize(plain, sp.tail, io.Discard), summarize(out, sp.tail, log)
		lm["trace.overhead_pct"] = 100 * (with["primary_p50_ms"] - base["primary_p50_ms"]) / base["primary_p50_ms"]
		lm["bitserial.vector_sweep"] = 0
		if bitserial.VectorSweep() {
			lm["bitserial.vector_sweep"] = 1
		}
		for _, m := range perLayer {
			res.Metrics[m.name] = metric{Value: finite(lm[m.name]), Unit: m.unit}
		}
		if err := writeSpans(tracePath(name, seed), tr.snapshot()); err != nil {
			return nil, err
		}
	}

	for _, o := range append(outs, warm) {
		res.Attempted += o.attempted
		res.Failed += o.failed
	}
	mismatched, err := wl.check(ctx)
	if err != nil {
		return nil, err
	}
	res.Failed += mismatched
	res.Correct = res.Failed == 0
	fmt.Fprintf(log, "perfbench: attempted=%d failed=%d (mismatched outputs %d)\n", res.Attempted, res.Failed, mismatched)
	return res, nil
}

// summarize computes the end-to-end metrics of one window and logs the
// sample counts behind each percentile.
func summarize(o *outcome, tail float64, log io.Writer) map[string]float64 {
	q, n, ok := highestSupported(len(o.primary))
	fmt.Fprintf(log, "perfbench: primary n=%d ms:", len(o.primary))
	for _, p := range []float64{0.5, 0.6, 0.7, 0.75, 0.8, 0.9, 0.95, 0.99} {
		fmt.Fprintf(log, " p%g=%.3f", 100*p, percentile(o.primary, p))
	}
	fmt.Fprintf(log, "; tail p%g has %d beyond (highest supported p%g with %d, ok=%t); secondary n=%d p50=%.3f ms; work %.0f in %.3fs\n",
		100*tail, beyond(len(o.primary), tail), 100*q, n, ok, len(o.secondary), median(o.secondary), o.work, o.busy)
	return map[string]float64{
		"primary_p50_ms":   median(o.primary),
		"primary_tail_ms":  percentile(o.primary, tail),
		"secondary_p50_ms": median(o.secondary),
		"work_per_s":       o.work / o.busy,
	}
}

// timeSetup returns the median wall time of setupProbes cold set-ups,
// each in a fresh process so process-wide caches start empty: from
// process start to the first warm-up response.
func timeSetup(ctx context.Context, name string, seed int64, log io.Writer) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	ts := make([]float64, 0, setupProbes)
	for i := 0; i < setupProbes; i++ {
		cmd := exec.CommandContext(ctx, exe, "--workload", name, "--seed", fmt.Sprint(seed), "--setup-probe")
		cmd.Stderr = os.Stderr
		pipe, err := cmd.StdoutPipe()
		if err != nil {
			return 0, err
		}
		start := time.Now()
		if err := cmd.Start(); err != nil {
			return 0, err
		}
		line, rerr := bufio.NewReader(pipe).ReadString('\n')
		elapsed := time.Since(start)
		_, _ = io.Copy(io.Discard, pipe)
		if err := cmd.Wait(); err != nil {
			return 0, fmt.Errorf("setup probe: %w", err)
		}
		if rerr != nil || line != "ready\n" {
			return 0, fmt.Errorf("setup probe answered %q: %v", line, rerr)
		}
		ts = append(ts, elapsed.Seconds())
	}
	fmt.Fprintf(log, "perfbench: setup probes %v s\n", ts)
	return median(ts), nil
}

// finite maps the NaN or infinity of a statistic over no samples (a
// window in which every request failed) to 0, which JSON can carry; the
// failures themselves make the result incorrect.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// peakRSSMB is the process's peak resident set so far, in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// forEach runs fn(0..n-1) on GOMAXPROCS goroutines and returns the
// first error; remaining items are skipped once one fails or ctx ends.
func forEach(ctx context.Context, n int, fn func(i int) error) error {
	var (
		mu    sync.Mutex
		next  int
		first error
		wg    sync.WaitGroup
	)
	for g := 0; g < runtime.GOMAXPROCS(0); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if first == nil && ctx.Err() != nil {
					first = ctx.Err()
				}
				i := next
				next++
				stop := first != nil || i >= n
				mu.Unlock()
				if stop {
					return
				}
				if err := fn(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return first
}
