package server

import "pixel/internal/metrics"

// counters are the worker's own /metrics families. The request,
// latency, in-flight and jobs families come from the shared HTTP core
// (internal/httpx) under the same pixeld_ prefix.
type counters struct {
	shed         *metrics.Counter // requests rejected by admission control
	coalesced    *metrics.Counter // requests that shared another's flight
	inferBatches *metrics.Counter // batched /v1/infer engine passes
	inferImages  *metrics.Counter // images served across those passes
}

func newCounters(reg *metrics.Registry, eng Evaluator) counters {
	c := counters{
		shed:         reg.Counter("pixeld_shed_total", "Requests rejected by admission control (HTTP 429)."),
		coalesced:    reg.Counter("pixeld_coalesced_total", "Requests that shared an identical in-flight computation."),
		inferBatches: reg.Counter("pixeld_infer_batches_total", "Batched /v1/infer engine passes."),
		inferImages:  reg.Counter("pixeld_infer_images_total", "Images served across batched /v1/infer passes."),
	}
	reg.CounterFunc("pixeld_engine_cost_calls_total", "Evaluations actually priced by the engine (result-LRU misses).", eng.CostCalls)
	reg.CounterFunc("pixeld_engine_cache_hits_total", "Evaluations absorbed by the engine result LRU.", eng.CacheHits)
	return c
}
