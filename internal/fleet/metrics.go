package fleet

import "pixel/internal/metrics"

// shardBuckets are the shard-latency histogram bounds [s]: a warm
// worker answers an evaluate shard in well under a millisecond over
// loopback, a cold multi-network sweep shard can run into seconds.
var shardBuckets = []float64{
	0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30,
}

// fanoutBuckets are the shards-per-fan-out histogram bounds: one
// shard up to a large fleet's workers x ShardsPerWorker.
var fanoutBuckets = []float64{1, 2, 4, 8, 16, 32}

// counters are the coordinator's own /metrics families under the
// pixelfleet_ prefix. The request, latency, in-flight and jobs
// families come from the shared HTTP core (internal/httpx).
type counters struct {
	hedgesFired *metrics.Counter // duplicate shard arms launched past the straggler deadline
	hedgesWon   *metrics.Counter // hedged arms that beat their primary
	retries     *metrics.Counter // shard attempts after the first (backoff + failover)
	evictions   *metrics.Counter // healthy->unhealthy worker transitions
	revivals    *metrics.Counter // unhealthy->healthy worker transitions

	breakerOpens *metrics.Counter // circuit-breaker transitions into the open state
	breakerSkips *metrics.Counter // candidates skipped because their breaker refused the call

	workersAdded   *metrics.Counter // members admitted via POST /v1/fleet/workers
	workersRemoved *metrics.Counter // members retired via DELETE /v1/fleet/workers

	salvageRounds  *metrics.Counter // salvage re-plan rounds run by fleet jobs
	salvagedUnits  *metrics.Counter // cells/σ-points kept from failed shards instead of re-run
	replannedUnits *metrics.Counter // cells/σ-points re-dispatched in salvage shards
	jobsParked     *metrics.Counter // fleet jobs that paused waiting for a healthy worker

	shards       *metrics.CounterVec   // shards served, by winning worker and route
	shardLatency *metrics.HistogramVec // shard latency by route
	fanout       *metrics.HistogramVec // shards planned per synchronous sweep/robustness request, by route
}

// newCounters registers the coordinator's families; the membership
// gauges read c at scrape time.
func newCounters(reg *metrics.Registry, c *Coordinator) counters {
	reg.GaugeFunc("pixelfleet_workers", "Configured workers in the fleet.", func() int64 {
		members, _ := c.membership()
		return int64(len(members))
	})
	reg.GaugeFunc("pixelfleet_workers_healthy", "Workers the prober currently trusts.", func() int64 {
		return int64(c.healthyCount())
	})
	reg.GaugeFunc("pixelfleet_breakers_open", "Workers whose circuit breaker currently refuses calls.", func() int64 {
		return int64(c.breakersOpen())
	})
	return counters{
		hedgesFired:    reg.Counter("pixelfleet_hedges_fired_total", "Duplicate shard arms launched past the straggler deadline."),
		hedgesWon:      reg.Counter("pixelfleet_hedges_won_total", "Hedged arms that beat their primary."),
		retries:        reg.Counter("pixelfleet_shard_retries_total", "Shard attempts after the first (backoff and ring failover)."),
		evictions:      reg.Counter("pixelfleet_worker_evictions_total", "Workers evicted after failed or draining health probes."),
		revivals:       reg.Counter("pixelfleet_worker_revivals_total", "Evicted workers revived by a good health probe."),
		breakerOpens:   reg.Counter("pixelfleet_breaker_opens_total", "Circuit-breaker transitions into the open state."),
		breakerSkips:   reg.Counter("pixelfleet_breaker_skips_total", "Candidate workers skipped because their breaker refused the call."),
		workersAdded:   reg.Counter("pixelfleet_workers_added_total", "Members admitted via the membership API."),
		workersRemoved: reg.Counter("pixelfleet_workers_removed_total", "Members retired via the membership API."),
		salvageRounds:  reg.Counter("pixelfleet_salvage_rounds_total", "Salvage re-plan rounds run by fleet jobs."),
		salvagedUnits:  reg.Counter("pixelfleet_salvaged_units_total", "Cells and sigma points kept from failed shards instead of re-run."),
		replannedUnits: reg.Counter("pixelfleet_replanned_units_total", "Cells and sigma points re-dispatched in salvage shards."),
		jobsParked:     reg.Counter("pixelfleet_jobs_parked_total", "Fleet jobs that paused waiting for a healthy worker."),
		shards:         reg.CounterVec("pixelfleet_shards_total", "Shards served, by winning worker and route.", "worker", "route"),
		shardLatency:   reg.HistogramVec("pixelfleet_shard_duration_seconds", "Shard latency by route.", shardBuckets, "route"),
		fanout:         reg.HistogramVec("pixelfleet_fanout_shards", "Shards planned per synchronous sweep or robustness request, by route.", fanoutBuckets, "route"),
	}
}
