package fleet

import (
	"context"
	"sync"
	"time"
)

// prober owns worker health: it hits every member's /healthz on a
// jittered cadence and flips the shared healthy bits that candidate
// ordering reads. A worker is evicted — it stops receiving new shards;
// in-flight shards fail over to its ring successors, which is the
// re-queue — after ProbeFailThreshold consecutive bad probes, or
// immediately when it reports "draining" (the worker itself asking for
// no more work). One good probe revives it. Each sweep snapshots the
// membership, so workers added or removed at runtime join or leave the
// probe rotation on the next tick.
type prober struct {
	c    *Coordinator
	stop chan struct{}
	done chan struct{}
}

func startProber(c *Coordinator) *prober {
	p := &prober{
		c:    c,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go p.run()
	return p
}

func (p *prober) shutdown() {
	close(p.stop)
	<-p.done
}

func (p *prober) run() {
	defer close(p.done)
	t := time.NewTimer(jitter(p.c.opts.ProbeInterval))
	defer t.Stop()
	for {
		select {
		case <-t.C:
			p.sweep()
			t.Reset(jitter(p.c.opts.ProbeInterval))
		case <-p.stop:
			return
		}
	}
}

// sweep probes the current membership concurrently so one black-holed
// worker's timeout does not delay the others' verdicts.
func (p *prober) sweep() {
	members, _ := p.c.membership()
	var wg sync.WaitGroup
	for _, w := range members {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			p.probe(w)
		}(w)
	}
	wg.Wait()
}

func (p *prober) probe(w *worker) {
	ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
	defer cancel()
	h, err := w.client.Health(ctx)
	if err == nil && h.Status == "ok" {
		w.probeFails.Store(0)
		if !w.healthy.Swap(true) {
			p.c.metrics.revivals.Add(1)
			p.c.logger.Info("fleet: worker revived", "worker", w.name)
		}
		return
	}
	fails := w.probeFails.Add(1)
	draining := err == nil && h.Status == "draining"
	if draining || int(fails) >= p.c.opts.ProbeFailThreshold {
		if w.healthy.Swap(false) {
			p.c.metrics.evictions.Add(1)
			p.c.logger.Warn("fleet: worker evicted",
				"worker", w.name, "consecutive_fails", fails, "draining", draining, "err", err)
		}
	}
}
