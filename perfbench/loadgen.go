package main

import (
	"context"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// arrival is one request of an open-loop schedule: when it is due,
// relative to the start of the window, and its index in the
// workload's request sequence.
type arrival struct {
	due time.Duration
	idx int
}

// openSchedule places n arrivals in [0, window) on a jittered grid:
// arrival i is due at a seeded uniform instant within the i-th of n
// equal slots. The offered load is exact and steady, as from many
// independent clients each on its own period, so queueing comes from
// the mix of request sizes rather than from the seed's chance bursts.
// Indices continue from first.
func openSchedule(rng *rand.Rand, n int, window time.Duration, first int) []arrival {
	out := make([]arrival, n)
	slot := float64(window) / float64(n)
	for i := range out {
		out[i] = arrival{due: time.Duration((float64(i) + rng.Float64()) * slot), idx: first + i}
	}
	return out
}

// sample is one completed request as the load generator saw it: when
// it was due, when it went on the wire, when its response had fully
// arrived. In a closed loop a request is due when it is sent.
type sample struct {
	idx             int
	due, sent, done time.Time
	err             error
}

// latency is the request's time from when it was due to completion, so
// a stall that delays later sends is charged to the requests it delayed.
func (s sample) latency() time.Duration { return s.done.Sub(s.due) }

// late is how long after its due time the request was sent.
func (s sample) late() time.Duration { return s.sent.Sub(s.due) }

// sendFunc performs request idx and reports when it went on the wire
// and when its response was complete; work before and after that
// interval (building the body, decoding the reply) is the load
// generator's own.
type sendFunc func(ctx context.Context, idx int) (sent, done time.Time, err error)

// runOpen sends the schedule from conns senders, one request at a time
// each: arrival a goes to sender lane(a.idx) at its due time and waits
// in that sender's queue while the sender is busy. It returns once
// every dispatched arrival has completed, samples in schedule order.
// Cancelling ctx stops dispatch; undispatched arrivals are reported
// with ctx's error.
func runOpen(ctx context.Context, sched []arrival, conns int, lane func(idx int) int, send sendFunc) []sample {
	out := make([]sample, len(sched))
	start := time.Now()
	queues := make([]chan int, conns)
	var wg sync.WaitGroup
	for c := range queues {
		queues[c] = make(chan int, len(sched)) // sized to the schedule: dispatch never blocks
		wg.Add(1)
		go func(q chan int) {
			defer wg.Done()
			for i := range q {
				s := sample{idx: sched[i].idx, due: start.Add(sched[i].due)}
				s.sent, s.done, s.err = send(ctx, s.idx)
				out[i] = s
			}
		}(queues[c])
	}
	for i, a := range sched {
		if d := time.Until(start.Add(a.due)); d > 0 {
			t := time.NewTimer(d)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
			}
		}
		if ctx.Err() != nil {
			for j := i; j < len(sched); j++ {
				due := start.Add(sched[j].due)
				out[j] = sample{idx: sched[j].idx, due: due, sent: due, done: due, err: ctx.Err()}
			}
			break
		}
		queues[lane(a.idx)] <- i
	}
	for _, q := range queues {
		close(q)
	}
	wg.Wait()
	return out
}

// runClosed runs clients closed loops until window elapses: each client
// sends its next request only after the previous one completed, taking
// request indices from one shared sequence that continues from first.
// No request starts after the window; those in flight complete. Samples
// come back in index order.
func runClosed(ctx context.Context, clients int, window time.Duration, first int, send sendFunc) []sample {
	var next atomic.Int64
	next.Store(int64(first))
	var mu sync.Mutex
	var out []sample
	end := time.Now().Add(window)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && time.Now().Before(end) {
				s := sample{idx: int(next.Add(1) - 1)}
				s.sent, s.done, s.err = send(ctx, s.idx)
				s.due = s.sent
				mu.Lock()
				out = append(out, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	sort.Slice(out, func(i, j int) bool { return out[i].idx < out[j].idx })
	return out
}

// windowOf returns the interval from the earliest due time to the latest
// completion among samples.
func windowOf(ss []sample) time.Duration {
	if len(ss) == 0 {
		return 0
	}
	lo, hi := ss[0].due, ss[0].done
	for _, s := range ss[1:] {
		if s.due.Before(lo) {
			lo = s.due
		}
		if s.done.After(hi) {
			hi = s.done
		}
	}
	return hi.Sub(lo)
}

// mix hashes three words into one: independent seeded streams from
// (seed, index, purpose).
func mix(a, b, c uint64) uint64 { return splitmix64(splitmix64(splitmix64(a)+b) + c) }

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
