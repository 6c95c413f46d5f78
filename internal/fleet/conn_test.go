package fleet

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// roundGate holds a round's shard calls in the worker until all of
// them have arrived (or a deadline passes).
type roundGate struct {
	left atomic.Int64
	open chan struct{}
}

// TestShardClientReusesConnections is TestClientReusesConnection for
// the coordinator's own shard client (Options.HTTPClient nil): rounds
// of a whole fan-out's worth of concurrent shard calls to one worker
// open no more connections than the fan-out, because each round's
// connections wait idle for the next. On http.DefaultClient, which
// keeps two idle connections per host, every round past the first
// would dial all but two of them again. Closing the coordinator
// closes them.
//
// The worker holds each round's calls until the whole round has
// arrived, so every call of a round is in flight at once and needs a
// connection of its own. Without the hold, a call could be handed the
// connection of a call that finished before it, and its own dial would
// then land after the round, leaving the next round a connection
// short. Every call must hand its connection back to the pool. The one
// drop excused is the transport's own write-wait rule: it keeps a
// connection only if the request's write has reported within 50 ms of
// the response body's end, so a call that returns before its write has
// reported may lose its connection, and the bound grows by one for
// each such call.
func TestShardClientReusesConnections(t *testing.T) {
	var conns, closed atomic.Int64
	var gate atomic.Pointer[roundGate]
	worker := newWorkerHandler()
	ws := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if g := gate.Load(); g != nil {
			if g.left.Add(-1) == 0 {
				close(g.open)
			}
			select {
			case <-g.open:
			case <-time.After(10 * time.Second):
			}
		}
		worker.ServeHTTP(w, r)
	}))
	ws.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		switch s {
		case http.StateNew:
			conns.Add(1)
		case http.StateClosed:
			closed.Add(1)
		}
	}
	ws.Start()
	defer ws.Close()
	c := newTestCoordinator(t, Options{Workers: []string{ws.URL}, ShardsPerWorker: 6, ProbeInterval: time.Hour})
	members, _ := c.membership()
	client := members[0].client
	fanOut := c.shardTarget()
	req := sweep48()
	var inFlight atomic.Int64 // calls that returned before their write reported
	for round := 0; round < 8; round++ {
		g := &roundGate{open: make(chan struct{})}
		g.left.Store(int64(fanOut))
		gate.Store(g)
		var wg sync.WaitGroup
		for i := 0; i < fanOut; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var kept, wrote atomic.Bool
				ctx := httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
					WroteRequest: func(httptrace.WroteRequestInfo) { wrote.Store(true) },
					PutIdleConn: func(err error) {
						if err != nil {
							t.Errorf("the shard client's pool refused a connection: %v", err)
						}
						kept.Store(true)
					},
				})
				if _, err := client.Sweep(ctx, req); err != nil {
					t.Error(err)
				}
				switch {
				case kept.Load():
				case wrote.Load():
					t.Error("a shard call did not hand its connection back to the pool")
				default:
					inFlight.Add(1)
				}
			}()
		}
		wg.Wait()
	}
	gate.Store(nil)
	if got, want := conns.Load(), int64(fanOut)+inFlight.Load(); got > want {
		t.Fatalf("8 rounds of %d concurrent shard calls opened %d connections, want at most %d (%d writes in flight at return)", fanOut, got, want, inFlight.Load())
	}
	c.Close()
	for deadline := time.Now().Add(5 * time.Second); closed.Load() < conns.Load(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("after Close, %d of %d shard connections are still open", conns.Load()-closed.Load(), conns.Load())
		}
	}
}
