package fleet

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestShardClientReusesConnections is TestClientReusesConnection for
// the coordinator's own shard client (Options.HTTPClient nil): rounds
// of a whole fan-out's worth of concurrent shard calls to one worker
// open no more connections than the fan-out, because each round's
// connections wait idle for the next. On http.DefaultClient, which
// keeps two idle connections per host, every round past the first
// would dial all but two of them again. Closing the coordinator
// closes them.
func TestShardClientReusesConnections(t *testing.T) {
	var conns, closed atomic.Int64
	ws := httptest.NewUnstartedServer(newWorkerHandler())
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
	for round := 0; round < 8; round++ {
		var wg sync.WaitGroup
		for i := 0; i < fanOut; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := client.Sweep(context.Background(), req); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
	}
	if got := conns.Load(); got > int64(fanOut) {
		t.Fatalf("8 rounds of %d concurrent shard calls opened %d connections, want at most %d", fanOut, got, fanOut)
	}
	c.Close()
	for deadline := time.Now().Add(5 * time.Second); closed.Load() < conns.Load(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("after Close, %d of %d shard connections are still open", conns.Load()-closed.Load(), conns.Load())
		}
	}
}
