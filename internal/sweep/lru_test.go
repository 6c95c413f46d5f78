package sweep

import (
	"fmt"
	"sync"
	"testing"

	"pixel/internal/arch"
)

// len returns the number of cached entries.
func (c *lruCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

func lruKey(i int) Job {
	return Job{Network: fmt.Sprintf("net%d", i), Point: Point{Design: arch.OO, Lanes: 4, Bits: 8}}
}

func lruCost(i int) arch.NetworkCost {
	return arch.NetworkCost{Latency: float64(i)}
}

func TestLRUDisabledCapacity(t *testing.T) {
	for _, capacity := range []int{0, -1, -100} {
		c := newLRU(capacity)
		c.put(lruKey(1), lruCost(1))
		if _, ok := c.get(lruKey(1)); ok {
			t.Errorf("cap %d: get hit on a disabled cache", capacity)
		}
		if n := c.len(); n != 0 {
			t.Errorf("cap %d: len = %d, want 0", capacity, n)
		}
	}
}

func TestLRUCapacityOne(t *testing.T) {
	c := newLRU(1)
	c.put(lruKey(1), lruCost(1))
	if got, ok := c.get(lruKey(1)); !ok || got.Latency != 1 {
		t.Fatalf("get(1) = %v, %v; want hit with latency 1", got.Latency, ok)
	}
	// A second distinct key evicts the first; the cache never exceeds
	// its bound.
	c.put(lruKey(2), lruCost(2))
	if n := c.len(); n != 1 {
		t.Fatalf("len = %d, want 1", n)
	}
	if _, ok := c.get(lruKey(1)); ok {
		t.Error("evicted key still resident")
	}
	if got, ok := c.get(lruKey(2)); !ok || got.Latency != 2 {
		t.Errorf("get(2) = %v, %v; want hit with latency 2", got.Latency, ok)
	}
	// Re-putting the resident key updates in place, no eviction.
	c.put(lruKey(2), lruCost(3))
	if got, ok := c.get(lruKey(2)); !ok || got.Latency != 3 {
		t.Errorf("update in place: got %v, %v; want latency 3", got.Latency, ok)
	}
}

func TestLRURecencyOrder(t *testing.T) {
	c := newLRU(2)
	c.put(lruKey(1), lruCost(1))
	c.put(lruKey(2), lruCost(2))
	// Touch 1 so 2 becomes the eviction victim.
	if _, ok := c.get(lruKey(1)); !ok {
		t.Fatal("warm key missing")
	}
	c.put(lruKey(3), lruCost(3))
	if _, ok := c.get(lruKey(2)); ok {
		t.Error("least recently used key survived eviction")
	}
	if _, ok := c.get(lruKey(1)); !ok {
		t.Error("recently used key was evicted")
	}
	if _, ok := c.get(lruKey(3)); !ok {
		t.Error("fresh insert missing")
	}
}

// TestLRUConcurrentStress hammers a small cache from many goroutines
// under -race: interleaved gets and puts over a key space larger than
// the capacity, checking the bound holds and hits return the value put
// for that key.
func TestLRUConcurrentStress(t *testing.T) {
	const (
		capacity   = 8
		goroutines = 16
		iters      = 2000
		keySpace   = 32
	)
	c := newLRU(capacity)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				k := (g*31 + i) % keySpace
				if i%3 == 0 {
					c.put(lruKey(k), lruCost(k))
					continue
				}
				if cost, ok := c.get(lruKey(k)); ok && cost.Latency != float64(k) {
					t.Errorf("key %d returned cost %v", k, cost.Latency)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n := c.len(); n > capacity {
		t.Errorf("len = %d exceeds capacity %d", n, capacity)
	}
}
