package sweep

import (
	"container/list"
	"sync"

	"pixel/internal/arch"
)

// lruCache is a mutex-guarded bounded LRU of whole evaluation results,
// keyed by Job. Hits refresh recency; inserts beyond capacity evict
// the least recently used entry. A capacity <= 0 disables the cache
// entirely: gets always miss and puts are dropped, instead of the
// degenerate insert-then-immediately-evict churn a zero bound would
// otherwise produce.
type lruCache struct {
	mu    sync.Mutex
	cap   int
	order *list.List // front = most recent; values are *lruEntry
	items map[Job]*list.Element
}

type lruEntry struct {
	key  Job
	cost arch.NetworkCost
}

func newLRU(capacity int) *lruCache {
	size := capacity
	if size < 0 {
		size = 0
	}
	return &lruCache{
		cap:   capacity,
		order: list.New(),
		items: make(map[Job]*list.Element, size),
	}
}

func (c *lruCache) get(key Job) (arch.NetworkCost, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return arch.NetworkCost{}, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry).cost, true
}

func (c *lruCache) put(key Job, cost arch.NetworkCost) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*lruEntry).cost = cost
		c.order.MoveToFront(el)
		return
	}
	c.items[key] = c.order.PushFront(&lruEntry{key: key, cost: cost})
	if c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.items, oldest.Value.(*lruEntry).key)
	}
}
