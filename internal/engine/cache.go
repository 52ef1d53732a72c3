package engine

import (
	"container/list"
	"sync"
)

// lruCache is a thread-safe LRU over solved artifacts, keyed by the spec's
// canonical fingerprint. Values are the typed artifacts themselves, not
// their JSON: a warm hit hands every caller the same immutable value, the
// campaign runtime quotes from its tables in place, and the server appends
// its wire bytes straight into the response.
type lruCache struct {
	mu    sync.Mutex
	max   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element
}

type cacheEntry struct {
	key string
	val Artifact
}

func newLRUCache(max int) *lruCache {
	if max < 1 {
		max = 1
	}
	return &lruCache{
		max:   max,
		ll:    list.New(),
		items: make(map[string]*list.Element, max),
	}
}

// Get returns the cached artifact for key and refreshes its recency.
func (c *lruCache) Get(key string) (Artifact, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).val, true
}

// Put inserts or refreshes key, evicting the least recently used entries
// when the cache exceeds its capacity.
func (c *lruCache) Put(key string, val Artifact) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*cacheEntry).val = val
		return
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, val: val})
	for c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry).key)
	}
}

// Len returns the number of cached entries.
func (c *lruCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
