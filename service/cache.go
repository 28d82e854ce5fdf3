package service

import (
	"container/list"
	"sync"
)

// lru is a fixed-capacity, mutex-guarded least-recently-used map. The
// service keeps two: the result cache (fingerprint → encoded JobResult
// document, the exact bytes served to clients, so a hit returns a
// byte-identical result without re-solving) and the ProblemMemo
// (document key → parsed problem and fingerprint).
type lru[K comparable, V any] struct {
	mu    sync.Mutex
	cap   int
	order *list.List // front = most recently used
	items map[K]*list.Element
}

type lruEntry[K comparable, V any] struct {
	key K
	val V
}

// newLRU builds an LRU of the given capacity; capacity <= 0 stores
// nothing.
func newLRU[K comparable, V any](capacity int) *lru[K, V] {
	return &lru[K, V]{
		cap:   capacity,
		order: list.New(),
		items: make(map[K]*list.Element, capacity),
	}
}

// get returns the stored value and marks it most recently used.
func (c *lru[K, V]) get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry[K, V]).val, true
}

// put stores a value, evicting the least recently used entry when over
// capacity. Re-putting an existing key refreshes its recency but keeps
// the first value: both users store a pure function of the key (solves
// are deterministic per fingerprint; a document parses to one problem),
// and keeping the original result preserves byte-identity with results
// already handed out.
func (c *lru[K, V]) put(key K, val V) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.order.MoveToFront(el)
		return
	}
	c.items[key] = c.order.PushFront(&lruEntry[K, V]{key: key, val: val})
	for c.order.Len() > c.cap {
		last := c.order.Back()
		c.order.Remove(last)
		delete(c.items, last.Value.(*lruEntry[K, V]).key)
	}
}

// len reports the number of stored entries.
func (c *lru[K, V]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
