package serve

import (
	"container/list"
	"sync"
)

// Cache is a bounded LRU response cache keyed on the canonicalized
// request, with hit/miss accounting. A nil *Cache (or capacity <= 0) is
// a valid always-miss cache, so handlers never branch on "caching off".
type Cache struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List // front = most recently used
	items    map[string]*list.Element
	hits     uint64
	misses   uint64
	purged   uint64
	rejected uint64
	// floor is the highest generation ever purged (-1 = none).
	// Generations leave the retention ring oldest-first, so gen <=
	// floor means "purged for good": a Put racing a concurrent
	// PurgeGeneration (miss → purge → late fill) must be refused, or
	// the dead entry would survive the purge forever.
	floor int
}

type cacheEntry struct {
	key string
	gen int
	val Response
}

// NewCache creates an LRU cache bounded to capacity entries; capacity
// <= 0 returns nil, the always-miss cache.
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		return nil
	}
	return &Cache{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[string]*list.Element, capacity),
		floor:    -1,
	}
}

// Get returns the cached response for key and promotes it to most
// recently used. The returned body is shared — callers must not mutate
// it (handlers only ever write it out).
func (c *Cache) Get(key string) (Response, bool) {
	if c == nil {
		return Response{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return Response{}, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).val, true
}

// Put stores a response under key, tagged with the dataset generation
// it was answered from, evicting the least recently used entry when the
// cache is full. A fill for a generation at or below the purge floor is
// refused: the filler raced PurgeGeneration (it resolved its view, then
// the generation was evicted and purged while the handler ran) and its
// entry would otherwise outlive the purge as unreclaimable dead weight.
func (c *Cache) Put(key string, gen int, v Response) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if gen <= c.floor {
		c.rejected++
		return
	}
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		ent := el.Value.(*cacheEntry)
		ent.gen = gen
		ent.val = v
		return
	}
	if c.ll.Len() >= c.capacity {
		oldest := c.ll.Back()
		if oldest != nil {
			c.ll.Remove(oldest)
			delete(c.items, oldest.Value.(*cacheEntry).key)
		}
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, gen: gen, val: v})
}

// PurgeGeneration removes every entry tagged with the given generation
// and returns how many were dropped. The snapshot store calls it when a
// generation leaves the retention ring: those keys can never be asked
// for again (pinned requests get 410 before the cache is consulted), so
// purging is hygiene — it returns the capacity to live generations
// immediately instead of waiting for LRU pressure to cycle the dead
// entries out.
func (c *Cache) PurgeGeneration(gen int) int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if gen > c.floor {
		c.floor = gen
	}
	n := 0
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		if ent := el.Value.(*cacheEntry); ent.gen == gen {
			c.ll.Remove(el)
			delete(c.items, ent.key)
			n++
		}
		el = next
	}
	c.purged += uint64(n)
	return n
}

// CacheStats is the cache's accounting snapshot.
type CacheStats struct {
	Capacity int     `json:"capacity"`
	Size     int     `json:"size"`
	Hits     uint64  `json:"hits"`
	Misses   uint64  `json:"misses"`
	HitRatio float64 `json:"hit_ratio"`
	// Purged counts entries dropped by PurgeGeneration when their
	// generation left the retention ring; Rejected counts late fills
	// refused because their generation had already been purged (the
	// fill/purge race).
	Purged   uint64 `json:"purged"`
	Rejected uint64 `json:"rejected"`
}

// Stats snapshots the cache accounting. A nil cache reports zeroes.
func (c *Cache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s := CacheStats{
		Capacity: c.capacity,
		Size:     c.ll.Len(),
		Hits:     c.hits,
		Misses:   c.misses,
		Purged:   c.purged,
		Rejected: c.rejected,
	}
	if total := c.hits + c.misses; total > 0 {
		s.HitRatio = float64(c.hits) / float64(total)
	}
	return s
}
