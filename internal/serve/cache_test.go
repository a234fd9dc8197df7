package serve

import (
	"fmt"
	"sync"
	"testing"
)

func respBody(s string) Response {
	return Response{Status: 200, ContentType: "application/json", Body: []byte(s)}
}

func TestCacheHitMiss(t *testing.T) {
	c := NewCache(4)
	if _, ok := c.Get("a"); ok {
		t.Fatal("empty cache reported a hit")
	}
	c.Put("a", 0, respBody("A"))
	got, ok := c.Get("a")
	if !ok || string(got.Body) != "A" {
		t.Fatalf("Get a = %q ok=%v", got.Body, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Size != 1 || st.Capacity != 4 {
		t.Fatalf("stats = %+v", st)
	}
	if st.HitRatio != 0.5 {
		t.Fatalf("hit ratio = %v", st.HitRatio)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(3)
	for i := 0; i < 3; i++ {
		c.Put(fmt.Sprintf("k%d", i), 0, respBody(fmt.Sprintf("v%d", i)))
	}
	// Touch k0 so k1 becomes the eviction victim.
	if _, ok := c.Get("k0"); !ok {
		t.Fatal("k0 missing before eviction")
	}
	c.Put("k3", 0, respBody("v3"))
	if _, ok := c.Get("k1"); ok {
		t.Fatal("k1 should have been evicted (LRU)")
	}
	for _, k := range []string{"k0", "k2", "k3"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s evicted unexpectedly", k)
		}
	}
	if st := c.Stats(); st.Size != 3 {
		t.Fatalf("size = %d after eviction", st.Size)
	}
}

func TestCacheUpdateExisting(t *testing.T) {
	c := NewCache(2)
	c.Put("k", 0, respBody("old"))
	c.Put("k", 0, respBody("new"))
	got, ok := c.Get("k")
	if !ok || string(got.Body) != "new" {
		t.Fatalf("updated entry = %q ok=%v", got.Body, ok)
	}
	if st := c.Stats(); st.Size != 1 {
		t.Fatalf("size = %d after in-place update", st.Size)
	}
}

func TestCachePurgeGeneration(t *testing.T) {
	c := NewCache(8)
	c.Put("g0/a", 0, respBody("a0"))
	c.Put("g0/b", 0, respBody("b0"))
	c.Put("g1/a", 1, respBody("a1"))
	if n := c.PurgeGeneration(0); n != 2 {
		t.Fatalf("PurgeGeneration(0) dropped %d entries, want 2", n)
	}
	if _, ok := c.Get("g0/a"); ok {
		t.Fatal("g0/a survived its generation's purge")
	}
	if got, ok := c.Get("g1/a"); !ok || string(got.Body) != "a1" {
		t.Fatalf("g1/a = %q ok=%v after purging generation 0", got.Body, ok)
	}
	st := c.Stats()
	if st.Size != 1 || st.Purged != 2 {
		t.Fatalf("stats after purge = %+v", st)
	}
	if n := c.PurgeGeneration(5); n != 0 {
		t.Fatalf("purging an absent generation dropped %d entries", n)
	}
	var nilCache *Cache
	if n := nilCache.PurgeGeneration(0); n != 0 {
		t.Fatalf("nil cache purge = %d", n)
	}
}

// TestCacheLateFillAfterPurge is the deterministic core of the
// fill/purge race: a handler resolved its view at generation 0, the
// generation was then evicted and purged, and the handler's Put lands
// after the purge. Without the purge floor the entry would survive the
// purge forever (nothing purges generation 0 twice), serving a dead
// generation's body to any later key collision and squatting capacity.
func TestCacheLateFillAfterPurge(t *testing.T) {
	c := NewCache(8)
	c.PurgeGeneration(0)
	c.Put("g0/a", 0, respBody("stale"))
	if _, ok := c.Get("g0/a"); ok {
		t.Fatal("late fill for a purged generation was accepted")
	}
	if st := c.Stats(); st.Rejected != 1 {
		t.Fatalf("stats = %+v, want Rejected=1", st)
	}
	// Fills for generations above the floor still land.
	c.Put("g1/a", 1, respBody("live"))
	if _, ok := c.Get("g1/a"); !ok {
		t.Fatal("live-generation fill rejected")
	}
	// The floor is monotonic: purging an older generation after a newer
	// one must not lower it.
	c.PurgeGeneration(3)
	c.PurgeGeneration(1)
	c.Put("g2/a", 2, respBody("dead"))
	if _, ok := c.Get("g2/a"); ok {
		t.Fatal("fill below the floor accepted after out-of-order purges")
	}
}

// TestCacheFillPurgeRace interleaves concurrent fills and purges under
// the race detector and then checks the invariant the floor exists for:
// once PurgeGeneration(g) has returned, no entry tagged g (or older) is
// ever retrievable again, no matter how fills raced it.
func TestCacheFillPurgeRace(t *testing.T) {
	const (
		generations = 8
		fillers     = 4
		keysPerGen  = 16
	)
	c := NewCache(1024)
	var wg sync.WaitGroup
	for f := 0; f < fillers; f++ {
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			for g := 0; g < generations; g++ {
				for k := 0; k < keysPerGen; k++ {
					key := fmt.Sprintf("g%d/f%d/k%d", g, f, k)
					c.Put(key, g, respBody(key))
					c.Get(key)
				}
			}
		}(f)
	}
	purgedUpTo := generations - 2 // leave the newest generations live
	wg.Add(1)
	go func() {
		defer wg.Done()
		for g := 0; g <= purgedUpTo; g++ {
			c.PurgeGeneration(g)
		}
	}()
	wg.Wait()
	// Quiesced: one final purge pass sweeps entries that were filled
	// before the purger's floor passed them...
	for g := 0; g <= purgedUpTo; g++ {
		c.PurgeGeneration(g)
	}
	// ...after which nothing at or below the floor may remain.
	for g := 0; g <= purgedUpTo; g++ {
		for f := 0; f < fillers; f++ {
			for k := 0; k < keysPerGen; k++ {
				key := fmt.Sprintf("g%d/f%d/k%d", g, f, k)
				if _, ok := c.Get(key); ok {
					t.Fatalf("entry %s survived its generation's purge", key)
				}
			}
		}
	}
	// Late fills for purged generations stay refused forever.
	c.Put("late", purgedUpTo, respBody("late"))
	if _, ok := c.Get("late"); ok {
		t.Fatal("late fill accepted after quiesce")
	}
}

func TestCacheDisabled(t *testing.T) {
	c := NewCache(0)
	if c != nil {
		t.Fatal("capacity 0 should return the nil always-miss cache")
	}
	c.Put("k", 0, respBody("v")) // must not panic
	if _, ok := c.Get("k"); ok {
		t.Fatal("nil cache reported a hit")
	}
	if st := c.Stats(); st != (CacheStats{}) {
		t.Fatalf("nil cache stats = %+v", st)
	}
}
