package engine

import (
	"fmt"
	"sync"
	"testing"
)

func TestCacheLRUEviction(t *testing.T) {
	c := newLRUCache(3)
	for i := 1; i <= 3; i++ {
		c.Put(fmt.Sprintf("k%d", i), RawJSON{byte(i)})
	}
	// Touch k1 so k2 becomes the eviction victim.
	if _, ok := c.Get("k1"); !ok {
		t.Fatal("k1 missing before eviction")
	}
	c.Put("k4", RawJSON{4})
	if _, ok := c.Get("k2"); ok {
		t.Error("k2 should have been evicted as least recently used")
	}
	for _, k := range []string{"k1", "k3", "k4"} {
		if _, ok := c.Get(k); !ok {
			t.Errorf("%s should have survived eviction", k)
		}
	}
	if got := c.Len(); got != 3 {
		t.Errorf("Len = %d, want 3", got)
	}
}

func TestCachePutRefreshes(t *testing.T) {
	c := newLRUCache(2)
	c.Put("a", RawJSON{1})
	c.Put("b", RawJSON{2})
	c.Put("a", RawJSON{3}) // refresh both value and recency
	c.Put("c", RawJSON{4}) // evicts b, not a
	if v, ok := c.Get("a"); !ok || v.(RawJSON)[0] != 3 {
		t.Errorf("a = %v, %v; want updated value 3", v, ok)
	}
	if _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted")
	}
}

func TestCacheConcurrent(t *testing.T) {
	c := newLRUCache(16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := fmt.Sprintf("k%d", (g+i)%32)
				c.Put(k, RawJSON(k))
				if v, ok := c.Get(k); ok && string(v.(RawJSON)) != k {
					t.Errorf("got %q for key %q", v, k)
				}
			}
		}(g)
	}
	wg.Wait()
	if got := c.Len(); got > 16 {
		t.Errorf("cache grew to %d entries, cap is 16", got)
	}
}
