package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// lruCost is the uniform entry cost the policy tests use, so budgets
// read as entry counts.
const lruCost = 100

func lruKeys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("key-%04d", i)
	}
	return out
}

// readThrough looks key up and offers it on a miss, as every adapter
// does.
func readThrough(c *lru[string, int], key string, cost int64) {
	if _, ok := c.get(key, 0); !ok {
		c.add(key, 0, len(key), cost)
	}
}

// TestLRURoundRobinHitRate is the regression test for the old
// reset-at-capacity cache's pathological case: a round-robin workload
// of 2x capacity distinct keys used to miss on every pass (and strict
// LRU would too — cyclic scans are its worst case). The admission
// doorkeeper must keep part of the working set resident, so later
// passes hit.
func TestLRURoundRobinHitRate(t *testing.T) {
	keys := lruKeys(64)
	c := newLRU[string, int](32 * lruCost)
	for pass := 0; pass < 4; pass++ {
		for _, k := range keys {
			readThrough(c, k, lruCost)
		}
	}
	st := c.stats()
	if st.Hits == 0 {
		t.Fatalf("round-robin workload of 2x capacity produced zero hits: %+v", st)
	}
	if rate := st.HitRate(); rate < 0.2 {
		t.Errorf("hit rate = %.3f, want >= 0.2 on the retained half; stats %+v", rate, st)
	}
	if st.Bytes > st.MaxBytes {
		t.Errorf("resident bytes %d exceed bound %d", st.Bytes, st.MaxBytes)
	}
}

// TestLRUEvictsWithinBudget verifies the byte bound holds under a
// stream of repeated misses and that evictions are counted.
func TestLRUEvictsWithinBudget(t *testing.T) {
	keys := lruKeys(48)
	c := newLRU[string, int](8 * lruCost)
	// Two passes: the first fills and primes the doorkeeper, the
	// second forces admissions (repeated misses) and thus evictions.
	for pass := 0; pass < 2; pass++ {
		for _, k := range keys {
			readThrough(c, k, lruCost)
		}
	}
	st := c.stats()
	if st.Evictions == 0 {
		t.Errorf("no evictions recorded: %+v", st)
	}
	if st.Bytes > st.MaxBytes {
		t.Errorf("resident bytes %d exceed budget %d", st.Bytes, st.MaxBytes)
	}
}

// TestLRUOversizedEntry: an entry costlier than the whole budget is
// never admitted, not even on a repeated miss.
func TestLRUOversizedEntry(t *testing.T) {
	c := newLRU[string, int](256)
	for i := 0; i < 3; i++ {
		readThrough(c, "huge", 1024)
	}
	if st := c.stats(); st.Entries != 0 || st.Bytes != 0 || st.Misses != 3 {
		t.Errorf("oversized entry was admitted: %+v", st)
	}
}

// TestLRUDoorkeeperLargeKeys: the doorkeeper remembers hashes of whole
// keys, so a key far larger than a hash still admits on its second
// miss, and keys differing only in their last byte stay distinct.
func TestLRUDoorkeeperLargeKeys(t *testing.T) {
	c := newLRU[string, int](2 * lruCost)
	for _, k := range lruKeys(2) {
		c.add(k, 0, 0, lruCost) // admitted while there is room
	}
	prefix := strings.Repeat("x", 4<<10)
	a, b := prefix+"a", prefix+"b"

	c.add(a, 0, 0, lruCost)
	c.add(b, 0, 0, lruCost) // b's first miss, not a repeat of a
	if st := c.stats(); st.Entries != 2 || st.Evictions != 0 {
		t.Fatalf("first misses while full were admitted: %+v", st)
	}
	c.add(a, 0, 0, lruCost)
	if _, ok := c.get(a, 0); !ok {
		t.Fatal("second miss of a 4 KiB key was not admitted")
	}
	if _, ok := c.get(b, 0); ok {
		t.Fatal("key admitted on its first miss")
	}
	if st := c.stats(); st.Entries != 2 || st.Evictions != 1 {
		t.Errorf("stats = %+v, want 2 entries after 1 eviction", st)
	}
}

// TestLRUConcurrent hammers one cache from many goroutines;
// meaningful under -race.
func TestLRUConcurrent(t *testing.T) {
	keys := lruKeys(32)
	c := newLRU[string, int](16 * lruCost)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				readThrough(c, keys[(g+i)%len(keys)], lruCost)
			}
		}(g)
	}
	wg.Wait()
	st := c.stats()
	if st.Hits+st.Misses != 8*200 {
		t.Errorf("lookups = %d, want %d", st.Hits+st.Misses, 8*200)
	}
	if st.Bytes > st.MaxBytes {
		t.Errorf("resident bytes %d exceed bound %d", st.Bytes, st.MaxBytes)
	}
}

// residentBytes sums the costs of the resident entries, the figure
// the cache's bytes counter must always equal.
func residentBytes[K comparable, V any](c *lru[K, V]) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var n int64
	for el := c.ll.Front(); el != nil; el = el.Next() {
		n += el.Value.(*lruEntry[K, V]).cost
	}
	return n
}

// TestLRUVersionedLookup: an entry answers only lookups at the version
// it was computed at; an older or a newer version misses.
func TestLRUVersionedLookup(t *testing.T) {
	c := newLRU[string, int](4 * lruCost)
	c.add("t", 2, 20, lruCost)
	for _, ver := range []uint64{1, 3} {
		if _, ok := c.get("t", ver); ok {
			t.Errorf("lookup at version %d hit the version-2 entry", ver)
		}
	}
	if v, ok := c.get("t", 2); !ok || v != 20 {
		t.Fatalf("lookup at the stored version = %d, %v; want 20, true", v, ok)
	}
	if st := c.stats(); st.Hits != 1 || st.Misses != 2 {
		t.Errorf("stats = %+v, want 1 hit and 2 misses", st)
	}
}

// TestLRUSupersedeInFullCache: a store at a newer version replaces the
// resident entry in place even when the cache is full and the
// doorkeeper has never seen the store — the entry count holds, bytes
// track the new cost, and it counts as superseded, not evicted. A
// costlier new version pushes out least-recently used neighbours, never
// itself.
func TestLRUSupersedeInFullCache(t *testing.T) {
	keys := lruKeys(4)
	c := newLRU[string, int](4 * lruCost)
	for _, k := range keys {
		c.add(k, 1, 1, lruCost)
	}
	c.add(keys[0], 2, 2, lruCost)
	if v, ok := c.get(keys[0], 2); !ok || v != 2 {
		t.Fatalf("newer version not resident after one store into a full cache: %d, %v", v, ok)
	}
	st := c.stats()
	if st.Entries != 4 || st.Bytes != 4*lruCost || st.Superseded != 1 || st.Evictions != 0 {
		t.Fatalf("stats = %+v, want 4 entries, %d bytes, 1 superseded, 0 evictions", st, 4*lruCost)
	}

	// keys[1] is now the least recently used; a version twice as
	// costly evicts it and nothing else.
	c.add(keys[0], 3, 3, 2*lruCost)
	st = c.stats()
	if st.Entries != 3 || st.Bytes != 4*lruCost || st.Superseded != 2 || st.Evictions != 1 {
		t.Fatalf("stats = %+v, want 3 entries, %d bytes, 2 superseded, 1 eviction", st, 4*lruCost)
	}
	if _, ok := c.get(keys[1], 1); ok {
		t.Error("least recently used neighbour survived a costlier supersede")
	}
	if v, ok := c.get(keys[0], 3); !ok || v != 3 {
		t.Errorf("superseding entry lost: %d, %v", v, ok)
	}
	if got := residentBytes(c); got != c.stats().Bytes {
		t.Errorf("bytes counter %d != summed resident costs %d", c.stats().Bytes, got)
	}
}

// TestLRUOlderStoreDeclined: a store computed at an older version than
// the resident entry leaves the newer entry in place.
func TestLRUOlderStoreDeclined(t *testing.T) {
	c := newLRU[string, int](4 * lruCost)
	c.add("t", 3, 30, lruCost)
	c.add("t", 2, 20, 2*lruCost)
	if v, ok := c.get("t", 3); !ok || v != 30 {
		t.Fatalf("newer entry replaced by an older store: %d, %v", v, ok)
	}
	if _, ok := c.get("t", 2); ok {
		t.Error("declined older version became resident")
	}
	if st := c.stats(); st.Entries != 1 || st.Bytes != lruCost || st.Superseded != 0 {
		t.Errorf("stats = %+v, want 1 entry of %d bytes, nothing superseded", st, lruCost)
	}
}

// TestLRUVersionlessUnchanged: a cache that always passes version 0
// keeps the first value stored under a key — a concurrent recompute of
// the same value is dropped — and never counts a supersede.
func TestLRUVersionlessUnchanged(t *testing.T) {
	c := newLRU[string, int](4 * lruCost)
	c.add("k", 0, 1, lruCost)
	c.add("k", 0, 2, 3*lruCost)
	if v, ok := c.get("k", 0); !ok || v != 1 {
		t.Fatalf("version-less lookup = %d, %v; want the first value", v, ok)
	}
	if st := c.stats(); st.Entries != 1 || st.Bytes != lruCost || st.Superseded != 0 || st.Evictions != 0 {
		t.Errorf("stats = %+v, want 1 entry of %d bytes, nothing superseded or evicted", st, lruCost)
	}
}
