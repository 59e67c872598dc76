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
	if _, ok := c.get(key); !ok {
		c.add(key, len(key), cost)
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
		c.add(k, 0, lruCost) // admitted while there is room
	}
	prefix := strings.Repeat("x", 4<<10)
	a, b := prefix+"a", prefix+"b"

	c.add(a, 0, lruCost)
	c.add(b, 0, lruCost) // b's first miss, not a repeat of a
	if st := c.stats(); st.Entries != 2 || st.Evictions != 0 {
		t.Fatalf("first misses while full were admitted: %+v", st)
	}
	c.add(a, 0, lruCost)
	if _, ok := c.get(a); !ok {
		t.Fatal("second miss of a 4 KiB key was not admitted")
	}
	if _, ok := c.get(b); ok {
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
