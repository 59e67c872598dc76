package core

// The cache core behind every memo layer: the parse cache (§2a), the
// profile cache (§2e), and the report cache with its script-print side
// cache (§2f) are thin adapters that supply a key, a value, and a cost
// model; the byte budget, recency order, admission policy, and
// counters live here once.
//
// Eviction is LRU bounded by estimated resident bytes, with a
// frequency doorkeeper on admission: while the cache has room every
// miss is admitted, but once it is full a key missed for the first
// time is only remembered, and a repeated miss evicts least-recently
// used entries to make room. On a cyclic scan of twice the budget —
// strict LRU's worst case, zero hits — the doorkeeper keeps roughly
// half the working set resident, and a burst of one-off keys cannot
// flush entries that are still being reused.
//
// The doorkeeper remembers 64-bit maphash hashes, not keys, so it
// costs one word per remembered miss whatever the key's size (report
// keys carry every statement's text). A collision can only admit an
// entry one miss early; lookups compare whole keys, so it never
// changes what a lookup returns.

import (
	"container/list"
	"hash/maphash"
	"sync"
	"sync/atomic"
)

// doorkeeperMax bounds the admission filter's memory: when it holds
// this many hashes it resets. The filter only needs to remember the
// recent past to tell a repeated miss from a one-off.
const doorkeeperMax = 1 << 14

// lru is a mutex-guarded LRU map bounded by the summed estimated cost
// of its entries. Values are shared read-only with every caller.
type lru[K comparable, V any] struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	ll       *list.List // front = most recently used; Value is *lruEntry[K, V]
	entries  map[K]*list.Element
	seen     map[uint64]struct{} // doorkeeper: hashes of keys missed once while full
	seed     maphash.Seed
	// onEvict, when non-nil, runs under mu for every evicted key, so
	// an adapter's per-key bookkeeping stays consistent with the
	// resident set.
	onEvict func(K)

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

type lruEntry[K comparable, V any] struct {
	key  K
	val  V
	cost int64
}

func newLRU[K comparable, V any](maxBytes int64) *lru[K, V] {
	return &lru[K, V]{
		maxBytes: maxBytes,
		ll:       list.New(),
		entries:  make(map[K]*list.Element),
		seen:     make(map[uint64]struct{}),
		seed:     maphash.MakeSeed(),
	}
}

// get returns the value under k, counting a hit or a miss.
func (c *lru[K, V]) get(k K) (V, bool) {
	c.mu.Lock()
	v, ok := c.touch(k)
	c.mu.Unlock()
	c.count(ok)
	return v, ok
}

// count records one lookup's outcome.
func (c *lru[K, V]) count(hit bool) {
	if hit {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
}

// touch returns the value under k and marks it most recently used,
// counting nothing. The caller holds mu.
func (c *lru[K, V]) touch(k K) (V, bool) {
	el, ok := c.entries[k]
	if !ok {
		var zero V
		return zero, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry[K, V]).val, true
}

// add offers v under k at the given estimated cost to the admission
// and eviction policy.
func (c *lru[K, V]) add(k K, v V, cost int64) {
	c.mu.Lock()
	c.insert(k, v, cost)
	c.mu.Unlock()
}

// insert applies the admission and eviction policy and reports whether
// v became resident. The caller holds mu. An entry costlier than the
// whole budget is never admitted, and a resident k (another caller
// computed the same value concurrently) is left as it is.
func (c *lru[K, V]) insert(k K, v V, cost int64) bool {
	if cost > c.maxBytes {
		return false
	}
	if _, ok := c.entries[k]; ok {
		return false
	}
	if c.bytes+cost > c.maxBytes {
		h := maphash.Comparable(c.seed, k)
		if _, repeated := c.seen[h]; !repeated {
			if len(c.seen) >= doorkeeperMax {
				clear(c.seen)
			}
			c.seen[h] = struct{}{}
			return false
		}
		delete(c.seen, h)
		for c.bytes+cost > c.maxBytes && c.ll.Len() > 0 {
			victim := c.ll.Remove(c.ll.Back()).(*lruEntry[K, V])
			delete(c.entries, victim.key)
			c.bytes -= victim.cost
			c.evictions.Add(1)
			if c.onEvict != nil {
				c.onEvict(victim.key)
			}
		}
	}
	c.entries[k] = c.ll.PushFront(&lruEntry[K, V]{key: k, val: v, cost: cost})
	c.bytes += cost
	return true
}

// stats snapshots the counters.
func (c *lru[K, V]) stats() CacheStats {
	c.mu.Lock()
	bytes, entries := c.bytes, c.ll.Len()
	c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Bytes:     bytes,
		MaxBytes:  c.maxBytes,
		Entries:   entries,
	}
}

// CacheStats is a point-in-time snapshot of cache counters.
type CacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	// Bytes is the estimated resident size, MaxBytes the bound.
	Bytes    int64 `json:"bytes"`
	MaxBytes int64 `json:"max_bytes"`
	Entries  int   `json:"entries"`
}

// HitRate returns hits/(hits+misses), 0 when no lookups happened.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}
