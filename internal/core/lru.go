package core

// The cache core behind every memo layer: the parse cache (§2a), the
// profile cache (§2e), and the report cache with its script-print side
// cache (§2f) are thin adapters that supply a key, a version, a value,
// and a cost model; the byte budget, recency order, admission policy,
// and counters live here once.
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
// Supersede, don't age out: a key names an identity (a table, a
// database-bound report) and each entry records the version of that
// identity it was computed at. A lookup at any other version misses.
// A store at a newer version replaces the resident entry in place —
// no doorkeeper, counted as superseded rather than evicted — so a
// write's dead result never lingers in the budget; a store at an
// older version is declined, so a slow check of an old snapshot cannot
// overwrite a newer result. Caches whose values never go stale (parse,
// script prints) pass version 0 throughout, and the rule never fires.
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
	// onRemove, when non-nil, runs under mu for every entry that
	// leaves the resident set — evicted, or superseded by a newer
	// version — with the version it held, so an adapter's per-key
	// bookkeeping stays consistent with the resident set.
	onRemove func(K, uint64)

	hits       atomic.Int64
	misses     atomic.Int64
	evictions  atomic.Int64
	superseded atomic.Int64
}

type lruEntry[K comparable, V any] struct {
	key  K
	ver  uint64
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

// get returns the value under k computed at version ver, counting a
// hit or a miss.
func (c *lru[K, V]) get(k K, ver uint64) (V, bool) {
	c.mu.Lock()
	v, ok := c.touch(k, ver)
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

// touch returns the value under k if it was computed at version ver
// and marks it most recently used, counting nothing. The caller holds
// mu.
func (c *lru[K, V]) touch(k K, ver uint64) (V, bool) {
	el, ok := c.entries[k]
	if !ok || el.Value.(*lruEntry[K, V]).ver != ver {
		var zero V
		return zero, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry[K, V]).val, true
}

// add offers v, computed at version ver, under k at the given
// estimated cost to the admission and eviction policy.
func (c *lru[K, V]) add(k K, ver uint64, v V, cost int64) {
	c.mu.Lock()
	c.insert(k, ver, v, cost)
	c.mu.Unlock()
}

// insert applies the supersede rule and the admission and eviction
// policy, and reports whether v became resident. The caller holds mu.
// An entry costlier than the whole budget is never admitted. A
// resident k at the same version (another caller computed the same
// value concurrently) or a newer one is left as it is; at an older
// version it is replaced in place without consulting the doorkeeper.
func (c *lru[K, V]) insert(k K, ver uint64, v V, cost int64) bool {
	if cost > c.maxBytes {
		return false
	}
	if el, ok := c.entries[k]; ok {
		e := el.Value.(*lruEntry[K, V])
		if ver <= e.ver {
			return false
		}
		if c.onRemove != nil {
			c.onRemove(k, e.ver)
		}
		c.bytes += cost - e.cost
		e.ver, e.val, e.cost = ver, v, cost
		c.ll.MoveToFront(el)
		c.superseded.Add(1)
		c.evict(0) // a costlier version may push others out; never itself
		return true
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
		c.evict(cost)
	}
	c.entries[k] = c.ll.PushFront(&lruEntry[K, V]{key: k, ver: ver, val: v, cost: cost})
	c.bytes += cost
	return true
}

// evict drops least-recently used entries until need more bytes fit
// in the budget. The caller holds mu.
func (c *lru[K, V]) evict(need int64) {
	for c.bytes+need > c.maxBytes && c.ll.Len() > 0 {
		victim := c.ll.Remove(c.ll.Back()).(*lruEntry[K, V])
		delete(c.entries, victim.key)
		c.bytes -= victim.cost
		c.evictions.Add(1)
		if c.onRemove != nil {
			c.onRemove(victim.key, victim.ver)
		}
	}
}

// stats snapshots the counters.
func (c *lru[K, V]) stats() CacheStats {
	c.mu.Lock()
	bytes, entries := c.bytes, c.ll.Len()
	c.mu.Unlock()
	return CacheStats{
		Hits:       c.hits.Load(),
		Misses:     c.misses.Load(),
		Evictions:  c.evictions.Load(),
		Superseded: c.superseded.Load(),
		Bytes:      bytes,
		MaxBytes:   c.maxBytes,
		Entries:    entries,
	}
}

// CacheStats is a point-in-time snapshot of cache counters.
type CacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	// Superseded counts resident entries replaced in place by a store
	// at a newer version of their identity (a write's recomputed
	// profile or report); they left the cache without an eviction.
	Superseded int64 `json:"superseded"`
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
