package core

// Byte-bounded table-profile cache — the memoization layer that turns
// the data phase from the pipeline's dominant cost into an integer
// compare for registered databases. A full-phase check against the
// 16-table bench fixture costs ~10⁵ µs of profiling; every batch
// against a registered database used to pay it again even though the
// data had not changed. The cache keys profiles by
//
//	(table origin ID, normalized profile options)
//
// and each entry records the table version it profiled.
// storage.Table.ID is process-unique per created table and inherited
// by snapshots; Table.Version bumps on every row mutation under the
// database single-writer lock and freezes on snapshots. An equal key
// at an equal version therefore means byte-identical row content
// profiled under identical options, and since profiling is
// deterministic (same seed ⇒ same profile, pinned by the profile
// package's equivalence tests and the golden corpus), a hit returns
// exactly the profile a fresh pass would compute. DML invalidates by
// construction: the version moves, the next lookup misses, and the
// re-profiled table supersedes its old entry in place (lru.go) — one
// resident profile per table, so a stream of writes never fills the
// budget with dead versions, and there is no explicit invalidation
// protocol to get wrong. The one cost: once a newer version is
// cached, profiling an older snapshot of the table runs uncached.
//
// Eviction is the cache core's (lru.go): a burst of one-off inline
// databases (each table profiled once, never again) cannot flush the
// resident working set of registered fixtures. Each Engine owns one
// ProfileCache, bounded by DefaultProfileCacheBytes; it is safe for
// concurrent use.

import (
	"sqlcheck/internal/profile"
	"sqlcheck/internal/storage"
)

// DefaultProfileCacheBytes bounds an engine's profile cache (16 MiB of
// estimated residency; a typical multi-column profile costs a few KiB,
// so the budget holds thousands of tables).
const DefaultProfileCacheBytes = 16 << 20

// profileKey identifies a table's profile under given options; the
// table version travels beside it as the entry's version.
// profile.Options is a comparable struct of scalars; it enters the key
// normalized so zero-valued and explicitly-default options share
// entries.
type profileKey struct {
	table uint64
	opts  profile.Options
}

// ProfileCache memoizes table profiles keyed by (table identity,
// profiling options) at the table's version. Cached profiles are
// shared read-only — every consumer of a TableProfile only reads it.
type ProfileCache struct {
	lru *lru[profileKey, *profile.TableProfile]
}

// NewProfileCache builds a cache bounded by maxBytes of estimated
// profile residency (<= 0 means DefaultProfileCacheBytes).
func NewProfileCache(maxBytes int64) *ProfileCache {
	if maxBytes <= 0 {
		maxBytes = DefaultProfileCacheBytes
	}
	return &ProfileCache{lru: newLRU[profileKey, *profile.TableProfile](maxBytes)}
}

func keyFor(t *storage.Table, opts profile.Options) profileKey {
	return profileKey{table: t.ID(), opts: opts.Normalized()}
}

// Lookup returns the memoized profile for the table's current
// identity/version under opts, counting a hit or miss. The caller
// must hold a stable view of the table (a snapshot, or the writer
// lock): reading a live table's version while DML runs is racy.
func (c *ProfileCache) Lookup(t *storage.Table, opts profile.Options) (*profile.TableProfile, bool) {
	return c.lru.get(keyFor(t, opts), t.Version())
}

// Add memoizes a freshly computed profile under the table's current
// identity/version: it supersedes the table's profile at an older
// version, is declined if a newer one is resident, and otherwise goes
// through the admission and eviction policy.
func (c *ProfileCache) Add(t *storage.Table, opts profile.Options, tp *profile.TableProfile) {
	c.lru.add(keyFor(t, opts), t.Version(), tp, tp.MemSize())
}

// Stats snapshots the cache counters.
func (c *ProfileCache) Stats() CacheStats { return c.lru.stats() }
