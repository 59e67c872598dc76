package core

// The named-database registry turns the engine from a per-request
// re-parser into a multi-tenant analysis server: a daemon loads a
// fixture once, registers the live handle under a name, and every
// batch workload that names it profiles a copy-on-write snapshot of
// the current state — DDL/DML runs once at registration, not once per
// request, and concurrent DML on the live handle never skews an
// in-flight analysis.

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"sqlcheck/internal/storage"
	"sqlcheck/internal/storage/wal"
)

// Registry lookup and registration errors. Servers map these to HTTP
// statuses (404 and 409 respectively).
var (
	ErrUnknownDatabase = errors.New("sqlcheck: unknown database")
	ErrDatabaseExists  = errors.New("sqlcheck: database already registered")
)

// Registry is a concurrency-safe name -> live database map with
// resolution counters. It stores live handles; callers that analyze a
// registered database always do so through a Snapshot, never the
// handle itself.
type Registry struct {
	mu  sync.RWMutex
	dbs map[string]*storage.Database
	// store, when attached, makes the registry durable: Register and
	// Unregister write WAL records through it, and the commit hooks it
	// installs log every mutating statement executed against a
	// registered handle. Nil for the default pure in-memory registry.
	store *wal.Store
	// pageCache, when set, adopts every database the registry comes to
	// hold (registered or recovered) so their row pages fall under the
	// engine's resident-byte budget and may spill. Set once at engine
	// construction, before the registry serves.
	pageCache *storage.PageCache
	hits      atomic.Int64
	misses    atomic.Int64
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{dbs: make(map[string]*storage.Database)}
}

// canonName is the key form every registry operation uses, so a name
// that registers is reachable by the same string on lookup and
// delete.
func canonName(name string) string { return strings.TrimSpace(name) }

// SetPageCache routes every future registration (and recovery
// adoption) through the cache. Must be called before the registry
// starts serving; databases already registered are not retrofitted.
func (r *Registry) SetPageCache(c *storage.PageCache) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.pageCache = c
}

// Register adds a live database under a name. Names are exact-match
// (after trimming surrounding space, consistently with every lookup);
// registering an existing name fails with ErrDatabaseExists rather
// than silently replacing the handle out from under in-flight
// workloads.
func (r *Registry) Register(name string, db *storage.Database) error {
	name = canonName(name)
	if name == "" {
		return errors.New("sqlcheck: database name required")
	}
	if db == nil {
		return errors.New("sqlcheck: nil database")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.dbs[name]; ok {
		return fmt.Errorf("%w: %q", ErrDatabaseExists, name)
	}
	// The name usually comes from a request; a copy lets that go.
	name = strings.Clone(name)
	if r.store != nil {
		// Durable-first: the register record (full encoded state) must
		// be on disk before the name resolves, or a crash between the
		// two could acknowledge a tenant that recovery cannot rebuild.
		if err := r.store.Register(name, db); err != nil {
			return fmt.Errorf("sqlcheck: registering %q durably: %w", name, err)
		}
	}
	if r.pageCache != nil {
		// Adopt only after the durable register succeeded: adoption may
		// spill pages immediately, and spill files are transient — the
		// WAL record is the durable copy the adoption relies on.
		r.pageCache.Adopt(db)
	}
	r.dbs[name] = db
	return nil
}

// Unregister removes a name; reports whether it was registered.
// Workloads already holding a snapshot are unaffected.
func (r *Registry) Unregister(name string) bool {
	name = canonName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	db, ok := r.dbs[name]
	if !ok {
		return false
	}
	if r.store != nil {
		// Appends the unregister record under the database writer lock,
		// so it serializes after every in-flight statement's exec
		// record, and uninstalls the commit hook.
		r.store.Unregister(name, db)
	}
	delete(r.dbs, name)
	return true
}

// AttachStore makes the registry durable: it adopts the tenants the
// store recovered (commit hooks already installed) and routes every
// subsequent Register/Unregister through the store. Must be called
// before the registry starts serving.
func (r *Registry) AttachStore(s *wal.Store, recovered map[string]*storage.Database) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.store = s
	for name, db := range recovered {
		if r.pageCache != nil {
			r.pageCache.Adopt(db)
		}
		r.dbs[canonName(name)] = db
	}
}

// Store returns the attached durability store, or nil for a pure
// in-memory registry.
func (r *Registry) Store() *wal.Store {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.store
}

// Get returns the live handle for a name without touching the
// hit/miss counters — the management path (info endpoints, tests),
// not workload resolution.
func (r *Registry) Get(name string) (*storage.Database, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	db, ok := r.dbs[canonName(name)]
	return db, ok
}

// Resolve returns the live handle for a workload's database name,
// counting the lookup as a hit or miss. A miss fails with
// ErrUnknownDatabase (wrapped with the name).
func (r *Registry) Resolve(name string) (*storage.Database, error) {
	r.mu.RLock()
	db, ok := r.dbs[canonName(name)]
	r.mu.RUnlock()
	if !ok {
		r.misses.Add(1)
		return nil, fmt.Errorf("%w: %q", ErrUnknownDatabase, name)
	}
	r.hits.Add(1)
	return db, nil
}

// Names returns the registered names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.dbs))
	for name := range r.dbs {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// RegistryStats snapshots the registry's counters.
type RegistryStats struct {
	// Databases is the number of currently registered databases.
	Databases int `json:"databases"`
	// Hits and Misses count workload name resolutions. Every hit is a
	// fixture whose DDL/DML did not re-execute for that request.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
}

// Stats snapshots the registry counters.
func (r *Registry) Stats() RegistryStats {
	r.mu.RLock()
	n := len(r.dbs)
	r.mu.RUnlock()
	return RegistryStats{Databases: n, Hits: r.hits.Load(), Misses: r.misses.Load()}
}
