package core

// Shared, byte-bounded parse cache. The engine's original cache was a
// per-Checker map that reset wholesale at a fixed entry count, which
// is pathological for workloads slightly larger than the capacity: a
// round-robin pass over >cap distinct statements evicted everything
// before any entry was reused, so every pass re-parsed the entire
// workload. ParseCache keys the cache core (lru.go) by statement text,
// so a cyclic scan past the budget still hits on the half the
// doorkeeper keeps resident.
//
// A ParseCache is safe for concurrent use and is designed to be
// shared process-wide: every Engine (and therefore every Checker and
// the sqlcheckd daemon) can point at one cache through
// Options.SharedCache, so repeated statements across tenants,
// requests, and batches parse once per process.

import (
	"strings"

	"sqlcheck/internal/parser"
	"sqlcheck/internal/sqlast"
)

const (
	// DefaultParseCacheBytes bounds an engine-private cache when no
	// shared cache is injected (32 MiB of estimated residency).
	DefaultParseCacheBytes = 32 << 20

	// astExpansionFactor and entryOverheadBytes model an entry's
	// resident cost from its only cheap observable, the statement
	// text. An entry holds a copy of the text, the AST's node structs
	// and per-node slices, and the LRU's map and list bookkeeping, and
	// pins nothing else (see Parse), so the estimate bounds what the
	// cache retains: TestParseCacheResidencyWithinBudget measures a
	// full cache's live heap at about 0.9x the summed estimate on
	// corpus statements.
	astExpansionFactor = 8
	entryOverheadBytes = 192
)

// entryCost estimates the resident bytes of one cache entry.
func entryCost(text string) int64 {
	return int64(len(text))*astExpansionFactor + entryOverheadBytes
}

// ParseCache memoizes parsed statements keyed by their exact text.
// Cached ASTs are shared read-only: every consumer (fact extraction,
// schema building, rules, the fix engine) either only reads the AST
// or copies the statement before rewriting it.
type ParseCache struct {
	lru *lru[string, sqlast.Statement]
}

// NewParseCache builds a cache bounded by maxBytes of estimated
// residency (<= 0 means DefaultParseCacheBytes).
func NewParseCache(maxBytes int64) *ParseCache {
	if maxBytes <= 0 {
		maxBytes = DefaultParseCacheBytes
	}
	return &ParseCache{lru: newLRU[string, sqlast.Statement](maxBytes)}
}

// Parse returns the cached AST for the statement text, parsing and
// (policy permitting) admitting it on a miss. A miss parses a copy of
// text and keys the entry by it: text is usually a substring of a
// request's script, and an entry whose key or AST strings pointed into
// it would keep the whole script alive while the entry stays resident.
func (c *ParseCache) Parse(text string) sqlast.Statement {
	if stmt, ok := c.lru.get(text, 0); ok {
		return stmt
	}
	text = strings.Clone(text)
	stmt := parser.Parse(text)
	c.lru.add(text, 0, stmt, entryCost(text))
	return stmt
}

// Stats snapshots the cache counters.
func (c *ParseCache) Stats() CacheStats { return c.lru.stats() }
