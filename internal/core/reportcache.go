package core

// Byte-bounded report memoization cache — the serving fast path.
// Production query streams are dominated by repeats: the same scripts,
// or the same scripts modulo literal values. After the parse and
// profile caches, a repeated workload still paid fact extraction, gate
// dispatch, rule evaluation, ranking, and fix synthesis per batch.
// This cache memoizes the finished per-workload report keyed by
//
//	(script fingerprint, db origin ID + version, normalized ruleset,
//	 normalized profile options, statement texts)
//
// Each Engine owns its cache, so what is constant for an engine — its
// analysis configuration apart from the profile options a workload may
// override, its confidence floor, its prefilter switch, and its
// Reporter's configuration (the Checker's ranking weights) — is the
// same for every entry and stays out of the key.
//
// The fingerprint (sqltoken.FingerprintScript) collapses literal,
// whitespace, and case variants onto one value and is the cache's
// index; the statement texts are the equality witness. A lookup is a
// HIT only when the candidate's per-statement texts are byte-identical
// to a resident entry's: detectors and their messages read literal
// values (leading-wildcard LIKE patterns, delimiter lists, password
// literals), so serving one literal-variant's report for another would
// fabricate findings — and the text compare also disarms fingerprint
// collisions outright. Equal-fingerprint lookups that fail the text
// compare are counted separately (VariantMisses) and stored as sibling
// variants, bounded per fingerprint bucket so an unbounded literal
// stream cannot monopolize the budget.
//
// Invalidation is the profile cache's version-counter scheme extended
// to whole databases: storage.Database.Version advances on every DML
// statement of any member table (see storage.Table.bumpVersion). The
// database version is not part of an entry's identity but its version
// in the cache core (lru.go): a lookup after any observable change
// misses, and the re-analyzed report supersedes the dead one in place
// — touching exactly the mutated database's entries, never another
// tenant's, and holding one resident report per script and database
// however many writes arrive. Once a newer version is cached, checking
// an older snapshot of the database runs uncached. Whitespace and
// comments *between* statements may differ on a hit; the consumer
// rebinds finding spans to the submitted text via the ScriptPrint
// offsets.
//
// Eviction is the cache core's (lru.go), and the script-print side
// cache is a second instance of it. A ReportCache is safe for
// concurrent use; its budget is Options.ReportCacheBytes.

import (
	"strings"
	"sync/atomic"

	"sqlcheck/internal/profile"
	"sqlcheck/internal/sqltoken"
)

const (
	// DefaultReportCacheBytes bounds the report cache when
	// Options.ReportCacheBytes is unset (32 MiB of estimated residency;
	// a typical report costs a few KiB, so the default holds thousands
	// of distinct workloads).
	DefaultReportCacheBytes = 32 << 20

	// reportMaxVariants bounds resident text-variants per fingerprint
	// key: a stream of same-shape queries with unique literals (each a
	// distinct variant that will never repeat) can occupy at most this
	// many slots per fingerprint, so it cannot crowd out other keys.
	reportMaxVariants = 4

	// scriptCacheDivisor sizes the script-print side cache relative to
	// the report budget (see ReportCache.script).
	scriptCacheDivisor = 4
)

// reportKey identifies everything besides the statement texts that a
// memoized report depends on and that can vary within one engine. All
// fields are comparable scalars or strings. The cache stores an entry
// under the key with dbVersion cleared and passes dbVersion as the
// entry's version (see identity); flights key on the whole tuple.
type reportKey struct {
	fp        sqltoken.Fingerprint
	dbID      uint64
	dbVersion uint64
	rules     string          // rules.RuleSet.Key(): the normalized ruleset
	profile   profile.Options // the workload's, normalized (Engine.memoProfile)
}

// reportVariantKey is the exact-lookup key: the fingerprint-keyed
// tuple plus the byte-equality witness (statement texts joined with a
// NUL separator, which cannot occur inside a statement).
type reportVariantKey struct {
	key   reportKey
	texts string
}

// identity splits a report key and its texts into the cache core's key
// (the variant key without the database version) and the entry's
// version.
func identity(key reportKey, texts string) (reportVariantKey, uint64) {
	ver := key.dbVersion
	key.dbVersion = 0
	return reportVariantKey{key: key, texts: texts}, ver
}

// ReportCache memoizes finished workload reports keyed by script
// fingerprint, database state, and analysis configuration. Payloads
// are opaque to core — the engine stores what its Options.Reporter
// builds (for the public Checker, a span-free *sqlcheck.Report) — and
// shared read-only. Safe for concurrent use.
type ReportCache struct {
	reports *lru[reportVariantKey, any]
	// variants counts resident entries per fingerprint-keyed tuple at
	// the version each entry holds, and prints counts them per
	// fingerprint. Both are guarded by reports.mu and kept in step with
	// the resident set by its removal callback.
	variants map[reportKey]int
	prints   map[sqltoken.Fingerprint]int

	// scripts memoizes fingerprinting by exact input text, so the
	// per-check probe of a repeated workload is two map lookups
	// instead of a lex of the whole script.
	scripts *lru[string, scriptPrint]

	variantMisses atomic.Int64
}

// scriptPrint is one memoized fingerprint: the immutable ScriptPrint
// plus the NUL-joined statement texts used as the hit witness. It is
// stored by value, so a declined admission allocates nothing.
type scriptPrint struct {
	sp    *sqltoken.ScriptPrint
	texts string
}

// NewReportCache builds a cache bounded by maxBytes of estimated
// report residency (<= 0 means DefaultReportCacheBytes).
func NewReportCache(maxBytes int64) *ReportCache {
	if maxBytes <= 0 {
		maxBytes = DefaultReportCacheBytes
	}
	c := &ReportCache{
		reports:  newLRU[reportVariantKey, any](maxBytes),
		variants: make(map[reportKey]int),
		prints:   make(map[sqltoken.Fingerprint]int),
		scripts:  newLRU[string, scriptPrint](maxBytes / scriptCacheDivisor),
	}
	c.reports.onRemove = func(vk reportVariantKey, ver uint64) {
		key := vk.key
		key.dbVersion = ver
		decrement(c.variants, key)
		decrement(c.prints, key.fp)
	}
	return c
}

// decrement drops one resident entry from a per-key count, deleting
// the key at zero so len(m) counts keys with resident entries.
func decrement[K comparable](m map[K]int, k K) {
	if m[k] <= 1 {
		delete(m, k)
	} else {
		m[k]--
	}
}

// script returns the fingerprinted script for the exact input text,
// memoized: the serving fast path probes the cache on every check
// admission, and re-lexing a repeated multi-statement script would
// dominate its microsecond budget. ScriptPrints are immutable after
// construction and shared across callers; the returned texts string is
// the NUL-joined statement list (the lookup's byte-equality witness).
// The side cache is bounded to a fraction of the report budget;
// entries retain the input string, so the cost estimate is dominated
// by the script bytes themselves.
func (c *ReportCache) script(sql string) (*sqltoken.ScriptPrint, string) {
	if s, ok := c.scripts.get(sql, 0); ok {
		return s.sp, s.texts
	}
	// Fingerprint outside the lock: it is the expensive part.
	sp := sqltoken.FingerprintScript(sql)
	s := scriptPrint{sp: sp, texts: strings.Join(sp.Texts(), "\x00")}
	c.scripts.add(sql, 0, s, int64(2*len(sql))+160)
	return s.sp, s.texts
}

// lookup returns the memoized payload for the key and exact statement
// texts, counting a hit or miss. A miss whose fingerprint tuple has
// resident entries under different texts at the same database version
// (a literal/collision variant) additionally counts a variant miss;
// finding only an older version of the same texts is a plain miss.
func (c *ReportCache) lookup(key reportKey, texts string) (any, bool) {
	c.reports.mu.Lock()
	payload, ok := c.reports.touch(identity(key, texts))
	siblings := 0
	if !ok {
		siblings = c.variants[key]
	}
	c.reports.mu.Unlock()
	c.reports.count(ok)
	if siblings > 0 {
		c.variantMisses.Add(1)
	}
	return payload, ok
}

// recheck is lookup without miss accounting: a would-be flight
// leader's re-probe runs after its admission probe already counted its
// miss, so a second miss here would double-count one pipeline run. A
// hit still counts — the caller really is served from the cache.
func (c *ReportCache) recheck(key reportKey, texts string) (any, bool) {
	c.reports.mu.Lock()
	payload, ok := c.reports.touch(identity(key, texts))
	c.reports.mu.Unlock()
	if ok {
		c.reports.count(true)
	}
	return payload, ok
}

// add memoizes a report under the key and texts, applying the variant
// bound, the supersede rule, and the admission and eviction policy. A
// key whose bucket is full of sibling variants at its version admits
// nothing; LRU pressure frees slots when the resident ones stop being
// used.
func (c *ReportCache) add(key reportKey, texts string, payload any, cost int64) {
	c.reports.mu.Lock()
	defer c.reports.mu.Unlock()
	vk, ver := identity(key, texts)
	if c.variants[key] < reportMaxVariants && c.reports.insert(vk, ver, payload, cost) {
		c.variants[key]++
		c.prints[key.fp]++
	}
}

// ReportCacheStats is a point-in-time snapshot of a report cache:
// lookup counters, eviction count, estimated resident bytes against
// the configured bound, and the fingerprint cardinality gauge. Hits
// served a finished report with no pipeline work; Misses ran the full
// pipeline.
type ReportCacheStats struct {
	CacheStats
	// VariantMisses is the subset of Misses whose fingerprint matched a
	// resident entry but whose statement texts did not (a literal/case
	// variant — bucketed together, served separately, because
	// detectors read literal values).
	VariantMisses int64 `json:"variant_misses"`
	// Fingerprints is the cardinality gauge: distinct script
	// fingerprints with at least one resident report. Entries minus
	// Fingerprints is the resident literal-variant overhead.
	Fingerprints int `json:"fingerprints"`
}

// Stats snapshots the cache counters.
func (c *ReportCache) Stats() ReportCacheStats {
	c.reports.mu.Lock()
	prints := len(c.prints)
	c.reports.mu.Unlock()
	return ReportCacheStats{
		CacheStats:    c.reports.stats(),
		VariantMisses: c.variantMisses.Load(),
		Fingerprints:  prints,
	}
}
