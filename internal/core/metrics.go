package core

// Engine observability: per-phase latency histograms and pool
// saturation counters, cheap enough to stay on in production (atomic
// adds on the pipeline's phase boundaries, not per statement). The
// daemon's /metrics endpoint renders these snapshots; nothing here
// depends on a metrics library.

import (
	"sync/atomic"
	"time"

	"sqlcheck/internal/storage"
)

// Pipeline phase names, in execution order. Each workload passes
// through all of them; profile is skipped (zero observations) when no
// database is attached.
const (
	PhaseParse      = "parse"       // tokenize + parse + fact extraction
	PhaseProfile    = "profile"     // per-table data profiling fan-out
	PhaseContext    = "context"     // application-context build
	PhaseQueryRules = "query_rules" // gated per-statement rule evaluation
	PhaseGlobal     = "global"      // schema + data rules, dedupe, ordering
)

// phaseNames fixes the snapshot order.
var phaseNames = []string{PhaseParse, PhaseProfile, PhaseContext, PhaseQueryRules, PhaseGlobal}

// phaseBounds are the phase histograms' bucket upper bounds in
// seconds (powers of four from 1µs to ~4s). Log-spaced buckets keep
// the histogram useful from single-statement parses to multi-table
// profile phases.
var phaseBounds = []float64{
	1e-6, 4e-6, 16e-6, 64e-6, 256e-6,
	1024e-6, 4096e-6, 16384e-6, 65536e-6, 262144e-6,
	1.048576, 4.194304,
}

// Histogram is a fixed-bucket latency histogram with atomic counters:
// an observation is a bucket scan and three atomic adds, with no
// allocation, so it can stay on in production.
type Histogram struct {
	bounds   []float64      // ascending bucket upper bounds, seconds
	buckets  []atomic.Int64 // one per bound, plus the +Inf overflow
	sumNanos atomic.Int64
	count    atomic.Int64
}

// NewHistogram builds a histogram with the given ascending bucket
// upper bounds in seconds; an implicit +Inf bucket catches the rest.
func NewHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, buckets: make([]atomic.Int64, len(bounds)+1)}
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	secs := d.Seconds()
	i := 0
	for i < len(h.bounds) && secs > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.sumNanos.Add(int64(d))
	h.count.Add(1)
}

// Bucket is one cumulative histogram bucket: Count observations took
// at most LE seconds (LE < 0 encodes +Inf).
type Bucket struct {
	LE    float64 `json:"le"`
	Count int64   `json:"count"`
}

// Snapshot returns the buckets, cumulative Prometheus-style (the
// final entry, LE < 0 for +Inf, counts every observation), the sum of
// the observations in seconds, and their count.
func (h *Histogram) Snapshot() (buckets []Bucket, sumSeconds float64, count int64) {
	buckets = make([]Bucket, 0, len(h.buckets))
	var cum int64
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		le := -1.0
		if i < len(h.bounds) {
			le = h.bounds[i]
		}
		buckets = append(buckets, Bucket{LE: le, Count: cum})
	}
	return buckets, float64(h.sumNanos.Load()) / float64(time.Second), h.count.Load()
}

// PhaseStats snapshots one phase's latency histogram.
type PhaseStats struct {
	Phase string `json:"phase"`
	// Count is the number of observations (workloads that ran the
	// phase) and SumSeconds their total wall time.
	Count      int64   `json:"count"`
	SumSeconds float64 `json:"sum_seconds"`
	// Buckets are cumulative, Prometheus-style: each entry counts
	// observations <= LE seconds; the final entry (LE < 0, +Inf)
	// equals Count.
	Buckets []Bucket `json:"buckets"`
}

// phaseSet holds one histogram per pipeline phase.
type phaseSet struct {
	hists map[string]*Histogram
}

func newPhaseSet() *phaseSet {
	ps := &phaseSet{hists: make(map[string]*Histogram, len(phaseNames))}
	for _, n := range phaseNames {
		ps.hists[n] = NewHistogram(phaseBounds)
	}
	return ps
}

// observe times are recorded by the pipeline at phase boundaries.
func (ps *phaseSet) observe(phase string, d time.Duration) {
	if h, ok := ps.hists[phase]; ok {
		h.Observe(d)
	}
}

func (ps *phaseSet) snapshot() []PhaseStats {
	out := make([]PhaseStats, 0, len(phaseNames))
	for _, n := range phaseNames {
		buckets, sum, count := ps.hists[n].Snapshot()
		out = append(out, PhaseStats{Phase: n, Count: count, SumSeconds: sum, Buckets: buckets})
	}
	return out
}

// PoolStats snapshots a worker pool: Size is the bound, InUse the
// slots held at snapshot time (InUse/Size is the saturation gauge),
// Tasks the cumulative slot acquisitions.
type PoolStats struct {
	Size  int   `json:"size"`
	InUse int   `json:"in_use"`
	Tasks int64 `json:"tasks"`
}

// EngineMetrics is a point-in-time snapshot of an engine's
// observability counters.
type EngineMetrics struct {
	// Cache describes the parse cache (shared across engines when
	// injected via Options.SharedCache).
	Cache CacheStats `json:"cache"`
	// ProfileCache describes the table-profile memoization cache
	// (shared across engines when injected via
	// Options.SharedProfileCache). Every hit is a table whose data
	// phase was an integer compare instead of a sampling pass.
	ProfileCache CacheStats `json:"profile_cache"`
	// ReportCache describes the report memoization cache (shared
	// across engines when injected via Options.SharedReportCache).
	// Every hit is a workload served without running any pipeline
	// phase at all; Fingerprints is the resident-cardinality gauge.
	ReportCache ReportCacheStats `json:"report_cache"`
	// Pool is the worker pool bounding concurrently analyzing
	// workloads: one task per analyzed workload plus one per helper
	// that joined a workload's per-table profiling. Report-cache hits
	// and coalesced duplicates take no slot.
	Pool PoolStats `json:"pool"`
	// Registry counts named-database registrations and workload
	// resolutions against them.
	Registry RegistryStats `json:"registry"`
	// Snapshots counts copy-on-write database snapshots taken for
	// profiling isolation (one per database-attached workload).
	Snapshots int64 `json:"snapshots"`
	// Skips counts pipeline work elided by demand planning: stages
	// that did not run because no enabled rule needed them.
	Skips PhaseSkipStats `json:"skips"`
	// Coalesce counts workloads served without a pipeline run because
	// they joined the flight of an identical workload, from the same
	// batch or another. Zero when Options.NoCoalesce is set.
	Coalesce CoalesceStats `json:"coalesce"`
	// RulePanics counts rule-detector panics recovered into
	// per-workload errors. Nonzero means a registered rule is buggy;
	// the panicking workloads got errors, everything else kept
	// serving.
	RulePanics int64 `json:"rule_panics"`
	// Phases holds per-phase latency histograms in pipeline order.
	Phases []PhaseStats `json:"phases"`
	// Durability snapshots the WAL/checkpoint counters when the engine
	// was opened with a data directory; nil for in-memory engines.
	Durability *DurabilityStats `json:"durability,omitempty"`
	// PageCache snapshots the spill-capable page cache bounding
	// registered databases' resident row-page bytes; nil when
	// Options.PageCacheBytes was zero (all pages heap-resident).
	PageCache *storage.PageCacheStats `json:"page_cache,omitempty"`
}

// CoalesceStats counts pipeline runs avoided by statement coalescing:
// cold workloads that joined the flight of another with the same
// report identity (fingerprint, byte-identical texts, database state,
// configuration) and shared its result. Both counters are per avoided
// workload: a batch of eight identical statements adds seven to
// InBatch.
type CoalesceStats struct {
	// InBatch counts workloads served by a flight a workload of their
	// own batch led.
	InBatch int64 `json:"in_batch"`
	// Singleflight counts workloads served by a flight another batch
	// led — the cold-miss stampede case — even when they had twins in
	// their own batch.
	Singleflight int64 `json:"singleflight"`
	// OpenFlights is the flight registry's current size: cold
	// analyses in flight right now. Every flight lands before the
	// batch that opened it returns, so it is zero whenever no batch is
	// running.
	OpenFlights int64 `json:"open_flights"`
}

// PhaseSkipStats counts workloads whose compiled rule set let the
// engine elide pipeline work. Each counter is per workload, so
// (Skips.Profile + profile-phase Count) tracks database-attached
// inter-mode workloads.
type PhaseSkipStats struct {
	// Profile counts database-attached workloads analyzed without
	// table profiling (no enabled rule consumes data profiles).
	Profile int64 `json:"profile"`
	// Snapshot counts database-attached workloads analyzed without a
	// copy-on-write snapshot: no enabled rule touches the database at
	// all (implying a Profile skip too), or intra mode never builds
	// schema or profiles.
	Snapshot int64 `json:"snapshot"`
	// InterQuery counts inter-mode workloads that ran no inter-query
	// (schema-scoped) rules.
	InterQuery int64 `json:"inter_query"`
}

// Metrics snapshots the engine's caches, pool, registry counters, and
// phase histograms.
func (e *Engine) Metrics() EngineMetrics {
	return EngineMetrics{
		Cache:        e.cache.Stats(),
		ProfileCache: e.profiles.Stats(),
		ReportCache:  e.reports.Stats(),
		Pool:         e.pool.Stats(),
		Registry:     e.registry.Stats(),
		Snapshots:    e.snapshots.Load(),
		Skips: PhaseSkipStats{
			Profile:    e.skips.profile.Load(),
			Snapshot:   e.skips.snapshot.Load(),
			InterQuery: e.skips.interQuery.Load(),
		},
		Coalesce: CoalesceStats{
			InBatch:      e.coalesce.inBatch.Load(),
			Singleflight: e.coalesce.singleflight.Load(),
			OpenFlights:  int64(e.openFlights()),
		},
		RulePanics: e.rulePanics.Load(),
		Phases:     e.phases.snapshot(),
		Durability: e.durabilityStats(),
		PageCache:  e.pageCacheStats(),
	}
}

// pageCacheStats snapshots the page cache, or nil without one.
func (e *Engine) pageCacheStats() *storage.PageCacheStats {
	if e.pageCache == nil {
		return nil
	}
	st := e.pageCache.Stats()
	return &st
}
