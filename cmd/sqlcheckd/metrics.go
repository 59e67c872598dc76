package main

// Prometheus text-format rendering of the checker's metrics snapshot.
// Hand-rolled on purpose: the exposition format is a dozen lines of
// printf and not worth a client-library dependency for one endpoint.

import (
	"fmt"
	"io"
	"runtime/metrics"

	"sqlcheck/internal/core"
)

// RuntimeStats holds the Go runtime's cumulative allocation and GC
// counters. Allocation counts do not move with host load the way
// timings do, so a load run can divide their deltas by its operations.
type RuntimeStats struct {
	HeapAllocObjects int64 `json:"heap_alloc_objects"`
	HeapAllocBytes   int64 `json:"heap_alloc_bytes"`
	GCCycles         int64 `json:"gc_cycles"`
}

// readRuntimeStats reads the counters once per /metrics scrape; no
// request path calls it.
func readRuntimeStats() RuntimeStats {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	return RuntimeStats{
		HeapAllocObjects: int64(s[0].Value.Uint64()),
		HeapAllocBytes:   int64(s[1].Value.Uint64()),
		GCCycles:         int64(s[2].Value.Uint64()),
	}
}

// writePrometheus renders the snapshot in Prometheus text exposition
// format (version 0.0.4). Metric names and semantics are documented
// in DESIGN.md's /metrics reference.
func writePrometheus(w io.Writer, m MetricsResponse) {
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	// histogram renders one series of a histogram family; label, when
	// set, is a rendered name="value" pair that precedes le.
	histogram := func(name, label string, buckets []core.Bucket, sum float64, count int64) {
		sel, lead := "", ""
		if label != "" {
			sel, lead = "{"+label+"}", label+","
		}
		for _, b := range buckets {
			le := "+Inf"
			if b.LE >= 0 {
				le = fmt.Sprintf("%g", b.LE)
			}
			fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n", name, lead, le, b.Count)
		}
		fmt.Fprintf(w, "%s_sum%s %g\n", name, sel, sum)
		fmt.Fprintf(w, "%s_count%s %d\n", name, sel, count)
	}

	counter("sqlcheck_cache_hits_total", "Parse cache hits.", m.Cache.Hits)
	counter("sqlcheck_cache_misses_total", "Parse cache misses.", m.Cache.Misses)
	counter("sqlcheck_cache_evictions_total", "Parse cache evictions.", m.Cache.Evictions)
	gauge("sqlcheck_cache_bytes", "Estimated resident bytes in the parse cache.", m.Cache.Bytes)
	gauge("sqlcheck_cache_max_bytes", "Parse cache byte budget.", m.Cache.MaxBytes)
	gauge("sqlcheck_cache_entries", "Entries resident in the parse cache.", int64(m.Cache.Entries))
	fmt.Fprintf(w, "# HELP sqlcheck_cache_hit_rate Hits over lookups since start.\n# TYPE sqlcheck_cache_hit_rate gauge\nsqlcheck_cache_hit_rate %g\n",
		m.Cache.HitRate())

	counter("sqlcheck_profile_cache_hits_total", "Table-profile cache hits (tables whose data phase skipped sampling entirely).", m.ProfileCache.Hits)
	counter("sqlcheck_profile_cache_misses_total", "Table-profile cache misses (tables profiled from scratch).", m.ProfileCache.Misses)
	counter("sqlcheck_profile_cache_evictions_total", "Table-profile cache LRU evictions.", m.ProfileCache.Evictions)
	counter("sqlcheck_profile_cache_superseded_total", "Profiles replaced in place by their table's re-profiled newer version (at most one per write; not evictions).", m.ProfileCache.Superseded)
	gauge("sqlcheck_profile_cache_bytes", "Estimated resident bytes of memoized table profiles.", m.ProfileCache.Bytes)
	gauge("sqlcheck_profile_cache_max_bytes", "Profile cache byte budget.", m.ProfileCache.MaxBytes)
	gauge("sqlcheck_profile_cache_entries", "Profiles resident in the cache.", int64(m.ProfileCache.Entries))
	fmt.Fprintf(w, "# HELP sqlcheck_profile_cache_hit_rate Hits over lookups since start.\n# TYPE sqlcheck_profile_cache_hit_rate gauge\nsqlcheck_profile_cache_hit_rate %g\n",
		m.ProfileCache.HitRate())

	counter("sqlcheck_report_cache_hits_total", "Report cache hits (workloads served a memoized report with no pipeline work).", m.ReportCache.Hits)
	counter("sqlcheck_report_cache_misses_total", "Report cache misses (workloads that ran the full pipeline).", m.ReportCache.Misses)
	counter("sqlcheck_report_cache_variant_misses_total", "Misses whose script fingerprint matched a resident entry but whose statement texts did not (literal/case variants).", m.ReportCache.VariantMisses)
	counter("sqlcheck_report_cache_evictions_total", "Report cache LRU evictions.", m.ReportCache.Evictions)
	counter("sqlcheck_report_cache_superseded_total", "Reports replaced in place by a re-analysis of their database's newer version (not evictions).", m.ReportCache.Superseded)
	gauge("sqlcheck_report_cache_bytes", "Estimated resident bytes of memoized reports.", m.ReportCache.Bytes)
	gauge("sqlcheck_report_cache_max_bytes", "Report cache byte budget.", m.ReportCache.MaxBytes)
	gauge("sqlcheck_report_cache_entries", "Reports resident in the cache.", int64(m.ReportCache.Entries))
	gauge("sqlcheck_report_cache_fingerprints", "Distinct script fingerprints with a resident report (entries minus fingerprints = literal-variant overhead).", int64(m.ReportCache.Fingerprints))
	fmt.Fprintf(w, "# HELP sqlcheck_report_cache_hit_rate Hits over lookups since start.\n# TYPE sqlcheck_report_cache_hit_rate gauge\nsqlcheck_report_cache_hit_rate %g\n",
		m.ReportCache.HitRate())

	gauge("sqlcheck_registry_databases", "Databases registered in the daemon registry.", int64(m.Registry.Databases))
	counter("sqlcheck_registry_hits_total", "Workloads resolved against a registered database (fixture reused, not re-executed).", m.Registry.Hits)
	counter("sqlcheck_registry_misses_total", "Workload db lookups that found no registered database.", m.Registry.Misses)
	counter("sqlcheck_snapshots_total", "Copy-on-write database snapshots taken for profiling isolation.", m.Snapshots)

	counter("sqlcheck_coalesce_in_batch_total", "Workloads served by a same-batch leader instead of running the pipeline (duplicate statements in one batch).", m.Coalesce.InBatch)
	counter("sqlcheck_coalesce_singleflight_total", "Workloads merged onto a concurrent identical in-flight analysis (cold-miss stampedes absorbed).", m.Coalesce.Singleflight)
	gauge("sqlcheck_coalesce_open_flights", "Cold analyses registered in the singleflight right now (returns to zero when traffic drains).", m.Coalesce.OpenFlights)

	// Overload protection: admission bounds and occupancy, shedding by
	// reason, queue-wait distribution, deadline and panic fault
	// counters.
	adm := m.Admission
	gauge("sqlcheck_admission_max_inflight", "Configured bound on concurrently analyzing requests.", int64(adm.MaxInflight))
	gauge("sqlcheck_admission_max_queue", "Configured bound on requests waiting for an analysis slot.", int64(adm.MaxQueue))
	gauge("sqlcheck_admission_inflight", "Requests analyzing right now.", adm.Inflight)
	gauge("sqlcheck_admission_queued", "Requests waiting for an analysis slot right now.", adm.Queued)
	counter("sqlcheck_admission_admitted_total", "Requests granted an analysis slot (with or without queueing).", adm.Admitted)
	fmt.Fprint(w, "# HELP sqlcheck_admission_shed_total Requests refused with 429, by reason.\n# TYPE sqlcheck_admission_shed_total counter\n")
	fmt.Fprintf(w, "sqlcheck_admission_shed_total{reason=%q} %d\n", "queue_full", adm.ShedQueueFull)
	fmt.Fprintf(w, "sqlcheck_admission_shed_total{reason=%q} %d\n", "queue_wait", adm.ShedQueueWait)
	fmt.Fprintf(w, "sqlcheck_admission_shed_total{reason=%q} %d\n", "tenant_fair_share", adm.ShedTenant)
	fmt.Fprintf(w, "# HELP sqlcheck_admission_avg_service_seconds EWMA of observed request service time (the Retry-After estimate input).\n# TYPE sqlcheck_admission_avg_service_seconds gauge\nsqlcheck_admission_avg_service_seconds %g\n",
		adm.AvgServiceSeconds)
	fmt.Fprint(w, "# HELP sqlcheck_admission_queue_wait_seconds Time requests spent waiting for an analysis slot (fast-path admissions observe zero).\n# TYPE sqlcheck_admission_queue_wait_seconds histogram\n")
	histogram("sqlcheck_admission_queue_wait_seconds", "", adm.QueueWaitBuckets, adm.QueueWaitSumSeconds, adm.QueueWaitCount)
	counter("sqlcheck_request_timeouts_total", "Requests that hit the per-request analysis deadline (504s).", m.Timeouts)
	counter("sqlcheck_panics_total", "Handler panics recovered into 500s (daemon bugs; rule panics are isolated per workload and counted separately).", m.Panics)
	counter("sqlcheck_rule_panics_total", "Rule-detector panics recovered into per-workload errors (buggy registered rules; the batch and daemon keep serving).", m.RulePanics)

	counter("sqlcheck_go_heap_alloc_objects_total", "Heap objects the Go runtime has allocated since start.", m.Runtime.HeapAllocObjects)
	counter("sqlcheck_go_heap_alloc_bytes_total", "Heap bytes the Go runtime has allocated since start.", m.Runtime.HeapAllocBytes)
	counter("sqlcheck_go_gc_cycles_total", "Completed garbage-collection cycles since start.", m.Runtime.GCCycles)

	counter("sqlcheck_http_responses_total", "JSON responses served through the pooled encoder.", httpStats.responses.Load())
	counter("sqlcheck_http_response_bytes_total", "Response body bytes written.", httpStats.responseBytes.Load())
	counter("sqlcheck_http_buffers_reused_total", "Responses served from a recycled pool buffer (no encoder or buffer allocation).", httpStats.bufferGets.Load()-httpStats.bufferAllocs.Load())
	counter("sqlcheck_http_buffers_allocated_total", "Fresh response buffers allocated (pool misses; flatlines once the pool is warm).", httpStats.bufferAllocs.Load())
	counter("sqlcheck_http_buffers_dropped_total", "Oversized response buffers not returned to the pool.", httpStats.bufferDrops.Load())

	fmt.Fprint(w, "# HELP sqlcheck_phase_skipped_total Workloads whose rule set let the engine elide a pipeline phase.\n# TYPE sqlcheck_phase_skipped_total counter\n")
	fmt.Fprintf(w, "sqlcheck_phase_skipped_total{phase=%q} %d\n", "profile", m.Skips.Profile)
	fmt.Fprintf(w, "sqlcheck_phase_skipped_total{phase=%q} %d\n", "snapshot", m.Skips.Snapshot)
	fmt.Fprintf(w, "sqlcheck_phase_skipped_total{phase=%q} %d\n", "inter_query", m.Skips.InterQuery)

	gauge("sqlcheck_pool_size", "Bound on concurrently analyzing workloads (the worker pool size).", int64(m.Pool.Size))
	gauge("sqlcheck_pool_in_use", "Pool slots held now (in_use/size = saturation).", int64(m.Pool.InUse))
	counter("sqlcheck_pool_tasks_total", "Cumulative pool slot acquisitions: one per analyzed workload plus one per profiling helper.", m.Pool.Tasks)

	if pc := m.PageCache; pc != nil {
		gauge("sqlcheck_page_cache_budget_bytes", "Resident-byte budget for registered databases' row pages.", pc.BudgetBytes)
		gauge("sqlcheck_page_cache_resident_bytes", "Estimated row-page bytes currently heap-resident under cache management.", pc.ResidentBytes)
		gauge("sqlcheck_page_cache_resident_pages", "Row pages currently heap-resident under cache management.", pc.ResidentPages)
		gauge("sqlcheck_page_cache_pinned_pages", "Row pages pinned by in-flight reads or writes (not evictable).", pc.PinnedPages)
		gauge("sqlcheck_page_cache_spilled_pages", "Row pages whose contents live only in spill files right now.", pc.SpilledPages)
		gauge("sqlcheck_page_cache_spill_bytes", "Total bytes in spill files, live records plus garbage.", pc.SpillBytes)
		gauge("sqlcheck_page_cache_garbage_bytes", "Superseded record bytes in spill files awaiting compaction.", pc.GarbageBytes)
		counter("sqlcheck_page_cache_faults_total", "Spilled pages read back from disk on access.", pc.Faults)
		counter("sqlcheck_page_cache_evictions_total", "Pages evicted from residency (clean drops plus spills).", pc.Evictions)
		counter("sqlcheck_page_cache_spills_total", "Dirty pages written to spill files on eviction.", pc.Spills)
		counter("sqlcheck_page_cache_clean_drops_total", "Evictions that dropped a page whose disk copy was current (no write needed).", pc.CleanDrops)
		counter("sqlcheck_page_cache_compacted_slots_total", "Deleted row slots compacted away by spill writes (bytes never hit disk).", pc.CompactedSlots)
		counter("sqlcheck_page_cache_file_compactions_total", "Spill-file rewrites that reclaimed superseded records.", pc.FileCompactions)
		counter("sqlcheck_page_cache_spill_errors_total", "Evictions that failed to write the spill file (page parked resident; residency degraded, no data lost).", pc.SpillErrors)
	}

	if d := m.Durability; d != nil {
		counter("sqlcheck_wal_records_total", "WAL records appended by this process (register, exec, unregister).", d.Records)
		counter("sqlcheck_wal_replayed_total", "WAL records applied during startup recovery.", d.Replayed)
		counter("sqlcheck_wal_append_errors_total", "Statements applied in memory that failed to reach the log (durability degraded).", d.AppendErrors)
		counter("sqlcheck_checkpoint_total", "Checkpoints completed by this process.", d.Checkpoints)
		gauge("sqlcheck_checkpoint_pending_records", "WAL records appended since the last checkpoint (replay delta on crash).", d.SinceCheckpoint)
		gauge("sqlcheck_checkpoint_last_unix_seconds", "Completion time of the newest checkpoint (0 = none yet).", d.LastCheckpointUnix)
	}

	fmt.Fprint(w, "# HELP sqlcheck_phase_seconds Wall time per pipeline phase per workload.\n# TYPE sqlcheck_phase_seconds histogram\n")
	for _, ph := range m.Phases {
		histogram("sqlcheck_phase_seconds", fmt.Sprintf("phase=%q", ph.Phase), ph.Buckets, ph.SumSeconds, ph.Count)
	}
}
