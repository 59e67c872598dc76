package main

// The metric catalog. Every metric a run can print is declared here
// with its unit, its direction, the share by which its set median may
// worsen before a comparison calls it regressed, the layer it measures
// ("" for end-to-end metrics) and the workloads it applies to.
// BENCHMARK.json lists the subset marked listed; a test keeps the two
// in step.

import "slices"

// Workload names, in the order runs interleave them.
const (
	wlWarm   = "warm-api"
	wlCold   = "cold-scan"
	wlTenant = "tenant-data"
	wlMixed  = "mixed-open"
)

var workloadNames = []string{wlWarm, wlCold, wlTenant, wlMixed}

// informational marks a metric without a regression bound.
const informational = -1

type metricDef struct {
	name, unit, better string
	// bound is the share of the parent's set median by which the
	// metric may worsen; informational metrics have none.
	bound float64
	// layer is the package the metric measures; "" is end to end.
	layer string
	// only lists the workloads the metric applies to; nil means all.
	only []string
	// replay metrics come from the traced in-process replay; the other
	// per-layer metrics are daemon counter deltas.
	replay bool
	// listed metrics appear in BENCHMARK.json and the result line.
	listed bool
}

func (m metricDef) appliesTo(workload string) bool {
	return m.only == nil || slices.Contains(m.only, workload)
}

var metricDefs = []metricDef{
	// End to end, with tracing off. Every timing and size may worsen by
	// 10%. Only the metrics that repeat within that bound on a shared
	// host are listed: there whole runs slow together by 20-40% for
	// minutes, which moves every latency, throughput and CPU time by more
	// (README.md records the measured spreads).
	{name: "setup_s", unit: "s", better: "lower", bound: 0.10, listed: true},
	{name: "check_p50_ms", unit: "ms", better: "lower", bound: 0.10},
	{name: "check_p99_ms", unit: "ms", better: "lower", bound: 0.10, only: []string{wlWarm, wlCold, wlTenant}},
	{name: "checks_per_s", unit: "1/s", better: "higher", bound: 0.10, only: []string{wlWarm, wlCold, wlTenant}},
	{name: "stmts_per_s", unit: "1/s", better: "higher", bound: 0.10, only: []string{wlCold}},
	{name: "cpu_us_per_op", unit: "us", better: "lower", bound: 0.10},
	{name: "rss_peak_mib", unit: "MiB", better: "lower", bound: 0.10, listed: true},
	{name: "fail_frac", unit: "ratio", better: "lower", bound: 0},
	{name: "write_p50_ms", unit: "ms", better: "lower", bound: 0.10, only: []string{wlTenant}},
	{name: "write_p99_ms", unit: "ms", better: "lower", bound: 0.10, only: []string{wlTenant}},
	{name: "max_rate_under_slo", unit: "req/s", better: "higher", bound: 0, only: []string{wlMixed}},

	// Daemon counters, scraped just before and just after the window.
	{name: "sqlcheckd.queue_wait_us", unit: "us", better: "lower", bound: informational, layer: "cmd/sqlcheckd"},
	{name: "sqlcheckd.response_kib", unit: "KiB", better: "lower", bound: informational, layer: "cmd/sqlcheckd", listed: true},
	{name: "sqlcheckd.buffers_allocated", unit: "count", better: "lower", bound: informational, layer: "cmd/sqlcheckd", listed: true},
	{name: "sqlcheckd.shed_timeout_panic", unit: "count", better: "lower", bound: 0, layer: "cmd/sqlcheckd"},
	{name: "core.report_hit_ratio", unit: "ratio", better: "higher", bound: informational, layer: "internal/core", listed: true},
	{name: "core.report_variant_miss_ratio", unit: "ratio", better: "lower", bound: informational, layer: "internal/core", listed: true},
	{name: "core.report_evictions", unit: "count", better: "lower", bound: informational, layer: "internal/core", listed: true},
	{name: "core.parse_hit_ratio", unit: "ratio", better: "higher", bound: informational, layer: "internal/core", listed: true},
	{name: "core.profile_hit_ratio", unit: "ratio", better: "higher", bound: informational, layer: "internal/core", listed: true},
	{name: "core.snapshots_per_check", unit: "ratio", better: "lower", bound: informational, layer: "internal/core", listed: true},
	{name: "core.coalesced_per_workload", unit: "ratio", better: "higher", bound: informational, layer: "internal/core", listed: true},
	{name: "core.stmt_pool_tasks_per_workload", unit: "ratio", better: "lower", bound: informational, layer: "internal/core", listed: true},
	{name: "core.busy.parse_us", unit: "us", better: "lower", bound: informational, layer: "internal/core"},
	{name: "core.busy.profile_us", unit: "us", better: "lower", bound: informational, layer: "internal/core"},
	{name: "core.busy.context_us", unit: "us", better: "lower", bound: informational, layer: "internal/core"},
	{name: "core.busy.query_rules_us", unit: "us", better: "lower", bound: informational, layer: "internal/core"},
	{name: "core.busy.global_us", unit: "us", better: "lower", bound: informational, layer: "internal/core"},
	{name: "storage.faults_per_check", unit: "ratio", better: "lower", bound: informational, layer: "internal/storage", listed: true},
	{name: "storage.spills", unit: "count", better: "lower", bound: informational, layer: "internal/storage", listed: true},
	{name: "wal.records_per_write", unit: "ratio", better: "lower", bound: informational, layer: "internal/storage/wal", listed: true},
	{name: "wal.checkpoints", unit: "count", better: "lower", bound: informational, layer: "internal/storage/wal", listed: true},

	// Traced in-process replay of the workload's inputs.
	{name: "sqltoken.fingerprint_us", unit: "us", better: "lower", bound: informational, replay: true, layer: "internal/sqltoken", listed: true},
	{name: "parser.parse_us_per_stmt", unit: "us", better: "lower", bound: informational, replay: true, layer: "internal/parser", listed: true},
	{name: "qanalyze.facts_us_per_stmt", unit: "us", better: "lower", bound: informational, replay: true, layer: "internal/qanalyze", listed: true},
	{name: "appctx.build_us", unit: "us", better: "lower", bound: informational, replay: true, layer: "internal/appctx", listed: true},
	{name: "rules.dispatch_admit_ratio", unit: "ratio", better: "lower", bound: informational, replay: true, layer: "internal/rules", listed: true},
	{name: "rules.query_us_per_stmt", unit: "us", better: "lower", bound: informational, replay: true, layer: "internal/rules", listed: true},
	{name: "rules.schema_us", unit: "us", better: "lower", bound: informational, replay: true, layer: "internal/rules", listed: true},
	{name: "rules.data_us", unit: "us", better: "lower", bound: informational, replay: true, layer: "internal/rules", only: []string{wlTenant}},
	{name: "rank.rank_us", unit: "us", better: "lower", bound: informational, replay: true, layer: "internal/rank", listed: true},
	{name: "fix.repair_us_per_finding", unit: "us", better: "lower", bound: informational, replay: true, layer: "internal/fix", listed: true},
	{name: "storage.snapshot_us", unit: "us", better: "lower", bound: informational, replay: true, layer: "internal/storage", only: []string{wlTenant}},
	{name: "profile.table_us", unit: "us", better: "lower", bound: informational, replay: true, layer: "internal/profile", only: []string{wlTenant}},
	{name: "exec.write_us", unit: "us", better: "lower", bound: informational, replay: true, layer: "internal/exec", only: []string{wlTenant}},
	{name: "sqlcheck.check_cold_us", unit: "us", better: "lower", bound: informational, replay: true, layer: "sqlcheck", listed: true},
	{name: "sqlcheck.check_warm_us", unit: "us", better: "lower", bound: informational, replay: true, layer: "sqlcheck", listed: true},
	{name: "sqlcheck.encode_us", unit: "us", better: "lower", bound: informational, replay: true, layer: "sqlcheck", listed: true},
	{name: "sqlcheck.report_kib", unit: "KiB", better: "lower", bound: informational, replay: true, layer: "sqlcheck", listed: true},
	{name: "sqlcheckd.serve_self_us", unit: "us", better: "lower", bound: informational, replay: true, layer: "cmd/sqlcheckd", only: []string{wlWarm}},
	{name: "trace.coverage", unit: "ratio", better: "higher", bound: informational, replay: true, layer: "trace", listed: true},
}

// counterMetrics derives the per-layer metrics from the daemon counter
// deltas over the window. checks, workloads and writes are the client's
// successful operations in the same window.
func counterMetrics(before, after counters, checks, workloads, writes int) map[string]float64 {
	d := func(key string) float64 { return after[key] - before[key] }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	m := map[string]float64{}
	m["sqlcheckd.queue_wait_us"] = 1e6 * ratio(d("sqlcheck_admission_queue_wait_seconds_sum"), d("sqlcheck_admission_queue_wait_seconds_count"))
	m["sqlcheckd.response_kib"] = ratio(d("sqlcheck_http_response_bytes_total"), d("sqlcheck_http_responses_total")) / 1024
	m["sqlcheckd.buffers_allocated"] = d("sqlcheck_http_buffers_allocated_total")
	m["sqlcheckd.shed_timeout_panic"] = d(`sqlcheck_admission_shed_total{reason="queue_full"}`) +
		d(`sqlcheck_admission_shed_total{reason="queue_wait"}`) + d(`sqlcheck_admission_shed_total{reason="tenant_fair_share"}`) +
		d("sqlcheck_request_timeouts_total") + d("sqlcheck_panics_total") + d("sqlcheck_rule_panics_total")

	hits, misses := d("sqlcheck_report_cache_hits_total"), d("sqlcheck_report_cache_misses_total")
	m["core.report_hit_ratio"] = ratio(hits, hits+misses)
	m["core.report_variant_miss_ratio"] = ratio(d("sqlcheck_report_cache_variant_misses_total"), hits+misses)
	m["core.report_evictions"] = d("sqlcheck_report_cache_evictions_total")
	ph, pm := d("sqlcheck_cache_hits_total"), d("sqlcheck_cache_misses_total")
	m["core.parse_hit_ratio"] = ratio(ph, ph+pm)
	fh, fm := d("sqlcheck_profile_cache_hits_total"), d("sqlcheck_profile_cache_misses_total")
	m["core.profile_hit_ratio"] = ratio(fh, fh+fm)
	m["core.snapshots_per_check"] = ratio(d("sqlcheck_snapshots_total"), float64(checks))
	m["core.coalesced_per_workload"] = ratio(d("sqlcheck_coalesce_in_batch_total")+d("sqlcheck_coalesce_singleflight_total"), float64(workloads))
	m["core.stmt_pool_tasks_per_workload"] = ratio(d(`sqlcheck_pool_tasks_total{pool="statements"}`), float64(workloads))
	for _, ph := range []string{"parse", "profile", "context", "query_rules", "global"} {
		m["core.busy."+ph+"_us"] = 1e6 * ratio(d(`sqlcheck_phase_seconds_sum{phase="`+ph+`"}`), d(`sqlcheck_phase_seconds_count{phase="`+ph+`"}`))
	}

	m["storage.faults_per_check"] = ratio(d("sqlcheck_page_cache_faults_total"), float64(checks))
	m["storage.spills"] = d("sqlcheck_page_cache_spills_total")
	m["wal.records_per_write"] = ratio(d("sqlcheck_wal_records_total"), float64(writes))
	m["wal.checkpoints"] = d("sqlcheck_checkpoint_total")
	return m
}
