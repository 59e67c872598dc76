package main

// The traced replay. It runs a fixed sample of a workload's generated
// requests in process, calling each layer's exported entry point in
// pipeline order and recording a span around every call, so the
// program itself carries no tracing. Calls are sequential, so each
// span's duration is its self time. Spans stay in memory and are
// written to <work>/trace/ when the replay ends. Alongside, every
// request is checked through the public Checker: cold (fresh checker,
// no report cache), warm (primed report cache), and encoded.

import (
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"sqlcheck"
	"sqlcheck/internal/appctx"
	"sqlcheck/internal/exec"
	"sqlcheck/internal/fix"
	"sqlcheck/internal/parser"
	"sqlcheck/internal/profile"
	"sqlcheck/internal/qanalyze"
	"sqlcheck/internal/rank"
	"sqlcheck/internal/rules"
	"sqlcheck/internal/sqlast"
	"sqlcheck/internal/sqltoken"
	"sqlcheck/internal/storage"
)

// Replay sample sizes, fixed per workload.
const (
	replayCold    = 16 // cold-scan requests
	replayMixed   = 64 // mixed-open arrivals
	replayRounds  = 12 // tenant-data write-then-check rounds
	replayTenants = 2
	// replayReps is how many times the sample is replayed. Each metric is
	// the median over the repetitions, so a stall of the host during one
	// of them, which can double a short replay's times, does not move it.
	replayReps = 5
)

// span is one recorded call. Spans of one replayed request share rep
// and req.
type span struct {
	Rep   int    `json:"rep"`
	Req   int    `json:"req"`
	Name  string `json:"name"`
	Start int64  `json:"start_ns"`
	Dur   int64  `json:"dur_ns"`
	// N counts what the call handled where that differs from one call:
	// the rules a dispatch admitted, the bytes an encoding produced.
	N int `json:"n,omitempty"`
}

type tracer struct {
	t0       time.Time
	rep, req int
	spans    []span
}

// end records a span that began at start.
func (tr *tracer) end(start time.Time, name string, n int) {
	tr.spans = append(tr.spans, span{Rep: tr.rep, Req: tr.req, Name: name, Start: int64(start.Sub(tr.t0)), Dur: int64(time.Since(start)), N: n})
}

// replayTenant is a tenant database in both forms the replay needs:
// the storage handle the layers take and the public handle the Checker
// takes, kept in step by applying every write to both.
type replayTenant struct {
	inner *storage.Database
	pub   *sqlcheck.Database
}

// replayWorkload is one workload of a replayed request.
type replayWorkload struct {
	sql    string
	tenant *replayTenant
}

// replay runs the traced replay of cfg's workload replayReps times,
// writes all spans out, and returns each per-layer metric's median over
// the repetitions.
func replay(cfg runConfig) (map[string]float64, error) {
	rp := &replayer{cfg: cfg}
	if cfg.workload == wlTenant {
		for k := range replayTenants {
			t, err := newReplayTenant(cfg.seed, k)
			if err != nil {
				return nil, err
			}
			rp.tenants = append(rp.tenants, t)
		}
	}
	t0 := time.Now()
	var spans []span
	reps := map[string][]float64{}
	for rep := range replayReps {
		tr := &tracer{t0: t0, rep: rep}
		if err := rp.once(tr); err != nil {
			return nil, err
		}
		spans = append(spans, tr.spans...)
		for k, v := range tr.metrics() {
			reps[k] = append(reps[k], v)
		}
	}
	if err := saveSpans(cfg, spans); err != nil {
		return nil, err
	}
	m := map[string]float64{}
	for k, v := range reps {
		m[k] = median(v)
	}
	return m, nil
}

// replayer is the state the repetitions of one replay share: the
// tenant-data databases, built once, and the position in the write
// stream, which each repetition continues.
type replayer struct {
	cfg       runConfig
	tenants   []*replayTenant
	nextWrite int
}

// once replays the sample one time, recording spans in tr.
func (rp *replayer) once(tr *tracer) error {
	warmCk := sqlcheck.New(sqlcheck.Options{Concurrency: 1, NoCoalesce: true})
	step := func(wls []replayWorkload) error {
		for _, wl := range wls {
			tr.workload(wl)
		}
		return tr.check(wls, warmCk)
	}

	if rp.tenants == nil {
		for i, req := range replayRequests(rp.cfg) {
			tr.req = i
			wls, err := requestWorkloads(req)
			if err != nil {
				return err
			}
			if err := step(wls); err != nil {
				return err
			}
		}
		return nil
	}
	app := appScript(rp.cfg.seed)
	for round := range replayRounds {
		tr.req = round
		k := round % replayTenants
		// The next write of the stream aimed at this tenant.
		for ; ; rp.nextWrite++ {
			if tk, sql := tenantWrite(rp.cfg.seed, rp.nextWrite); tk == k {
				if err := tr.write(rp.tenants[k], sql); err != nil {
					return err
				}
				rp.nextWrite++
				break
			}
		}
		if err := step([]replayWorkload{{sql: app.sql, tenant: rp.tenants[k]}}); err != nil {
			return err
		}
	}
	return nil
}

// replayRequests is the fixed sample of a database-free workload.
func replayRequests(cfg runConfig) []*request {
	switch cfg.workload {
	case wlWarm:
		return warmRequests(cfg.seed)
	case wlCold:
		out := make([]*request, replayCold)
		for i := range out {
			out[i] = coldScanRequest(cfg.seed, i)
		}
		return out
	default:
		step := cfg.window / time.Duration(len(ladderRates))
		arr := arrivals(cfg.seed, streamArrivals, streamFresh, ladderRates, step, warmRequests(cfg.seed))
		out := make([]*request, 0, replayMixed)
		for _, a := range arr[:min(replayMixed, len(arr))] {
			out = append(out, a.req)
		}
		return out
	}
}

// requestWorkloads decodes the scripts a database-free request sends.
func requestWorkloads(req *request) ([]replayWorkload, error) {
	var body struct {
		Query   string   `json:"query"`
		Queries []string `json:"queries"`
	}
	if err := json.Unmarshal(req.body, &body); err != nil {
		return nil, err
	}
	var out []replayWorkload
	if body.Query != "" {
		out = append(out, replayWorkload{sql: body.Query})
	}
	for _, q := range body.Queries {
		out = append(out, replayWorkload{sql: q})
	}
	return out, nil
}

func newReplayTenant(seed uint64, k int) (*replayTenant, error) {
	fixture := tenantFixture(seed, k)
	t := &replayTenant{inner: storage.NewDatabase(tenantName(k)), pub: sqlcheck.NewDatabase(tenantName(k))}
	for _, stmt := range parser.ParseAll(fixture) {
		if _, err := exec.Run(t.inner, stmt); err != nil {
			return nil, fmt.Errorf("replay tenant %d: %w", k, err)
		}
	}
	if err := t.pub.ExecScript(fixture); err != nil {
		return nil, fmt.Errorf("replay tenant %d: %w", k, err)
	}
	return t, nil
}

// write applies one write to both forms of the tenant, timing the
// executor's call on the storage handle.
func (tr *tracer) write(t *replayTenant, sql string) error {
	stmt := parser.Parse(sql)
	start := time.Now()
	_, err := exec.Run(t.inner, stmt)
	tr.end(start, "exec.write", 1)
	if err != nil {
		return err
	}
	return t.pub.ExecScript(sql)
}

// workload replays the analysis pipeline over one workload, one span
// per layer call: fingerprint, parse and facts per statement, snapshot
// and per-table profiles when a database is attached, context build,
// rule dispatch and evaluation, ranking, and one repair per finding.
func (tr *tracer) workload(wl replayWorkload) {
	cfg := appctx.DefaultConfig()
	rs := rules.AllRuleSet()

	start := time.Now()
	sp := sqltoken.FingerprintScript(wl.sql)
	tr.end(start, "sqltoken.fingerprint", 1)
	texts := sp.Texts()
	stmts := make([]sqlast.Statement, len(texts))
	facts := make([]*qanalyze.Facts, len(texts))
	for i, text := range texts {
		start = time.Now()
		stmts[i] = parser.Parse(text)
		tr.end(start, "parser.parse", 1)
		start = time.Now()
		facts[i] = qanalyze.Analyze(stmts[i])
		tr.end(start, "qanalyze.facts", 1)
	}

	var db *storage.Database
	var profiles map[string]*profile.TableProfile
	if wl.tenant != nil {
		start = time.Now()
		db = wl.tenant.inner.Snapshot()
		tr.end(start, "storage.snapshot", 1)
		profiles = map[string]*profile.TableProfile{}
		for _, t := range db.Tables() {
			start = time.Now()
			tp, err := profile.ProfileTableContext(context.Background(), t, cfg.Profile)
			tr.end(start, "profile.table", 1)
			if err == nil {
				profiles[strings.ToLower(tp.Table)] = tp
			}
		}
	}

	start = time.Now()
	actx := appctx.BuildWithProfiles(stmts, facts, db, cfg, profiles)
	tr.end(start, "appctx.build", 1)

	var findings []rules.Finding
	buf := make([]*rules.Rule, 0, rs.Size())
	for i, f := range facts {
		start = time.Now()
		admitted := rs.QueryRulesFor(f, buf)
		tr.end(start, "rules.dispatch", len(admitted))
		for _, r := range admitted {
			start = time.Now()
			fs := r.DetectQuery(i, f, actx)
			tr.end(start, "rules.query", 1)
			findings = append(findings, fs...)
		}
	}
	if actx.Inter() {
		for _, r := range rs.SchemaRules() {
			start = time.Now()
			fs := r.DetectSchema(actx)
			tr.end(start, "rules.schema", 1)
			findings = append(findings, fs...)
		}
	}
	if actx.HasData() {
		for _, name := range slices.Sorted(maps.Keys(actx.Profiles)) {
			for _, r := range rs.DataRules() {
				start = time.Now()
				fs := r.DetectData(actx.Profiles[name], actx)
				tr.end(start, "rules.data", 1)
				findings = append(findings, fs...)
			}
		}
	}

	model := rank.NewModel(rank.C1)
	start = time.Now()
	ranked := model.Rank(findings)
	model.RankQueries(findings)
	tr.end(start, "rank.rank", 1)
	fe := fix.New(actx)
	for _, r := range ranked {
		start = time.Now()
		fe.Repair(r.Finding)
		tr.end(start, "fix.repair", 1)
	}
}

// check times the request's workloads through the public Checker:
// cold on a fresh checker with the report cache bypassed, warm on a
// checker whose report cache was primed with the same request, and the
// JSON encoding of each cold report.
func (tr *tracer) check(wls []replayWorkload, warmCk *sqlcheck.Checker) error {
	ws := make([]sqlcheck.Workload, len(wls))
	for i, wl := range wls {
		ws[i] = sqlcheck.Workload{SQL: wl.sql}
		if wl.tenant != nil {
			ws[i].DB = wl.tenant.pub
		}
	}
	cold := make([]sqlcheck.Workload, len(ws))
	for i, w := range ws {
		w.NoReportCache = true
		cold[i] = w
	}
	ctx := context.Background()
	ck, err := sqlcheck.Open(sqlcheck.Options{Concurrency: 1, NoCoalesce: true})
	if err != nil {
		return err
	}
	start := time.Now()
	reps, err := ck.CheckWorkloads(ctx, cold)
	tr.end(start, "sqlcheck.check_cold", 1)
	if err != nil {
		return err
	}
	for _, rep := range reps {
		start = time.Now()
		enc, err := json.Marshal(rep)
		tr.end(start, "sqlcheck.encode", len(enc))
		if err != nil {
			return err
		}
	}
	if _, err := warmCk.CheckWorkloads(ctx, ws); err != nil {
		return err
	}
	start = time.Now()
	_, err = warmCk.CheckWorkloads(ctx, ws)
	tr.end(start, "sqlcheck.check_warm", 1)
	return err
}

// coveredLayers are the spans a cold check's time should account for.
var coveredLayers = []string{
	"sqltoken.fingerprint", "parser.parse", "qanalyze.facts", "storage.snapshot", "profile.table",
	"appctx.build", "rules.dispatch", "rules.query", "rules.schema", "rules.data", "rank.rank", "fix.repair",
}

func (tr *tracer) metrics() map[string]float64 {
	type total struct {
		calls, n int
		ns       int64
	}
	t := map[string]total{}
	for _, s := range tr.spans {
		a := t[s.Name]
		a.calls++
		a.n += s.N
		a.ns += s.Dur
		t[s.Name] = a
	}
	perCall := func(name string) float64 {
		a := t[name]
		if a.calls == 0 {
			return 0
		}
		return float64(a.ns) / float64(a.calls) / 1e3
	}
	m := map[string]float64{
		"sqltoken.fingerprint_us":    perCall("sqltoken.fingerprint"),
		"parser.parse_us_per_stmt":   perCall("parser.parse"),
		"qanalyze.facts_us_per_stmt": perCall("qanalyze.facts"),
		"appctx.build_us":            perCall("appctx.build"),
		"rules.schema_us":            perCall("rules.schema"),
		"rules.data_us":              perCall("rules.data"),
		"rank.rank_us":               perCall("rank.rank"),
		"fix.repair_us_per_finding":  perCall("fix.repair"),
		"storage.snapshot_us":        perCall("storage.snapshot"),
		"profile.table_us":           perCall("profile.table"),
		"exec.write_us":              perCall("exec.write"),
		"sqlcheck.check_cold_us":     perCall("sqlcheck.check_cold"),
		"sqlcheck.check_warm_us":     perCall("sqlcheck.check_warm"),
		"sqlcheck.encode_us":         perCall("sqlcheck.encode"),
	}
	if d := t["rules.dispatch"]; d.calls > 0 {
		m["rules.dispatch_admit_ratio"] = float64(d.n) / float64(d.calls*len(rules.AllRuleSet().QueryRules()))
		m["rules.query_us_per_stmt"] = float64(t["rules.query"].ns) / float64(d.calls) / 1e3
	}
	if e := t["sqlcheck.encode"]; e.calls > 0 {
		m["sqlcheck.report_kib"] = float64(e.n) / float64(e.calls) / 1024
	}
	var covered int64
	for _, name := range coveredLayers {
		covered += t[name].ns
	}
	if cold := t["sqlcheck.check_cold"].ns; cold > 0 {
		m["trace.coverage"] = float64(covered) / float64(cold)
	}
	return m
}

// saveSpans writes spans to <work>/trace/<workload>-seed<seed>.json.
func saveSpans(cfg runConfig, spans []span) error {
	dir := filepath.Join(cfg.work, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Spans    []span `json:"spans"`
	}{cfg.workload, cfg.seed, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed)), raw, 0o644)
}
