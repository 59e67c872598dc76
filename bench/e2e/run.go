package main

// One run of one workload: a fresh daemon set up several times, warmed
// up, measured over one window, checked against the oracle and the
// workload's validity conditions, and stopped before the run returns.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"math/rand/v2"
	"net/http"
	"os"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Run shape.
const (
	oracleEvery   = 64 // every 64th check of a connection is kept for the oracle
	pageCacheSize = 4 << 20
	// coldPoolRate sizes the pre-rendered cold-scan pool in requests per
	// second of warm-up and window; requests past it render on demand.
	coldPoolRate = 1000
	writePool    = 4096
)

// ladderRates are mixed-open's offered rates in requests per second;
// the window is split evenly between them.
var ladderRates = []float64{500, 1000, 1500, 2000}

// reportStep is the ladder step, 1000 req/s, whose p50 mixed-open
// reports as its check_p50_ms.
const reportStep = 1

type runConfig struct {
	workload string
	seed     uint64
	window   time.Duration
	warmup   time.Duration
	trace    bool
	// setups is how many fresh daemons a run sets up; setup_s is the
	// median, and the last daemon serves the window.
	setups int
	// sizing fails a run whose window is too small for its percentiles.
	sizing bool
	bin    string // the daemon binary
	work   string // scratch directory: data directories and spans
}

// runResult is one run's outcome.
type runResult struct {
	Set       string             `json:"set,omitempty"`
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	Problems  []string           `json:"problems,omitempty"`
}

// inputs is everything a run sends, rendered before the first daemon
// starts.
type inputs struct {
	register []*request // tenant registrations
	prime    []*request // checked once during setup, kept for the oracle
	finals   []*request // checked once after the window, kept for the oracle
	// next is the closed-loop source; conn w calls next(w) only from its
	// own goroutine.
	next func(w int) *request
	// warmup and ladder are the open-loop schedules.
	warmup, ladder []arrival
}

// seq serves requests 0, 1, 2, ... of a deterministic stream: the
// first len(pool) pre-rendered, later ones rendered on demand.
type seq struct {
	pool   []*request
	render func(i int) *request
	n      atomic.Int64
}

func newSeq(n int, render func(i int) *request) *seq {
	s := &seq{pool: make([]*request, n), render: render}
	for i := range s.pool {
		s.pool[i] = render(i)
	}
	return s
}

func (s *seq) next() *request {
	i := int(s.n.Add(1) - 1)
	if i < len(s.pool) {
		return s.pool[i]
	}
	return s.render(i)
}

func buildInputs(cfg runConfig) *inputs {
	seed := cfg.seed
	inp := &inputs{}
	// Each connection chooses its traffic from its own stream.
	r := [2]*rand.Rand{newRand(seed, streamTraffic, 0), newRand(seed, streamTraffic, 1)}
	switch cfg.workload {
	case wlWarm:
		warm := warmRequests(seed)
		inp.prime = warm
		inp.next = func(w int) *request { return warm[r[w].IntN(len(warm))] }
	case wlCold:
		n := int((cfg.warmup + cfg.window).Seconds() * coldPoolRate)
		s := newSeq(n, func(i int) *request { return coldScanRequest(seed, i) })
		inp.next = func(int) *request { return s.next() }
	case wlTenant:
		checks := tenantCheckRequests(seed)
		for k := range tenantCount {
			inp.register = append(inp.register, registerRequest(seed, k))
		}
		inp.prime, inp.finals = checks, checks
		writes := newSeq(writePool, func(i int) *request { return writeRequest(seed, i) })
		// Every write goes out on conn 0, so each tenant's writes reach
		// the daemon in a known order and the oracle can replay them.
		// Write i falls due i/writeRate seconds after conn 0's first
		// request, and a due write goes out before any check.
		var t0 time.Time
		sent := 0
		inp.next = func(w int) *request {
			if w == 0 {
				if t0.IsZero() {
					t0 = time.Now()
				}
				if time.Since(t0) >= time.Duration(sent)*time.Second/writeRate {
					sent++
					return writes.next()
				}
			}
			return checks[r[w].IntN(len(checks))]
		}
	case wlMixed:
		warm := warmRequests(seed)
		inp.prime = warm
		step := cfg.window / time.Duration(len(ladderRates))
		inp.warmup = arrivals(seed, streamWarmupArrivals, streamWarmupFresh, ladderRates[:1], cfg.warmup, warm)
		inp.ladder = arrivals(seed, streamArrivals, streamFresh, ladderRates, step, warm)
	}
	return inp
}

// runner holds one run's state.
type runner struct {
	cfg   runConfig
	d     *daemon
	conns [2]*conn
	dirs  []string

	mu        sync.Mutex
	attempted int64
	failed    int64
	problems  []string
	samples   []sample
	acked     []int // write-stream indices acknowledged, in send order
	kept      [2]int
}

func (r *runner) problem(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.problemLocked(fmt.Sprintf(format, args...))
}

func (r *runner) problemLocked(msg string) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, msg)
	}
}

// send issues req on conn w and checks the response. keep retains a
// successful check's response for the oracle. It returns the number of
// statements the response reported.
func (r *runner) send(w int, req *request, keep bool) (int, bool) {
	c := r.conns[w]
	status, err := c.do(http.MethodPost, req.path, req.body)
	stmts := 0
	if err == nil {
		stmts, err = checkResponse(req, status, c.buf.Bytes())
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		r.problemLocked(err.Error())
		return 0, false
	}
	switch {
	case req.kind == kindWrite:
		r.acked = append(r.acked, req.write)
	case keep:
		r.samples = append(r.samples, sample{req: req, resp: bytes.Clone(c.buf.Bytes()), acked: len(r.acked)})
	}
	return stmts, true
}

// sampled decides whether conn w's next window check is kept: every
// oracleEvery-th one. On tenant-data only conn 0's checks are, because
// only they see a database state the oracle can rebuild.
func (r *runner) sampled(w int, req *request) bool {
	if req.kind != kindCheck || (r.cfg.workload == wlTenant && w != 0) {
		return false
	}
	n := r.kept[w]
	r.kept[w]++
	return n%oracleEvery == 0
}

// checkResponse checks one response's status and shape and returns the
// statements it reports.
func checkResponse(req *request, status int, body []byte) (int, error) {
	if status/100 != 2 {
		return 0, fmt.Errorf("%s %s: status %d: %.200s", req.kind, req.path, status, body)
	}
	switch req.kind {
	case kindWrite, kindRegister:
		var info struct {
			Name string `json:"name"`
		}
		if err := json.Unmarshal(body, &info); err != nil {
			return 0, fmt.Errorf("%s %s: %w", req.kind, req.path, err)
		}
		if info.Name != tenantName(req.tenant) {
			return 0, fmt.Errorf("%s %s: response names database %q", req.kind, req.path, info.Name)
		}
		return 0, nil
	}
	var got []int
	if req.batch {
		var br struct {
			Reports []*struct {
				Statements int `json:"statements"`
			} `json:"reports"`
			Errors []json.RawMessage `json:"errors"`
		}
		if err := json.Unmarshal(body, &br); err != nil {
			return 0, fmt.Errorf("check: %w", err)
		}
		if len(br.Errors) > 0 {
			return 0, fmt.Errorf("check: workload errors: %s", br.Errors[0])
		}
		for _, rep := range br.Reports {
			if rep == nil {
				return 0, fmt.Errorf("check: null report")
			}
			got = append(got, rep.Statements)
		}
	} else {
		var rep struct {
			Statements *int `json:"statements"`
		}
		if err := json.Unmarshal(body, &rep); err != nil {
			return 0, fmt.Errorf("check: %w", err)
		}
		if rep.Statements == nil {
			return 0, fmt.Errorf("check: response has no statements field")
		}
		got = []int{*rep.Statements}
	}
	if !slices.Equal(got, req.stmts) {
		return 0, fmt.Errorf("check: responses report %v statements, request sent %v", got, req.stmts)
	}
	total := 0
	for _, n := range got {
		total += n
	}
	return total, nil
}

// opResult is one operation of the measured window. Offsets are from
// the window's start; an open-loop operation's latency runs from when
// it was due, and late is how far behind schedule it was sent.
type opResult struct {
	start, end, late time.Duration
	step             int
	write, ok        bool
	stmts, works     int
}

// closedLoop drives both connections back to back until d elapses and
// waits for the requests in flight.
func (r *runner) closedLoop(next func(w int) *request, d time.Duration, measure bool) []opResult {
	t0 := time.Now()
	deadline := t0.Add(d)
	var per [2][]opResult
	var wg sync.WaitGroup
	for w := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				req := next(w)
				start := time.Since(t0)
				stmts, ok := r.send(w, req, measure && r.sampled(w, req))
				if measure {
					per[w] = append(per[w], opResult{
						start: start, end: time.Since(t0),
						write: req.kind == kindWrite, ok: ok, stmts: stmts, works: len(req.stmts),
					})
				}
			}
		}()
	}
	wg.Wait()
	return append(per[0], per[1]...)
}

// openLoop sends each arrival when it is due, on whichever of the two
// connections is free; an arrival finding both busy waits and is late.
func (r *runner) openLoop(arr []arrival, measure bool) []opResult {
	t0 := time.Now()
	out := make([]opResult, len(arr))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(arr) {
					return
				}
				a := arr[i]
				start := a.due
				if wait := time.Until(t0.Add(a.due)); wait > 0 {
					time.Sleep(wait)
					// The connection was idle: time from the wake-up, or the
					// timer's overshoot (up to a millisecond on Linux) would
					// count as service time.
					start = time.Since(t0)
				}
				late := time.Since(t0) - a.due
				stmts, ok := r.send(w, a.req, measure && r.sampled(w, a.req))
				out[i] = opResult{
					start: start, end: time.Since(t0), late: late, step: a.step,
					ok: ok, stmts: stmts, works: len(a.req.stmts),
				}
			}
		}()
	}
	wg.Wait()
	return out
}

// setUp starts a fresh daemon and brings it to serving state: health
// check, tenant registrations, and one check of every warm script or
// tenant, each response kept for the oracle. It returns the time from
// exec to primed.
func (r *runner) setUp(inp *inputs) (time.Duration, error) {
	var args []string
	if r.cfg.workload == wlTenant {
		dir, err := os.MkdirTemp(r.cfg.work, "data-")
		if err != nil {
			return 0, err
		}
		r.dirs = append(r.dirs, dir)
		args = []string{"-data-dir", dir, "-page-cache-bytes", strconv.Itoa(pageCacheSize)}
	}
	t0 := time.Now()
	d, err := startDaemon(r.cfg.bin, args...)
	if err != nil {
		return 0, err
	}
	r.d = d
	r.conns = [2]*conn{newConn(d.base), newConn(d.base)}
	if err := r.healthy(); err != nil {
		return 0, err
	}
	for _, req := range inp.register {
		if _, ok := r.send(0, req, false); !ok {
			return 0, fmt.Errorf("registering %s failed", tenantName(req.tenant))
		}
	}
	for _, req := range inp.prime {
		r.send(0, req, true)
	}
	return time.Since(t0), nil
}

// healthy waits for /healthz. The daemon logs its address only after
// listening, so this normally succeeds at once.
func (r *runner) healthy() error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		status, err := r.conns[0].do(http.MethodGet, "/healthz", nil)
		if err == nil && status == http.StatusOK {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("/healthz: status %d, %v", status, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// shutdown stops the current daemon and closes the connections. The
// daemon that served the window gets SIGTERM and must drain, checkpoint
// and exit cleanly. A daemon that only served a setup repetition is
// killed: sqlcheckd installs its SIGTERM handler after it logs its
// address, so a SIGTERM right after a short setup can land first.
func (r *runner) shutdown(graceful bool) {
	if r.d == nil {
		return
	}
	for _, c := range r.conns {
		c.close()
	}
	if graceful {
		if err := r.d.stop(); err != nil {
			r.problem("%v", err)
		}
	} else {
		r.d.kill()
	}
	r.d = nil
}

// run executes one run and reports it.
func run(cfg runConfig) *runResult {
	res := &runResult{Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.window.Seconds(), Trace: cfg.trace, Metrics: map[string]float64{}}
	r := &runner{cfg: cfg}
	err := r.execute(res.Metrics)
	r.shutdown(false) // only after a failure: execute stops the daemon it measured
	for _, dir := range r.dirs {
		if err := os.RemoveAll(dir); err != nil {
			r.problem("removing %s: %v", dir, err)
		}
	}
	if err != nil {
		r.problem("%v", err)
	}
	for _, d := range metricDefs {
		if !d.appliesTo(cfg.workload) {
			delete(res.Metrics, d.name)
		}
	}
	res.Attempted, res.Failed, res.Problems = r.attempted, r.failed, r.problems
	res.Correct = err == nil && len(res.Problems) == 0 && res.Failed == 0
	if res.Attempted > 0 {
		res.Metrics["fail_frac"] = float64(res.Failed) / float64(res.Attempted)
	}
	return res
}

func (r *runner) execute(m map[string]float64) error {
	cfg := r.cfg
	inp := buildInputs(cfg)

	setups := make([]float64, cfg.setups)
	for i := range setups {
		if i > 0 {
			r.shutdown(false)
		}
		d, err := r.setUp(inp)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups[i] = d.Seconds()
	}
	m["setup_s"] = median(setups)
	setUpDone, err := scrape(r.conns[0])
	if err != nil {
		return err
	}

	if inp.ladder != nil {
		r.openLoop(inp.warmup, false)
	} else {
		r.closedLoop(inp.next, cfg.warmup, false)
	}

	before, err := scrape(r.conns[0])
	if err != nil {
		return err
	}
	ackedBefore := len(r.acked)
	cpu0, err := r.d.cpuTime()
	if err != nil {
		return err
	}
	var ops []opResult
	if inp.ladder != nil {
		ops = r.openLoop(inp.ladder, true)
	} else {
		ops = r.closedLoop(inp.next, cfg.window, true)
	}
	cpu1, err := r.d.cpuTime()
	if err != nil {
		return err
	}
	after, err := scrape(r.conns[0])
	if err != nil {
		return err
	}
	if m["rss_peak_mib"], err = r.d.peakRSSMiB(); err != nil {
		return err
	}
	for _, req := range inp.finals {
		r.send(0, req, true)
	}
	r.shutdown(true)
	inp = nil // release the pre-rendered pools before the oracle runs

	for _, err := range newReference(cfg.seed, r.acked).verifyAll(r.samples) {
		r.mu.Lock()
		r.failed++
		r.problemLocked(err.Error())
		r.mu.Unlock()
	}

	var checks, works, writes, beyond int
	if cfg.workload == wlMixed {
		checks, works, beyond = ladderMetrics(ops, m)
	} else {
		checks, works, writes, beyond = closedMetrics(ops, cfg.window, m)
	}
	if ops := checks + writes; ops > 0 {
		m["cpu_us_per_op"] = float64((cpu1-cpu0)/time.Microsecond) / float64(ops)
	}
	maps.Copy(m, counterMetrics(before, after, checks, works, writes))
	r.validate(m, setUpDone, before, after, checks, beyond, len(r.acked)-ackedBefore)

	if cfg.trace {
		tm, err := replay(cfg)
		if err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		maps.Copy(m, tm)
		if cfg.workload == wlWarm {
			m["sqlcheckd.serve_self_us"] = m["cpu_us_per_op"] - m["sqlcheck.check_warm_us"] - m["sqlcheck.encode_us"]
		}
	}
	return nil
}

func latencyMS(o opResult) float64 { return float64(o.end-o.start) / float64(time.Millisecond) }

// closedMetrics computes the end-to-end metrics of a closed-loop
// window and returns the successful checks, their workloads, the
// successful writes, and how many samples lie beyond check p99.
func closedMetrics(ops []opResult, window time.Duration, m map[string]float64) (checks, works, writes, beyond int) {
	var lat, wlat, ones, stmts []float64
	var at []time.Duration
	for _, o := range ops {
		switch {
		case !o.ok:
		case o.write:
			writes++
			wlat = append(wlat, latencyMS(o))
		default:
			checks++
			works += o.works
			lat = append(lat, latencyMS(o))
			at = append(at, o.end)
			ones = append(ones, 1)
			stmts = append(stmts, float64(o.stmts))
		}
	}
	slices.Sort(lat)
	m["check_p50_ms"], _ = nearestRank(lat, 0.50)
	m["check_p99_ms"], beyond = nearestRank(lat, 0.99)
	m["checks_per_s"] = windowMedian(at, ones, window, time.Second)
	m["stmts_per_s"] = windowMedian(at, stmts, window, time.Second)
	if len(wlat) > 0 {
		slices.Sort(wlat)
		m["write_p50_ms"], _ = nearestRank(wlat, 0.50)
		m["write_p99_ms"], _ = nearestRank(wlat, 0.99)
	}
	return checks, works, writes, beyond
}

// ladderMetrics computes mixed-open's metrics: per-step p99 from each
// request's due time, generator lateness when each step ended, the
// highest rate under the objective, and the reporting step's p50. It
// returns the successful checks, their workloads, and how many samples
// lie beyond the reporting step's p99.
func ladderMetrics(ops []opResult, m map[string]float64) (checks, works, beyond int) {
	steps := make([]ladderStep, len(ladderRates))
	lats := make([][]float64, len(ladderRates))
	for _, o := range ops {
		s := &steps[o.step]
		s.LateEnd = o.late // ops are in due order
		if !o.ok {
			s.Failed++
			continue
		}
		checks++
		works += o.works
		lats[o.step] = append(lats[o.step], latencyMS(o))
	}
	for i := range steps {
		steps[i].Rate = ladderRates[i]
		slices.Sort(lats[i])
		steps[i].P99ms, steps[i].Beyond = nearestRank(lats[i], 0.99)
		name := "step" + strconv.Itoa(int(ladderRates[i]))
		m[name+".p99_ms"] = steps[i].P99ms
		m[name+".late_ms"] = float64(steps[i].LateEnd) / float64(time.Millisecond)
	}
	m["check_p50_ms"], _ = nearestRank(lats[reportStep], 0.50)
	beyond = steps[reportStep].Beyond
	m["max_rate_under_slo"] = maxRateUnderSLO(steps)
	return checks, works, beyond
}

// validate fails the run when its workload stopped exercising the
// mechanism it exists to measure. setUpDone is scraped when the last
// setup finished, before the warm-up; before and after bracket the
// window.
func (r *runner) validate(m map[string]float64, setUpDone, before, after counters, checks, beyond, writes int) {
	d := func(key string) float64 { return after[key] - before[key] }
	if r.cfg.sizing {
		if checks < 1000 {
			r.problem("sizing: %d checks in the window, need 1000", checks)
		}
		if beyond < minBeyond {
			r.problem("sizing: the reported p99 has %d samples beyond it, need %d", beyond, minBeyond)
		}
	}
	if v := m["sqlcheckd.shed_timeout_panic"]; v != 0 {
		r.problem("validity: %v requests shed, timed out or panicked", v)
	}
	switch r.cfg.workload {
	case wlWarm:
		if v := m["core.report_hit_ratio"]; v < 0.99 {
			r.problem("validity: warm-api report hit ratio %.4f < 0.99", v)
		}
	case wlCold:
		if v := d("sqlcheck_report_cache_hits_total"); v != 0 {
			r.problem("validity: cold-scan served %v report-cache hits", v)
		}
		if v := d(`sqlcheck_phase_seconds_count{phase="profile"}`); v != 0 {
			r.problem("validity: cold-scan ran %v profile phases", v)
		}
	case wlTenant:
		if setUpDone["sqlcheck_page_cache_spills_total"] == 0 {
			r.problem("validity: no page spilled during setup")
		}
		if d("sqlcheck_page_cache_faults_total") == 0 {
			r.problem("validity: no page fault in the window")
		}
		if v := d("sqlcheck_wal_records_total"); v != float64(writes) {
			r.problem("validity: %v WAL records for %d acknowledged writes", v, writes)
		}
	case wlMixed:
		if m["core.coalesced_per_workload"] == 0 {
			r.problem("validity: mixed-open coalesced nothing")
		}
	}
}
