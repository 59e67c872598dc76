package main

// Deterministic request generation. Every byte the daemon sees is
// rendered here as a function of the run's seed: the same seed gives
// identical requests, and each phase draws from its own stream, so a
// script meant to be cold never repeats within a run.

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"strconv"
	"strings"
	"time"

	"sqlcheck/internal/corpus"
)

// Input streams. Inputs of different phases never share a stream.
const (
	streamWarm uint64 = iota + 1
	streamCold
	streamFresh
	streamWarmupFresh
	streamArrivals
	streamWarmupArrivals
	streamTenant
	streamWrite
	streamApp
	streamTraffic
)

// Workload shapes.
const (
	warmScripts    = 64 // distinct warm scripts, all primed in setup
	warmMaxStmts   = 12
	mixedStmts     = 12 // statements of a mixed-open fresh script
	coldPerRequest = 4  // repositories per cold-scan request
	coldMinStmts   = 8
	coldMaxStmts   = 16
	batchRepeat    = 8 // copies of the fresh script in a mixed-open batch
	tenantCount    = 8
	tenantRows     = 4000 // rows per tenant table
	fixtureChunk   = 250  // rows per fixture INSERT statement
	// writeRate paces tenant-data's writes, all on conn 0, in writes per
	// second: about 10% of the operations at the seed commit's speed.
	// Pacing by time rather than by share makes every run, fast or slow,
	// send the same writes and cross the same single WAL checkpoint.
	writeRate = 130
)

// mix is the splitmix64 finalizer, a bijection on uint64.
func mix(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// subSeed derives the seed of item i of a stream. It is never zero,
// which the corpus generator would read as "use the default seed".
func subSeed(seed, stream uint64, i int) uint64 {
	z := mix(mix(mix(seed)+stream) + uint64(i))
	if z == 0 {
		z = 1
	}
	return z
}

func newRand(seed, stream uint64, i int) *rand.Rand {
	return rand.New(rand.NewPCG(subSeed(seed, stream, i), stream))
}

// script is one generated workload script with its statement count.
type script struct {
	sql   string
	stmts int
}

// corpusScript renders one GitHub-corpus repository as a script of
// minStmts to maxStmts statements.
func corpusScript(seed uint64, minStmts, maxStmts int) script {
	r := corpus.GitHub(corpus.GitHubOptions{Repos: 1, Seed: seed, MinStatements: minStmts, MaxStatements: maxStmts}).Repos[0]
	// Some templates emit statement groups that overshoot the count.
	stmts := r.Statements[:min(len(r.Statements), maxStmts)]
	return script{sql: strings.Join(stmts, ";\n"), stmts: len(stmts)}
}

// Request kinds.
const (
	kindCheck    = "check"
	kindWrite    = "write"
	kindRegister = "register"
)

// request is one pre-rendered HTTP call and what its response must say.
type request struct {
	kind string
	path string
	body []byte
	// stmts lists the statements sent per workload of a check, in
	// request order; batch marks a {"reports": [...]} response.
	stmts []int
	batch bool
	// tenant is the target tenant index on tenant-data, else -1; write is
	// the write-stream index of an exec call.
	tenant int
	write  int
	// class names the mixed-open traffic class.
	class string
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

func queryRequest(s script) *request {
	return &request{
		kind: kindCheck, path: "/api/check", body: mustJSON(map[string]string{"query": s.sql}),
		stmts: []int{s.stmts}, tenant: -1,
	}
}

func queriesRequest(ss []script) *request {
	r := &request{kind: kindCheck, path: "/api/check", batch: true, tenant: -1}
	sqls := make([]string, len(ss))
	for i, s := range ss {
		sqls[i] = s.sql
		r.stmts = append(r.stmts, s.stmts)
	}
	r.body = mustJSON(map[string][]string{"queries": sqls})
	return r
}

// warmRequests renders the warm-api scripts as single-query checks.
// Their lengths cycle through 4 to warmMaxStmts statements, so every
// seed sends the same number of statements.
func warmRequests(seed uint64) []*request {
	out := make([]*request, warmScripts)
	for i := range out {
		n := 4 + i%(warmMaxStmts-3)
		out[i] = queryRequest(corpusScript(subSeed(seed, streamWarm, i), n, n))
		out[i].class = classWarm
	}
	return out
}

// coldScanRequest is cold-scan request i: four never-repeated
// repositories in one batch.
func coldScanRequest(seed uint64, i int) *request {
	ss := make([]script, coldPerRequest)
	for j := range ss {
		ss[j] = corpusScript(subSeed(seed, streamCold, i*coldPerRequest+j), coldMinStmts, coldMaxStmts)
	}
	return queriesRequest(ss)
}

// Tenant databases: four tables whose data trips the data rules —
// list-like text (multi-valued attribute), numbers and dates stored as
// text (incorrect data type), and functional dependencies between
// non-key columns (denormalized table).
var (
	tenantTables = [...]string{"customers", "orders", "products", "events"}
	tenantDDL    = [...]string{
		"CREATE TABLE customers (customer_id INT PRIMARY KEY, name VARCHAR(40) NOT NULL, tags TEXT, zip VARCHAR(10), city VARCHAR(30))",
		"CREATE TABLE orders (order_id INT PRIMARY KEY, customer_id INT, amount TEXT, status VARCHAR(12), placed VARCHAR(20))",
		"CREATE TABLE products (product_id INT PRIMARY KEY, title VARCHAR(60), category VARCHAR(20), category_code VARCHAR(8), price TEXT)",
		"CREATE TABLE events (event_id INT PRIMARY KEY, customer_id INT, kind VARCHAR(16), labels TEXT, qty TEXT)",
	}
	cities     = [...]string{"Lima", "Oslo", "Rome", "Kyiv", "Pune", "Quito", "Accra", "Hanoi", "Perth", "Turin", "Cork", "Fez"}
	statuses   = [...]string{"open", "paid", "shipped", "closed"}
	categories = [...]string{"books", "games", "tools", "garden", "music", "sport", "toys", "food", "home", "auto"}
	kinds      = [...]string{"click", "view", "buy", "share"}
)

func tenantName(k int) string { return "tenant" + strconv.Itoa(k) }

func tagList(r *rand.Rand, prefix string) string {
	n := 2 + r.IntN(3)
	parts := make([]string, n)
	for i := range parts {
		parts[i] = prefix + strconv.Itoa(r.IntN(40))
	}
	return strings.Join(parts, ",")
}

// rowValues renders one VALUES tuple of table t.
func rowValues(t, id int, r *rand.Rand) string {
	switch t {
	case 0:
		zip := r.IntN(60)
		return fmt.Sprintf("(%d, 'name%d', '%s', 'Z%04d', '%s')", id, r.IntN(100000), tagList(r, "tag"), zip, cities[zip%len(cities)])
	case 1:
		return fmt.Sprintf("(%d, %d, '%d.%02d', '%s', '2023-%02d-%02d')", id, r.IntN(tenantRows),
			r.IntN(900)+10, r.IntN(100), statuses[r.IntN(len(statuses))], 1+r.IntN(12), 1+r.IntN(28))
	case 2:
		c := r.IntN(len(categories))
		return fmt.Sprintf("(%d, 'product%d', '%s', 'C%03d', '%d.99')", id, r.IntN(100000), categories[c], c*7, r.IntN(200))
	default:
		return fmt.Sprintf("(%d, %d, '%s', '%s', '%d')", id, r.IntN(tenantRows), kinds[r.IntN(len(kinds))], tagList(r, "l"), 1+r.IntN(20))
	}
}

// tenantFixture is the DDL+DML script that registers tenant k.
func tenantFixture(seed uint64, k int) string {
	r := newRand(seed, streamTenant, k)
	var b strings.Builder
	for t, ddl := range tenantDDL {
		b.WriteString(ddl)
		b.WriteString(";\n")
		for lo := 0; lo < tenantRows; lo += fixtureChunk {
			fmt.Fprintf(&b, "INSERT INTO %s VALUES ", tenantTables[t])
			for id := lo; id < min(lo+fixtureChunk, tenantRows); id++ {
				if id > lo {
					b.WriteString(", ")
				}
				b.WriteString(rowValues(t, id, r))
			}
			b.WriteString(";\n")
		}
	}
	return b.String()
}

// tenantWrite is write i of the tenant-data write stream: an INSERT
// with an id no other write uses, or an UPDATE by primary key.
func tenantWrite(seed uint64, i int) (tenant int, sql string) {
	r := newRand(seed, streamWrite, i)
	tenant = r.IntN(tenantCount)
	t := r.IntN(len(tenantTables))
	if r.IntN(2) == 0 {
		return tenant, fmt.Sprintf("INSERT INTO %s VALUES %s", tenantTables[t], rowValues(t, tenantRows+i, r))
	}
	id := r.IntN(tenantRows)
	switch t {
	case 0:
		sql = fmt.Sprintf("UPDATE customers SET tags = '%s' WHERE customer_id = %d", tagList(r, "tag"), id)
	case 1:
		sql = fmt.Sprintf("UPDATE orders SET status = '%s' WHERE order_id = %d", statuses[r.IntN(len(statuses))], id)
	case 2:
		sql = fmt.Sprintf("UPDATE products SET price = '%d.49' WHERE product_id = %d", r.IntN(200), id)
	default:
		sql = fmt.Sprintf("UPDATE events SET qty = '%d' WHERE event_id = %d", 1+r.IntN(20), id)
	}
	return tenant, sql
}

func writeRequest(seed uint64, i int) *request {
	tenant, sql := tenantWrite(seed, i)
	return &request{
		kind: kindWrite, path: "/api/databases/" + tenantName(tenant) + "/exec",
		body: mustJSON(map[string]string{"sql": sql}), tenant: tenant, write: i,
	}
}

func registerRequest(seed uint64, k int) *request {
	return &request{
		kind: kindRegister, path: "/api/databases/" + tenantName(k),
		body: mustJSON(map[string]string{"fixture": tenantFixture(seed, k)}), tenant: k,
	}
}

// appTemplates are the statements of the application script; {n} is a
// seeded literal.
var appTemplates = []string{
	"SELECT * FROM customers WHERE tags LIKE '%tag{n}%'",
	"SELECT o.order_id, c.name FROM orders o JOIN customers c ON o.customer_id = c.customer_id WHERE o.status = 'open'",
	"INSERT INTO events VALUES ({n}, 7, 'click', 'l1,l2', '3')",
	"UPDATE orders SET status = 'closed' WHERE order_id = {n}",
	"SELECT title FROM products ORDER BY RAND() LIMIT 5",
}

// appScript is the fixed five-statement application script every
// tenant-data check analyzes. Only its literals depend on the seed, so
// every seed asks the same analysis work of a check.
func appScript(seed uint64) script {
	r := newRand(seed, streamApp, 0)
	stmts := make([]string, len(appTemplates))
	for i, tpl := range appTemplates {
		stmts[i] = strings.ReplaceAll(tpl, "{n}", strconv.Itoa(r.IntN(1000)))
	}
	return script{sql: strings.Join(stmts, ";\n"), stmts: len(stmts)}
}

// tenantCheckRequests renders one registry-attached check per tenant.
func tenantCheckRequests(seed uint64) []*request {
	app := appScript(seed)
	out := make([]*request, tenantCount)
	for k := range out {
		out[k] = &request{
			kind:   kindCheck,
			path:   "/api/check",
			body:   mustJSON(map[string][]map[string]string{"workloads": {{"sql": app.sql, "db": tenantName(k)}}}),
			stmts:  []int{app.stmts},
			batch:  true,
			tenant: k,
		}
	}
	return out
}

// Mixed-open traffic classes and their shares.
const (
	classWarm  = "warm"
	classCold  = "cold"
	classBatch = "batch"
)

// arrival is one open-loop request: when it is due, relative to the
// start of its schedule, and which ladder step it belongs to.
type arrival struct {
	due  time.Duration
	step int
	req  *request
}

// arrivals renders a seeded Poisson schedule, one rate per step: 70%
// checks of primed warm scripts, 20% single fresh scripts and 10%
// batches of one fresh script repeated batchRepeat times. Fresh scripts
// all have mixedStmts statements: the heavy requests set the tail, and
// equal lengths keep it from depending on the seed's draw of lengths.
func arrivals(seed, arrStream, freshStream uint64, rates []float64, step time.Duration, warm []*request) []arrival {
	r := newRand(seed, arrStream, 0)
	var out []arrival
	fresh := 0
	for si, rate := range rates {
		start := time.Duration(si) * step
		t := start
		for {
			t += time.Duration(r.ExpFloat64() / rate * float64(time.Second))
			if t >= start+step {
				break
			}
			var req *request
			switch roll := r.Float64(); {
			case roll < 0.7:
				req = warm[r.IntN(len(warm))]
			case roll < 0.9:
				req = queryRequest(corpusScript(subSeed(seed, freshStream, fresh), mixedStmts, mixedStmts))
				req.class = classCold
				fresh++
			default:
				s := corpusScript(subSeed(seed, freshStream, fresh), mixedStmts, mixedStmts)
				fresh++
				ss := make([]script, batchRepeat)
				for i := range ss {
					ss[i] = s
				}
				req = queriesRequest(ss)
				req.class = classBatch
			}
			out = append(out, arrival{due: t, step: si, req: req})
		}
	}
	return out
}
