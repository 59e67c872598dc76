// Package exec executes parsed SQL statements against the storage
// engine. It is the measurement substrate for the paper's performance
// experiments: a small planner chooses between sequential scans, index
// lookups, index nested-loop joins, and hash vs index-streaming
// aggregation, so that anti-pattern and fixed designs differ in cost
// the same way they do on PostgreSQL (Figures 3 and 8). It runs INNER
// and CROSS joins, with ON or USING; outer joins, comma joins and
// subqueries in FROM return ErrUnsupported.
package exec

import (
	"errors"
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"sync"

	"sqlcheck/internal/sqlast"
	"sqlcheck/internal/storage"
)

// ErrUnsupported is returned for SQL constructs the executor does not
// implement.
var ErrUnsupported = errors.New("exec: unsupported SQL construct")

// Env resolves column references during evaluation. Frames are scopes:
// the current row of each table in the join, most recent last.
type Env struct {
	frames []frame
	// Rand is the deterministic random source used by RAND()/RANDOM().
	Rand *Rand
}

type frame struct {
	alias string // alias or table name, lower-cased ("" matches any)
	table *storage.Table
	row   storage.Row
}

// Push adds a binding frame for a table row.
func (e *Env) Push(alias string, t *storage.Table, row storage.Row) {
	e.frames = append(e.frames, frame{alias: strings.ToLower(alias), table: t, row: row})
}

// Pop removes the most recent frame.
func (e *Env) Pop() { e.frames = e.frames[:len(e.frames)-1] }

// Resolve finds the value of a column reference.
func (e *Env) Resolve(ref *sqlast.ColumnRef) (storage.Value, error) {
	qual := strings.ToLower(ref.Table)
	for i := len(e.frames) - 1; i >= 0; i-- {
		f := &e.frames[i]
		if qual != "" && f.alias != qual && !strings.EqualFold(f.table.Name, ref.Table) {
			continue
		}
		if ord := f.table.ColIndex(ref.Column); ord >= 0 {
			if f.row == nil {
				return storage.Null(), nil
			}
			return f.row[ord], nil
		}
	}
	return storage.Null(), fmt.Errorf("exec: unknown column %s", refString(ref))
}

func refString(ref *sqlast.ColumnRef) string {
	if ref.Table != "" {
		return ref.Table + "." + ref.Column
	}
	return ref.Column
}

// Rand is a small deterministic xorshift generator so ORDER BY RAND()
// is reproducible in tests and benchmarks.
type Rand struct{ state uint64 }

// NewRand seeds a generator.
func NewRand(seed uint64) *Rand {
	if seed == 0 {
		seed = 0x853c49e6748fea9b
	}
	return &Rand{state: seed}
}

// Next returns the next pseudo-random uint64.
func (r *Rand) Next() uint64 {
	x := r.state
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	r.state = x
	return x
}

// Float64 returns a pseudo-random float in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Next()>>11) / float64(1<<53)
}

// Intn returns a pseudo-random int in [0, n).
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.Next() % uint64(n))
}

// Eval evaluates an expression under the environment with SQL NULL
// semantics: comparisons and arithmetic with NULL operands yield NULL.
func Eval(expr sqlast.Expr, env *Env) (storage.Value, error) {
	switch x := expr.(type) {
	case *sqlast.Literal:
		return literalValue(x), nil
	case *sqlast.Placeholder:
		return storage.Null(), nil
	case *sqlast.ColumnRef:
		return env.Resolve(x)
	case *sqlast.BinaryExpr:
		return evalBinary(x, env)
	case *sqlast.UnaryExpr:
		v, err := Eval(x.X, env)
		if err != nil {
			return v, err
		}
		switch x.Op {
		case "NOT":
			if v.IsNull() {
				return storage.Null(), nil
			}
			return storage.Bool(!truthy(v)), nil
		case "-":
			if v.IsNull() {
				return v, nil
			}
			if v.Kind == storage.KindInt {
				return storage.Int(-v.I), nil
			}
			f, _ := v.AsFloat()
			return storage.Float(-f), nil
		case "+":
			return v, nil
		default:
			return storage.Null(), fmt.Errorf("%w: unary %s", ErrUnsupported, x.Op)
		}
	case *sqlast.FuncCall:
		return evalFunc(x, env)
	case *sqlast.CaseExpr:
		for i, w := range x.Whens {
			c, err := Eval(w, env)
			if err != nil {
				return c, err
			}
			if !c.IsNull() && truthy(c) {
				if i < len(x.Thens) {
					return Eval(x.Thens[i], env)
				}
				return storage.Null(), nil
			}
		}
		if x.Else != nil {
			return Eval(x.Else, env)
		}
		return storage.Null(), nil
	case *sqlast.ExprList:
		// A bare list evaluates to its first element (used by BETWEEN
		// handling); IN handles lists specially.
		if len(x.Items) > 0 {
			return Eval(x.Items[0], env)
		}
		return storage.Null(), nil
	case *sqlast.Raw:
		return storage.Null(), fmt.Errorf("%w: raw fragment", ErrUnsupported)
	case *sqlast.SubQuery:
		return storage.Null(), fmt.Errorf("%w: scalar subquery", ErrUnsupported)
	default:
		return storage.Null(), fmt.Errorf("%w: %T", ErrUnsupported, expr)
	}
}

func literalValue(l *sqlast.Literal) (v storage.Value) {
	setLiteral(&v, l)
	return v
}

// setLiteral stores literal l's value in *dst, which must hold NULL
// (the zero Value). It sets fields in place: a returned Value would
// be copied through the stack on its way into a row.
func setLiteral(dst *storage.Value, l *sqlast.Literal) {
	switch l.LitKind {
	case "number":
		if i, err := strconv.ParseInt(l.Value, 10, 64); err == nil {
			dst.Kind, dst.I = storage.KindInt, i
			return
		}
		f, _ := strconv.ParseFloat(l.Value, 64)
		dst.Kind, dst.F = storage.KindFloat, f
	case "string":
		dst.Kind, dst.S = storage.KindString, l.Value
	case "bool":
		dst.Kind, dst.B = storage.KindBool, l.Value == "TRUE"
	}
}

func truthy(v storage.Value) bool {
	switch v.Kind {
	case storage.KindBool:
		return v.B
	case storage.KindInt:
		return v.I != 0
	case storage.KindFloat:
		return v.F != 0
	case storage.KindString:
		return strings.EqualFold(v.S, "true") || v.S == "1"
	default:
		return false
	}
}

func evalBinary(x *sqlast.BinaryExpr, env *Env) (storage.Value, error) {
	switch x.Op {
	case "AND":
		l, err := Eval(x.Left, env)
		if err != nil {
			return l, err
		}
		if !l.IsNull() && !truthy(l) {
			return storage.Bool(false), nil
		}
		r, err := Eval(x.Right, env)
		if err != nil {
			return r, err
		}
		if !r.IsNull() && !truthy(r) {
			return storage.Bool(false), nil
		}
		if l.IsNull() || r.IsNull() {
			return storage.Null(), nil
		}
		return storage.Bool(true), nil
	case "OR":
		l, err := Eval(x.Left, env)
		if err != nil {
			return l, err
		}
		if !l.IsNull() && truthy(l) {
			return storage.Bool(true), nil
		}
		r, err := Eval(x.Right, env)
		if err != nil {
			return r, err
		}
		if !r.IsNull() && truthy(r) {
			return storage.Bool(true), nil
		}
		if l.IsNull() || r.IsNull() {
			return storage.Null(), nil
		}
		return storage.Bool(false), nil
	case "IS":
		l, err := Eval(x.Left, env)
		if err != nil {
			return l, err
		}
		isNull := l.IsNull()
		if x.Not {
			return storage.Bool(!isNull), nil
		}
		return storage.Bool(isNull), nil
	case "IN":
		return evalIn(x, env)
	case "BETWEEN":
		l, err := Eval(x.Left, env)
		if err != nil {
			return l, err
		}
		bounds, ok := x.Right.(*sqlast.ExprList)
		if !ok || len(bounds.Items) != 2 {
			return storage.Null(), fmt.Errorf("%w: malformed BETWEEN", ErrUnsupported)
		}
		lo, err := Eval(bounds.Items[0], env)
		if err != nil {
			return lo, err
		}
		hi, err := Eval(bounds.Items[1], env)
		if err != nil {
			return hi, err
		}
		if l.IsNull() || lo.IsNull() || hi.IsNull() {
			return storage.Null(), nil
		}
		in := storage.Compare(l, lo) >= 0 && storage.Compare(l, hi) <= 0
		if x.Not {
			in = !in
		}
		return storage.Bool(in), nil
	case "LIKE", "ILIKE", "GLOB":
		return evalLike(x, env)
	case "REGEXP", "RLIKE", "SIMILAR TO", "MATCH":
		return evalRegexp(x, env)
	}

	l, err := Eval(x.Left, env)
	if err != nil {
		return l, err
	}
	r, err := Eval(x.Right, env)
	if err != nil {
		return r, err
	}
	if l.IsNull() || r.IsNull() {
		// SQL NULL propagation — including the || concatenation trap
		// behind the concatenate-nulls anti-pattern.
		return storage.Null(), nil
	}
	switch x.Op {
	case "=", "==", "<=>":
		return storage.Bool(storage.Equal(l, r)), nil
	case "<>", "!=":
		return storage.Bool(!storage.Equal(l, r)), nil
	case "<":
		return storage.Bool(storage.Compare(l, r) < 0), nil
	case "<=":
		return storage.Bool(storage.Compare(l, r) <= 0), nil
	case ">":
		return storage.Bool(storage.Compare(l, r) > 0), nil
	case ">=":
		return storage.Bool(storage.Compare(l, r) >= 0), nil
	case "||":
		return storage.Str(l.String() + r.String()), nil
	case "+", "-", "*", "/", "%":
		return evalArith(x.Op, l, r)
	default:
		return storage.Null(), fmt.Errorf("%w: operator %s", ErrUnsupported, x.Op)
	}
}

func evalArith(op string, l, r storage.Value) (storage.Value, error) {
	if l.Kind == storage.KindInt && r.Kind == storage.KindInt {
		switch op {
		case "+":
			return storage.Int(l.I + r.I), nil
		case "-":
			return storage.Int(l.I - r.I), nil
		case "*":
			return storage.Int(l.I * r.I), nil
		case "/":
			if r.I == 0 {
				return storage.Null(), nil
			}
			return storage.Int(l.I / r.I), nil
		case "%":
			if r.I == 0 {
				return storage.Null(), nil
			}
			return storage.Int(l.I % r.I), nil
		}
	}
	lf, lok := l.AsFloat()
	rf, rok := r.AsFloat()
	if !lok || !rok {
		return storage.Null(), nil
	}
	switch op {
	case "+":
		return storage.Float(lf + rf), nil
	case "-":
		return storage.Float(lf - rf), nil
	case "*":
		return storage.Float(lf * rf), nil
	case "/":
		if rf == 0 {
			return storage.Null(), nil
		}
		return storage.Float(lf / rf), nil
	case "%":
		if rf == 0 {
			return storage.Null(), nil
		}
		return storage.Float(float64(int64(lf) % int64(rf))), nil
	}
	return storage.Null(), fmt.Errorf("%w: arithmetic %s", ErrUnsupported, op)
}

func evalIn(x *sqlast.BinaryExpr, env *Env) (storage.Value, error) {
	l, err := Eval(x.Left, env)
	if err != nil {
		return l, err
	}
	if l.IsNull() {
		return storage.Null(), nil
	}
	list, ok := x.Right.(*sqlast.ExprList)
	if !ok {
		return storage.Null(), fmt.Errorf("%w: IN subquery", ErrUnsupported)
	}
	sawNull := false
	for _, it := range list.Items {
		v, err := Eval(it, env)
		if err != nil {
			return v, err
		}
		if v.IsNull() {
			sawNull = true
			continue
		}
		if storage.Equal(l, v) {
			return storage.Bool(!x.Not), nil
		}
	}
	if sawNull {
		return storage.Null(), nil
	}
	return storage.Bool(x.Not), nil
}

// patternKey identifies one compiled pattern: its text and the
// operator whose rules translate it, LIKE, ILIKE, GLOB or REGEXP.
type patternKey struct{ pattern, op string }

// patternCacheMax bounds the compiled-pattern cache: when it holds
// this many patterns it is cleared, as the cache core's admission
// doorkeeper is, so a stream of ever-new patterns cannot grow it
// without bound.
const patternCacheMax = 1 << 10

// patterns memoizes compiled patterns; pattern matching cost per row
// is part of what the pattern-matching anti-pattern measures, but
// recompilation per row would not be faithful to a DBMS.
var patterns = struct {
	sync.Mutex
	m map[patternKey]*regexp.Regexp
}{m: make(map[patternKey]*regexp.Regexp)}

// compilePattern compiles a SQL LIKE, ILIKE, GLOB or REGEXP pattern
// into a Go regexp, memoized.
func compilePattern(pattern, op string) (*regexp.Regexp, error) {
	key := patternKey{pattern, op}
	patterns.Lock()
	re, ok := patterns.m[key]
	patterns.Unlock()
	if ok {
		return re, nil
	}
	re, err := regexp.Compile(patternSource(pattern, op))
	if err != nil {
		return nil, err
	}
	patterns.Lock()
	if len(patterns.m) >= patternCacheMax {
		clear(patterns.m)
	}
	patterns.m[key] = re
	patterns.Unlock()
	return re, nil
}

// patternSource translates a pattern into regexp syntax. A REGEXP
// pattern only has its POSIX word-boundary classes translated; LIKE
// and ILIKE wildcards are % and _, GLOB's are * and ?.
func patternSource(pattern, op string) string {
	if op == "REGEXP" {
		return posixWordBoundary(pattern)
	}
	var b strings.Builder
	if op == "ILIKE" {
		b.WriteString("(?is)")
	} else {
		b.WriteString("(?s)")
	}
	b.WriteString("^")
	glob := op == "GLOB"
	for _, r := range pattern {
		switch {
		case !glob && r == '%':
			b.WriteString(".*")
		case !glob && r == '_':
			b.WriteString(".")
		case glob && r == '*':
			b.WriteString(".*")
		case glob && r == '?':
			b.WriteString(".")
		default:
			b.WriteString(regexp.QuoteMeta(string(r)))
		}
	}
	b.WriteString("$")
	return b.String()
}

// posixWordBoundary translates the MySQL/PostgreSQL word-boundary
// classes [[:<:]] and [[:>:]] (used by the paper's multi-valued
// attribute queries) into Go's \b.
func posixWordBoundary(pattern string) string {
	pattern = strings.ReplaceAll(pattern, "[[:<:]]", `\b`)
	pattern = strings.ReplaceAll(pattern, "[[:>:]]", `\b`)
	return pattern
}

func evalLike(x *sqlast.BinaryExpr, env *Env) (storage.Value, error) {
	l, err := Eval(x.Left, env)
	if err != nil {
		return l, err
	}
	r, err := Eval(x.Right, env)
	if err != nil {
		return r, err
	}
	if l.IsNull() || r.IsNull() {
		return storage.Null(), nil
	}
	pat := r.String()
	// The paper's MVA queries embed word-boundary classes inside LIKE
	// patterns; treat those as regex matches like MySQL does.
	op := x.Op
	if strings.Contains(pat, "[[:") {
		op = "REGEXP"
	}
	re, err := compilePattern(pat, op)
	if err != nil {
		return storage.Null(), err
	}
	m := re.MatchString(l.String())
	if x.Not {
		m = !m
	}
	return storage.Bool(m), nil
}

func evalRegexp(x *sqlast.BinaryExpr, env *Env) (storage.Value, error) {
	l, err := Eval(x.Left, env)
	if err != nil {
		return l, err
	}
	r, err := Eval(x.Right, env)
	if err != nil {
		return r, err
	}
	if l.IsNull() || r.IsNull() {
		return storage.Null(), nil
	}
	re, err := compilePattern(r.String(), "REGEXP")
	if err != nil {
		return storage.Null(), err
	}
	m := re.MatchString(l.String())
	if x.Not {
		m = !m
	}
	return storage.Bool(m), nil
}

func evalFunc(x *sqlast.FuncCall, env *Env) (storage.Value, error) {
	argv := func() ([]storage.Value, error) {
		vals := make([]storage.Value, len(x.Args))
		for i, a := range x.Args {
			v, err := Eval(a, env)
			if err != nil {
				return nil, err
			}
			vals[i] = v
		}
		return vals, nil
	}
	switch x.Name {
	case "COALESCE", "IFNULL", "NVL":
		for _, a := range x.Args {
			v, err := Eval(a, env)
			if err != nil {
				return v, err
			}
			if !v.IsNull() {
				return v, nil
			}
		}
		return storage.Null(), nil
	case "REPLACE":
		vals, err := argv()
		if err != nil {
			return storage.Null(), err
		}
		if len(vals) != 3 {
			return storage.Null(), fmt.Errorf("%w: REPLACE arity", ErrUnsupported)
		}
		if vals[0].IsNull() || vals[1].IsNull() || vals[2].IsNull() {
			return storage.Null(), nil
		}
		return storage.Str(strings.ReplaceAll(vals[0].String(), vals[1].String(), vals[2].String())), nil
	case "LOWER":
		return strFunc(x, env, strings.ToLower)
	case "UPPER":
		return strFunc(x, env, strings.ToUpper)
	case "TRIM":
		return strFunc(x, env, strings.TrimSpace)
	case "LENGTH", "LEN", "CHAR_LENGTH":
		vals, err := argv()
		if err != nil || len(vals) == 0 || vals[0].IsNull() {
			return storage.Null(), err
		}
		return storage.Int(int64(len(vals[0].String()))), nil
	case "ABS":
		vals, err := argv()
		if err != nil || len(vals) == 0 || vals[0].IsNull() {
			return storage.Null(), err
		}
		if vals[0].Kind == storage.KindInt {
			if vals[0].I < 0 {
				return storage.Int(-vals[0].I), nil
			}
			return vals[0], nil
		}
		f, _ := vals[0].AsFloat()
		if f < 0 {
			f = -f
		}
		return storage.Float(f), nil
	case "ROUND":
		vals, err := argv()
		if err != nil || len(vals) == 0 || vals[0].IsNull() {
			return storage.Null(), err
		}
		f, _ := vals[0].AsFloat()
		return storage.Float(float64(int64(f + 0.5*sign(f)))), nil
	case "SUBSTR", "SUBSTRING":
		vals, err := argv()
		if err != nil || len(vals) < 2 {
			return storage.Null(), err
		}
		s := vals[0].String()
		start, _ := vals[1].AsFloat()
		i := int(start) - 1
		if i < 0 {
			i = 0
		}
		if i > len(s) {
			i = len(s)
		}
		end := len(s)
		if len(vals) >= 3 {
			n, _ := vals[2].AsFloat()
			if e := i + int(n); e < end {
				end = e
			}
		}
		return storage.Str(s[i:end]), nil
	case "CONCAT":
		vals, err := argv()
		if err != nil {
			return storage.Null(), err
		}
		var b strings.Builder
		for _, v := range vals {
			if v.IsNull() {
				return storage.Null(), nil
			}
			b.WriteString(v.String())
		}
		return storage.Str(b.String()), nil
	case "RAND", "RANDOM":
		if env.Rand == nil {
			env.Rand = NewRand(1)
		}
		return storage.Float(env.Rand.Float64()), nil
	case "CAST":
		vals, err := argv()
		if err != nil || len(vals) != 2 {
			return storage.Null(), err
		}
		return castValue(vals[0], vals[1].String())
	case "EXISTS":
		return storage.Null(), fmt.Errorf("%w: EXISTS", ErrUnsupported)
	default:
		return storage.Null(), fmt.Errorf("%w: function %s", ErrUnsupported, x.Name)
	}
}

func sign(f float64) float64 {
	if f < 0 {
		return -1
	}
	return 1
}

func castValue(v storage.Value, typ string) (storage.Value, error) {
	if v.IsNull() {
		return v, nil
	}
	switch strings.ToUpper(typ) {
	case "INT", "INTEGER", "BIGINT":
		f, ok := v.AsFloat()
		if !ok {
			return storage.Null(), nil
		}
		return storage.Int(int64(f)), nil
	case "FLOAT", "REAL", "DOUBLE", "NUMERIC", "DECIMAL":
		f, ok := v.AsFloat()
		if !ok {
			return storage.Null(), nil
		}
		return storage.Float(f), nil
	case "TEXT", "VARCHAR", "CHAR", "STRING":
		return storage.Str(v.String()), nil
	case "BOOL", "BOOLEAN":
		return storage.Bool(truthy(v)), nil
	default:
		return v, nil
	}
}

func strFunc(x *sqlast.FuncCall, env *Env, fn func(string) string) (storage.Value, error) {
	if len(x.Args) == 0 {
		return storage.Null(), fmt.Errorf("%w: arity", ErrUnsupported)
	}
	v, err := Eval(x.Args[0], env)
	if err != nil || v.IsNull() {
		return v, err
	}
	return storage.Str(fn(v.String())), nil
}
