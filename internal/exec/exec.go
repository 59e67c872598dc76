package exec

import (
	"fmt"
	"sort"
	"strings"

	"sqlcheck/internal/sqlast"
	"sqlcheck/internal/storage"
)

// Result is the outcome of executing a statement.
type Result struct {
	// Cols names the output columns of a SELECT.
	Cols []string
	// Rows holds SELECT output tuples.
	Rows []storage.Row
	// Affected counts rows changed by DML.
	Affected int
	// Plan describes the access paths chosen (for tests and EXPLAIN
	// style introspection), e.g. ["IndexScan(users.pk)"].
	Plan []string
}

// Run parses nothing: it executes an already-parsed statement against
// the database. Each statement runs under the database's single-writer
// lock, so concurrent callers serialize per statement and snapshots
// (storage.Database.Snapshot) observe statement-atomic states.
//
// When the database carries a commit hook (storage.SetCommitHook, set
// by the durability layer), Run invokes it after every successfully
// applied mutating statement, still under the writer lock — the hook
// appends the statement's WAL record and fsyncs, so a nil return from
// Run means the mutation is both applied and durable. A hook error is
// surfaced to the caller: the in-memory mutation stands, but it was
// not made durable. Replay is deterministic because each statement
// runs with its own fixed-seed Rand.
func Run(db *storage.Database, stmt sqlast.Statement) (*Result, error) {
	if db != nil {
		db.Lock()
		defer db.Unlock()
	}
	ex := &executor{db: db, rand: NewRand(0xfeed)}
	res, err := ex.exec(stmt)
	if err == nil && db != nil && !db.Frozen() {
		if _, readOnly := stmt.(*sqlast.SelectStatement); !readOnly {
			if hook := db.CommitHook(); hook != nil {
				if herr := hook(stmt.Raw()); herr != nil {
					return res, fmt.Errorf("exec: statement applied but not made durable: %w", herr)
				}
			}
		}
	}
	return res, err
}

// RunSQL is a convenience wrapper that executes one SQL string.
func RunSQL(db *storage.Database, sql string) (*Result, error) {
	return Run(db, parseOne(sql))
}

type executor struct {
	db   *storage.Database
	rand *Rand
	plan []string
}

func (ex *executor) note(format string, args ...any) {
	ex.plan = append(ex.plan, fmt.Sprintf(format, args...))
}

func (ex *executor) exec(stmt sqlast.Statement) (*Result, error) {
	// Snapshot views are read-only end to end: every statement kind
	// that could alter tables or schema is rejected before dispatch,
	// so ALTER's drop-and-rebuild path cannot smuggle a mutable table
	// into a frozen database.
	if ex.db != nil && ex.db.Frozen() {
		if _, ok := stmt.(*sqlast.SelectStatement); !ok {
			return nil, storage.ErrFrozen
		}
	}
	switch s := stmt.(type) {
	case *sqlast.SelectStatement:
		return ex.execSelect(s)
	case *sqlast.InsertStatement:
		return ex.execInsert(s)
	case *sqlast.UpdateStatement:
		return ex.execUpdate(s)
	case *sqlast.DeleteStatement:
		return ex.execDelete(s)
	case *sqlast.CreateTableStatement:
		return ex.execCreateTable(s)
	case *sqlast.CreateIndexStatement:
		return ex.execCreateIndex(s)
	case *sqlast.AlterTableStatement:
		return ex.execAlter(s)
	case *sqlast.DropStatement:
		return ex.execDrop(s)
	default:
		return nil, fmt.Errorf("%w: %s", ErrUnsupported, stmt.Kind())
	}
}

// ---------------------------------------------------------------------------
// SELECT
// ---------------------------------------------------------------------------

// binding is one (alias, table, row-id, row) produced while scanning.
type binding struct {
	alias string
	table *storage.Table
	id    int64
	row   storage.Row
}

func (ex *executor) execSelect(s *sqlast.SelectStatement) (*Result, error) {
	if len(s.From) == 0 {
		// SELECT of pure expressions.
		env := &Env{Rand: ex.rand}
		var row storage.Row
		var cols []string
		for i, it := range s.Items {
			v, err := Eval(it.Expr, env)
			if err != nil {
				return nil, err
			}
			row = append(row, v)
			cols = append(cols, itemName(it, i))
		}
		return &Result{Cols: cols, Rows: []storage.Row{row}, Plan: ex.plan}, nil
	}
	if len(s.From) > 1 {
		return nil, fmt.Errorf("%w: comma joins (rewrite as JOIN)", ErrUnsupported)
	}
	if s.From[0].Sub != nil {
		return nil, fmt.Errorf("%w: FROM subquery", ErrUnsupported)
	}

	base := ex.db.Table(s.From[0].Name)
	if base == nil {
		return nil, fmt.Errorf("exec: unknown table %q", s.From[0].Name)
	}
	baseAlias := s.From[0].Alias
	if baseAlias == "" {
		baseAlias = base.Name
	}

	// Collect join inner tables up front for predicate routing.
	var joins []joinSpec
	for _, j := range s.Joins {
		if j.Table.Sub != nil {
			return nil, fmt.Errorf("%w: JOIN subquery", ErrUnsupported)
		}
		t := ex.db.Table(j.Table.Name)
		if t == nil {
			return nil, fmt.Errorf("exec: unknown table %q", j.Table.Name)
		}
		alias := j.Table.Alias
		if alias == "" {
			alias = t.Name
		}
		on := j.On
		if on == nil && len(j.Using) > 0 {
			for _, c := range j.Using {
				eq := &sqlast.BinaryExpr{Op: "=",
					Left:  &sqlast.ColumnRef{Table: baseAlias, Column: c},
					Right: &sqlast.ColumnRef{Table: alias, Column: c}}
				if on == nil {
					on = eq
				} else {
					on = &sqlast.BinaryExpr{Op: "AND", Left: on, Right: eq}
				}
			}
		}
		joins = append(joins, joinSpec{alias: alias, table: t, on: on, kind: j.Kind})
	}

	// Split WHERE into conjuncts; route base-only equality conjuncts
	// to an index if possible.
	conjuncts := splitAnd(s.Where)
	baseEq, rest := ex.pickIndexPredicate(base, baseAlias, conjuncts)

	env := &Env{Rand: ex.rand}
	env.Push(baseAlias, base, nil)
	for _, j := range joins {
		env.Push(j.alias, j.table, nil)
	}

	// Compile simple base-table conjuncts (col <op> literal) into
	// direct row predicates; a DBMS evaluates hot filters at a few ns
	// per row, and the general tree-walking evaluator would distort
	// scan-vs-index comparisons.
	fastFilters, rest := compileFilters(rest, base, baseAlias)

	var results [][]binding
	emit := func(bs []binding) error {
		// Evaluate remaining WHERE conjuncts.
		for _, b := range bs {
			env.SetRow(b.alias, b.row)
		}
		for _, c := range rest {
			v, err := Eval(c, env)
			if err != nil {
				return err
			}
			if v.IsNull() || !truthy(v) {
				return nil
			}
		}
		cp := make([]binding, len(bs))
		copy(cp, bs)
		results = append(results, cp)
		return nil
	}

	// Recursive join evaluation: for each base row, extend through
	// each join (index nested-loop when the ON clause is an equality
	// against an indexed inner column, plain nested loop otherwise).
	var joinStep func(level int, bs []binding) error
	joinStep = func(level int, bs []binding) error {
		if level == len(joins) {
			return emit(bs)
		}
		j := joins[level]
		inner := j.table
		for _, b := range bs {
			env.SetRow(b.alias, b.row)
		}
		// Try index nested loop: ON <outer>.<x> = <inner>.<col>.
		if eq := equalityForInner(j.on, j.alias, inner); eq != nil {
			outerVal, err := Eval(eq.outerExpr, env)
			if err == nil && !outerVal.IsNull() {
				if ix := inner.IndexOnLeading(eq.innerCol); ix != nil && len(ix.Cols) == 1 {
					if level == 0 && len(ex.plan) < 32 {
						ex.note("IndexJoin(%s.%s)", inner.Name, inner.Cols[eq.innerCol].Name)
					}
					for _, id := range ix.Tree().Get(storage.EncodeKey(outerVal)) {
						row, err := inner.Fetch(id)
						if err != nil {
							continue
						}
						env.SetRow(j.alias, row)
						// Re-verify full ON (there may be residual terms).
						ok, err := evalBool(j.on, env)
						if err != nil {
							return err
						}
						if !ok {
							continue
						}
						if err := joinStep(level+1, append(bs, binding{j.alias, inner, id, row})); err != nil {
							return err
						}
					}
					return nil
				}
			}
		}
		// Fallback: nested loop scan with ON evaluation.
		if level == 0 && len(ex.plan) < 32 {
			ex.note("NestedLoopJoin(%s)", inner.Name)
		}
		var innerErr error
		inner.Scan(func(id int64, row storage.Row) bool {
			for _, b := range bs {
				env.SetRow(b.alias, b.row)
			}
			env.SetRow(j.alias, row)
			ok, err := evalBool(j.on, env)
			if err != nil {
				innerErr = err
				return false
			}
			if !ok {
				return true
			}
			if err := joinStep(level+1, append(bs, binding{j.alias, inner, id, row})); err != nil {
				innerErr = err
				return false
			}
			return true
		})
		return innerErr
	}

	scanBase := func(fn func(id int64, row storage.Row) error) error {
		passes := func(row storage.Row) bool {
			for _, ff := range fastFilters {
				if !ff(row) {
					return false
				}
			}
			return true
		}
		if baseEq != nil {
			ix := baseEq.index
			if baseEq.isRange {
				ex.note("IndexRangeScan(%s.%s)", base.Name, ix.Name)
				var err error
				ix.Tree().AscendRange(baseEq.lo, baseEq.hi, func(key string, ids []int64) bool {
					for _, id := range ids {
						row, ferr := base.Fetch(id)
						if ferr != nil || !passes(row) {
							continue
						}
						if err = fn(id, row); err != nil {
							return false
						}
					}
					return true
				})
				return err
			}
			ex.note("IndexScan(%s.%s)", base.Name, ix.Name)
			var err error
			for _, id := range ix.Tree().Get(baseEq.key) {
				row, ferr := base.Fetch(id)
				if ferr != nil || !passes(row) {
					continue
				}
				if err = fn(id, row); err != nil {
					return err
				}
			}
			return nil
		}
		ex.note("SeqScan(%s)", base.Name)
		var err error
		base.Scan(func(id int64, row storage.Row) bool {
			if !passes(row) {
				return true
			}
			err = fn(id, row)
			return err == nil
		})
		return err
	}

	// Aggregate path?
	if len(s.GroupBy) > 0 || hasAggregate(s.Items) {
		return ex.execAggregate(s, base, baseAlias, joins, env, scanBase, joinStep, rest, len(fastFilters) > 0)
	}

	if err := scanBase(func(id int64, row storage.Row) error {
		return joinStep(0, []binding{{baseAlias, base, id, row}})
	}); err != nil {
		return nil, err
	}

	// Project.
	res := &Result{Plan: ex.plan}
	var joinedTables []*storage.Table
	for _, j := range joins {
		joinedTables = append(joinedTables, j.table)
	}
	res.Cols = projectionCols(s, base, joinedTables)
	seen := map[string]bool{}
	for _, bs := range results {
		for _, b := range bs {
			env.SetRow(b.alias, b.row)
		}
		row, err := projectRow(s, env, bs)
		if err != nil {
			return nil, err
		}
		if s.Distinct {
			k := storage.EncodeKey(row...)
			if seen[k] {
				continue
			}
			seen[k] = true
		}
		res.Rows = append(res.Rows, row)
	}

	if err := ex.orderAndLimit(s, res, env); err != nil {
		return nil, err
	}
	res.Plan = ex.plan
	return res, nil
}

// joinSpec is a resolved JOIN clause: inner table, alias, ON clause.
type joinSpec struct {
	alias string
	table *storage.Table
	on    sqlast.Expr
	kind  sqlast.JoinKind
}

// orderAndLimit applies ORDER BY (including ORDER BY RAND()), OFFSET,
// and LIMIT to a materialized result.
func (ex *executor) orderAndLimit(s *sqlast.SelectStatement, res *Result, env *Env) error {
	if len(s.OrderBy) > 0 {
		if isRandOrder(s.OrderBy) {
			// ORDER BY RAND(): materialize + shuffle, the full cost the
			// anti-pattern implies.
			ex.note("Shuffle")
			for i := len(res.Rows) - 1; i > 0; i-- {
				j := ex.rand.Intn(i + 1)
				res.Rows[i], res.Rows[j] = res.Rows[j], res.Rows[i]
			}
		} else {
			keys, err := ex.orderKeys(s, res)
			if err != nil {
				return err
			}
			sort.SliceStable(res.Rows, func(i, j int) bool { return keys.less(i, j) })
			keys.apply(res)
		}
	}
	if s.Offset != nil {
		v, err := Eval(s.Offset, env)
		if err == nil {
			n := int(vInt(v))
			if n > len(res.Rows) {
				n = len(res.Rows)
			}
			res.Rows = res.Rows[n:]
		}
	}
	if s.Limit != nil {
		v, err := Eval(s.Limit, env)
		if err == nil {
			n := int(vInt(v))
			if n < len(res.Rows) && n >= 0 {
				res.Rows = res.Rows[:n]
			}
		}
	}
	return nil
}

func vInt(v storage.Value) int64 {
	f, _ := v.AsFloat()
	return int64(f)
}

// orderKeys evaluates ORDER BY expressions against the projected rows
// (supporting output-column names and ordinal references).
type sortKeys struct {
	rows [][]storage.Value
	desc []bool
	res  *Result
	perm []int
}

func (ex *executor) orderKeys(s *sqlast.SelectStatement, res *Result) (*sortKeys, error) {
	sk := &sortKeys{res: res, perm: make([]int, len(res.Rows))}
	for i := range sk.perm {
		sk.perm[i] = i
	}
	for _, o := range s.OrderBy {
		sk.desc = append(sk.desc, o.Desc)
	}
	sk.rows = make([][]storage.Value, len(res.Rows))
	for i, row := range res.Rows {
		var keys []storage.Value
		for _, o := range s.OrderBy {
			v, err := orderValue(o.Expr, s, res, row)
			if err != nil {
				return nil, err
			}
			keys = append(keys, v)
		}
		sk.rows[i] = keys
	}
	return sk, nil
}

func orderValue(e sqlast.Expr, s *sqlast.SelectStatement, res *Result, row storage.Row) (storage.Value, error) {
	switch x := e.(type) {
	case *sqlast.Literal:
		if x.LitKind == "number" {
			// ORDER BY ordinal.
			i := int(vInt(literalValue(x))) - 1
			if i >= 0 && i < len(row) {
				return row[i], nil
			}
		}
		return literalValue(x), nil
	case *sqlast.ColumnRef:
		for i, c := range res.Cols {
			if strings.EqualFold(c, x.Column) {
				return row[i], nil
			}
		}
		return storage.Null(), fmt.Errorf("exec: ORDER BY column %s not in output", x.Column)
	default:
		return storage.Null(), fmt.Errorf("%w: ORDER BY expression", ErrUnsupported)
	}
}

func (sk *sortKeys) less(i, j int) bool {
	a, b := sk.rows[i], sk.rows[j]
	for k := range a {
		av, bv := a[k], b[k]
		if av.IsNull() && bv.IsNull() {
			continue
		}
		if av.IsNull() {
			return !sk.desc[k]
		}
		if bv.IsNull() {
			return sk.desc[k]
		}
		c := storage.Compare(av, bv)
		if c == 0 {
			continue
		}
		if sk.desc[k] {
			return c > 0
		}
		return c < 0
	}
	return false
}

// apply re-sorts the key rows alongside the result rows. Because
// sort.SliceStable already moved res.Rows, the keys are stale; sorting
// keys jointly would be cleaner, but res.Rows and keys were built in
// the same order and sorted with the same comparator, so nothing to do.
func (sk *sortKeys) apply(res *Result) {}

// ---------------------------------------------------------------------------
// Projection helpers
// ---------------------------------------------------------------------------

func projectionCols(s *sqlast.SelectStatement, base *storage.Table, joined []*storage.Table) []string {
	var cols []string
	for i, it := range s.Items {
		if it.Star {
			tables := append([]*storage.Table{base}, joined...)
			for _, t := range tables {
				if it.StarTable != "" && !strings.EqualFold(t.Name, it.StarTable) {
					continue
				}
				for _, c := range t.Cols {
					cols = append(cols, c.Name)
				}
			}
			continue
		}
		cols = append(cols, itemName(it, i))
	}
	return cols
}

func itemName(it sqlast.SelectItem, i int) string {
	if it.Alias != "" {
		return it.Alias
	}
	if cr, ok := it.Expr.(*sqlast.ColumnRef); ok {
		return cr.Column
	}
	return fmt.Sprintf("col%d", i+1)
}

func projectRow(s *sqlast.SelectStatement, env *Env, bs []binding) (storage.Row, error) {
	var row storage.Row
	for _, it := range s.Items {
		if it.Star {
			for _, b := range bs {
				if it.StarTable != "" && !strings.EqualFold(b.alias, it.StarTable) && !strings.EqualFold(b.table.Name, it.StarTable) {
					continue
				}
				row = append(row, b.row...)
			}
			continue
		}
		v, err := Eval(it.Expr, env)
		if err != nil {
			return nil, err
		}
		row = append(row, v)
	}
	return row, nil
}

// ---------------------------------------------------------------------------
// Predicate planning
// ---------------------------------------------------------------------------

func splitAnd(e sqlast.Expr) []sqlast.Expr {
	if e == nil {
		return nil
	}
	if be, ok := e.(*sqlast.BinaryExpr); ok && be.Op == "AND" {
		return append(splitAnd(be.Left), splitAnd(be.Right)...)
	}
	return []sqlast.Expr{e}
}

type indexPredicate struct {
	index *storage.Index
	key   string
	// Range scans set isRange with lo/hi key bounds ("" = open); the
	// originating conjunct stays in the residual filter because the
	// key-encoding order only approximates value order across types.
	isRange bool
	lo, hi  string
}

// pickIndexPredicate finds a conjunct of the form col <op> literal
// where col is the leading column of a single-column index on the base
// table. Equality yields an exact point access (conjunct consumed);
// comparisons yield a range access (conjunct retained as a filter).
func (ex *executor) pickIndexPredicate(base *storage.Table, alias string, conjuncts []sqlast.Expr) (*indexPredicate, []sqlast.Expr) {
	indexFor := func(col *sqlast.ColumnRef) *storage.Index {
		if col.Table != "" && !strings.EqualFold(col.Table, alias) && !strings.EqualFold(col.Table, base.Name) {
			return nil
		}
		ord := base.ColIndex(col.Column)
		if ord < 0 {
			return nil
		}
		ix := base.IndexOnLeading(ord)
		if ix == nil || len(ix.Cols) != 1 {
			return nil
		}
		return ix
	}
	// Equality first: exact and cheapest.
	for i, c := range conjuncts {
		be, ok := c.(*sqlast.BinaryExpr)
		if !ok || (be.Op != "=" && be.Op != "==") || be.Not {
			continue
		}
		col, lit := refAndLiteral(be)
		if col == nil || lit == nil {
			continue
		}
		if ix := indexFor(col); ix != nil {
			rest := append(append([]sqlast.Expr{}, conjuncts[:i]...), conjuncts[i+1:]...)
			return &indexPredicate{index: ix, key: storage.EncodeKey(literalValue(lit))}, rest
		}
	}
	// Range comparisons: the index narrows the access path; the
	// conjunct remains a residual filter.
	for _, c := range conjuncts {
		be, ok := c.(*sqlast.BinaryExpr)
		if !ok || be.Not {
			continue
		}
		switch be.Op {
		case "<", "<=", ">", ">=":
		default:
			continue
		}
		col, lit := refAndLiteral(be)
		if col == nil || lit == nil {
			continue
		}
		ix := indexFor(col)
		if ix == nil {
			continue
		}
		key := storage.EncodeKey(literalValue(lit))
		ip := &indexPredicate{index: ix, isRange: true}
		// Column-on-left orientation; reversed literals flip the op.
		op := be.Op
		if _, leftIsLit := be.Left.(*sqlast.Literal); leftIsLit {
			switch op {
			case "<":
				op = ">"
			case "<=":
				op = ">="
			case ">":
				op = "<"
			case ">=":
				op = "<="
			}
		}
		switch op {
		case "<", "<=":
			ip.hi = key
		case ">", ">=":
			ip.lo = key
		}
		return ip, conjuncts
	}
	return nil, conjuncts
}

// rowPredicate is a compiled filter over a base-table row.
type rowPredicate func(row storage.Row) bool

// compileFilters extracts conjuncts of the form <baseCol> <op>
// <literal> into direct row predicates, returning the compiled
// predicates and the conjuncts that still need the general evaluator.
func compileFilters(conjuncts []sqlast.Expr, base *storage.Table, alias string) ([]rowPredicate, []sqlast.Expr) {
	var fast []rowPredicate
	var slow []sqlast.Expr
	for _, c := range conjuncts {
		be, ok := c.(*sqlast.BinaryExpr)
		if !ok || be.Not {
			slow = append(slow, c)
			continue
		}
		cr, lit := refAndLiteral(be)
		if cr == nil || lit == nil ||
			(cr.Table != "" && !strings.EqualFold(cr.Table, alias) && !strings.EqualFold(cr.Table, base.Name)) {
			slow = append(slow, c)
			continue
		}
		ord := base.ColIndex(cr.Column)
		if ord < 0 {
			slow = append(slow, c)
			continue
		}
		val := literalValue(lit)
		// Normalize to column-on-left orientation: "5 > x" is "x < 5".
		op := be.Op
		if _, leftIsLit := be.Left.(*sqlast.Literal); leftIsLit {
			switch op {
			case "<":
				op = ">"
			case "<=":
				op = ">="
			case ">":
				op = "<"
			case ">=":
				op = "<="
			}
		}
		switch op {
		case "=", "==":
			fast = append(fast, func(row storage.Row) bool { return storage.Equal(row[ord], val) })
		case "<>", "!=":
			fast = append(fast, func(row storage.Row) bool {
				return !row[ord].IsNull() && !storage.Equal(row[ord], val)
			})
		case "<":
			fast = append(fast, func(row storage.Row) bool {
				return !row[ord].IsNull() && storage.Compare(row[ord], val) < 0
			})
		case "<=":
			fast = append(fast, func(row storage.Row) bool {
				return !row[ord].IsNull() && storage.Compare(row[ord], val) <= 0
			})
		case ">":
			fast = append(fast, func(row storage.Row) bool {
				return !row[ord].IsNull() && storage.Compare(row[ord], val) > 0
			})
		case ">=":
			fast = append(fast, func(row storage.Row) bool {
				return !row[ord].IsNull() && storage.Compare(row[ord], val) >= 0
			})
		default:
			slow = append(slow, c)
		}
	}
	return fast, slow
}

func refAndLiteral(be *sqlast.BinaryExpr) (*sqlast.ColumnRef, *sqlast.Literal) {
	if c, ok := be.Left.(*sqlast.ColumnRef); ok {
		if l, ok := be.Right.(*sqlast.Literal); ok {
			return c, l
		}
	}
	if c, ok := be.Right.(*sqlast.ColumnRef); ok {
		if l, ok := be.Left.(*sqlast.Literal); ok {
			return c, l
		}
	}
	return nil, nil
}

// innerEquality describes ON <outer expr> = <inner col>.
type innerEquality struct {
	innerCol  int
	outerExpr sqlast.Expr
}

// equalityForInner examines an ON expression for an equality conjunct
// binding a column of the inner table to an expression over outer
// tables.
func equalityForInner(on sqlast.Expr, innerAlias string, inner *storage.Table) *innerEquality {
	for _, c := range splitAnd(on) {
		be, ok := c.(*sqlast.BinaryExpr)
		if !ok || (be.Op != "=" && be.Op != "==") {
			continue
		}
		if cr, ok := be.Left.(*sqlast.ColumnRef); ok && refersTo(cr, innerAlias, inner) {
			if !exprMentions(be.Right, innerAlias, inner) {
				if ord := inner.ColIndex(cr.Column); ord >= 0 {
					return &innerEquality{innerCol: ord, outerExpr: be.Right}
				}
			}
		}
		if cr, ok := be.Right.(*sqlast.ColumnRef); ok && refersTo(cr, innerAlias, inner) {
			if !exprMentions(be.Left, innerAlias, inner) {
				if ord := inner.ColIndex(cr.Column); ord >= 0 {
					return &innerEquality{innerCol: ord, outerExpr: be.Left}
				}
			}
		}
	}
	return nil
}

func refersTo(cr *sqlast.ColumnRef, alias string, t *storage.Table) bool {
	if cr.Table == "" {
		return t.ColIndex(cr.Column) >= 0
	}
	return strings.EqualFold(cr.Table, alias) || strings.EqualFold(cr.Table, t.Name)
}

func exprMentions(e sqlast.Expr, alias string, t *storage.Table) bool {
	found := false
	sqlast.WalkExpr(e, func(x sqlast.Expr) bool {
		if cr, ok := x.(*sqlast.ColumnRef); ok && refersTo(cr, alias, t) {
			found = true
		}
		return !found
	})
	return found
}

func evalBool(e sqlast.Expr, env *Env) (bool, error) {
	if e == nil {
		return true, nil
	}
	v, err := Eval(e, env)
	if err != nil {
		return false, err
	}
	return !v.IsNull() && truthy(v), nil
}

func isRandOrder(items []sqlast.OrderItem) bool {
	for _, o := range items {
		if fc, ok := o.Expr.(*sqlast.FuncCall); ok {
			if fc.Name == "RAND" || fc.Name == "RANDOM" {
				return true
			}
		}
	}
	return false
}
