package exec

import (
	"fmt"
	"slices"
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
	env := &Env{Rand: ex.rand}
	env.Push(baseAlias, base, nil)

	// Resolve the joins, one env frame each after the base table's.
	var joins []joinSpec
	for _, j := range s.Joins {
		switch j.Kind {
		case "LEFT", "RIGHT", "FULL":
			return nil, fmt.Errorf("%w: %s JOIN", ErrUnsupported, j.Kind)
		}
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
		if on == nil {
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
		joins = append(joins, joinSpec{table: t, on: on, eq: equalityForInner(on, alias, t)})
		env.Push(alias, t, nil)
	}

	if err := resolveSelect(s, joins, env); err != nil {
		return nil, err
	}
	// HAVING makes a query grouped, as in SQL: without GROUP BY its
	// rows form one group.
	if len(s.GroupBy) > 0 || s.Having != nil || hasAggregate(s.Items) {
		return ex.execAggregate(s, base, baseAlias, joins, env)
	}

	res := &Result{Cols: projectionCols(s, env)}
	// ORDER BY may also name an output column, a select-list alias.
	for _, o := range s.OrderBy {
		if err := resolveRefs(env, res.Cols, o.Expr); err != nil {
			return nil, err
		}
	}
	var seen map[string]bool
	if s.Distinct {
		seen = map[string]bool{}
	}
	if err := ex.walk(base, baseAlias, s.Where, joins, env, func(int64) error {
		row, err := projectRow(s, env)
		if err != nil {
			return err
		}
		if seen != nil {
			k := storage.EncodeKey(row...)
			if seen[k] {
				return nil
			}
			seen[k] = true
		}
		res.Rows = append(res.Rows, row)
		return nil
	}); err != nil {
		return nil, err
	}

	if err := ex.orderAndLimit(s, res); err != nil {
		return nil, err
	}
	res.Plan = ex.plan
	return res, nil
}

// joinSpec is a resolved JOIN clause: inner table, ON clause (USING
// expanded), and the ON equality an index nested loop can probe, if
// any. indexNoted and loopNoted record which accesses the plan
// already names, so each is noted once per statement, on the first
// probe that takes it.
type joinSpec struct {
	table                 *storage.Table
	on                    sqlast.Expr
	eq                    *innerEquality
	indexNoted, loopNoted bool
}

// walk is the one access and join walk of SELECT, UPDATE and DELETE.
// It plans the base table's access (planScan), reads it (scanTable),
// and extends each row read through the joins: an index nested loop
// when probeIndex accepts the ON equality's outer value, a
// nested-loop scan otherwise. Each table's current row is bound in
// env, whose frames are the base table's and then the joins', in
// order. Every combination that passes the WHERE conjuncts the access
// path left over goes to leaf, with the base row's id.
func (ex *executor) walk(base *storage.Table, alias string, where sqlast.Expr, joins []joinSpec, env *Env, leaf func(id int64) error) error {
	plan, rest := planScan(base, alias, where)
	w := walker{ex: ex, env: env, joins: joins, rest: rest}
	return ex.scanTable(plan, func(id int64, row storage.Row) error {
		env.frames[0].row = row
		return w.join(0, id, leaf)
	})
}

// walker carries one walk's state down its joins. The leaf travels as
// a parameter: held in the struct it would escape with env, moving
// every variable it captures to the heap.
type walker struct {
	ex    *executor
	env   *Env
	joins []joinSpec
	rest  []sqlast.Expr
}

// join binds each row of joins[level] that matches the rows bound so
// far, then walks the next level; past the last join it applies the
// residual WHERE conjuncts and calls the leaf.
func (w *walker) join(level int, id int64, leaf func(id int64) error) error {
	if level == len(w.joins) {
		for _, c := range w.rest {
			if ok, err := evalBool(c, w.env); err != nil || !ok {
				return err
			}
		}
		return leaf(id)
	}
	j := &w.joins[level]
	frame := &w.env.frames[level+1]
	next := func(row storage.Row) error {
		frame.row = row
		if ok, err := evalBool(j.on, w.env); err != nil || !ok {
			return err
		}
		return w.join(level+1, id, leaf)
	}
	if j.eq != nil {
		if v, err := Eval(j.eq.outerExpr, w.env); err == nil {
			if ix := probeIndex(j.table, j.eq.innerCol, v); ix != nil {
				if !j.indexNoted {
					j.indexNoted = true
					w.ex.note("IndexJoin(%s.%s)", j.table.Name, j.table.Cols[j.eq.innerCol].Name)
				}
				for _, innerID := range ix.Tree().Get(storage.EncodeKey(v)) {
					row, err := j.table.Fetch(innerID)
					if err != nil {
						continue
					}
					// Re-verify the full ON: it may hold residual terms.
					if err := next(row); err != nil {
						return err
					}
				}
				return nil
			}
		}
	}
	if !j.loopNoted {
		j.loopNoted = true
		w.ex.note("NestedLoopJoin(%s)", j.table.Name)
	}
	var err error
	j.table.Scan(func(_ int64, row storage.Row) bool {
		err = next(row)
		return err == nil
	})
	return err
}

// orderAndLimit applies ORDER BY (including ORDER BY RAND()), OFFSET,
// and LIMIT to a materialized result. A term or bound it cannot
// evaluate fails the statement.
func (ex *executor) orderAndLimit(s *sqlast.SelectStatement, res *Result) error {
	if len(s.OrderBy) > 0 {
		if isRandOrder(s.OrderBy) {
			// ORDER BY RAND(): materialize + shuffle, the full cost the
			// anti-pattern implies.
			ex.note("Shuffle")
			for i := len(res.Rows) - 1; i > 0; i-- {
				j := ex.rand.Intn(i + 1)
				res.Rows[i], res.Rows[j] = res.Rows[j], res.Rows[i]
			}
		} else if err := sortRows(s, res); err != nil {
			return err
		}
	}
	return paginate(s, res)
}

// paginate applies OFFSET, then LIMIT, to ordered result rows. The
// bounds evaluate with no table bound, so a column reference in one
// fails. A negative OFFSET skips no rows, and a negative LIMIT means
// no limit.
func paginate(s *sqlast.SelectStatement, res *Result) error {
	var bounds Env
	if s.Offset != nil {
		v, err := Eval(s.Offset, &bounds)
		if err != nil {
			return err
		}
		if n := min(int(vInt(v)), len(res.Rows)); n > 0 {
			res.Rows = res.Rows[n:]
		}
	}
	if s.Limit != nil {
		v, err := Eval(s.Limit, &bounds)
		if err != nil {
			return err
		}
		if n := int(vInt(v)); n >= 0 && n < len(res.Rows) {
			res.Rows = res.Rows[:n]
		}
	}
	return nil
}

func vInt(v storage.Value) int64 {
	f, _ := v.AsFloat()
	return int64(f)
}

// sortRows orders res.Rows by the statement's ORDER BY expressions,
// evaluated against the projected rows (output-column names, ordinal
// references and repeated select items resolve to their columns).
// Each row moves together with its sort keys, so the comparator always
// reads the keys of the rows it compares. On an error res.Rows is left
// as it was.
func sortRows(s *sqlast.SelectStatement, res *Result) error {
	if len(res.Rows) == 0 {
		// Check the terms against a row of NULLs, so an empty result
		// fails as a full one would.
		probe := make(storage.Row, len(res.Cols))
		for _, o := range s.OrderBy {
			if _, err := orderValue(o.Expr, s, res, probe); err != nil {
				return err
			}
		}
		return nil
	}
	type keyedRow struct {
		keys []storage.Value
		row  storage.Row
	}
	rows := make([]keyedRow, len(res.Rows))
	for i, row := range res.Rows {
		keys := make([]storage.Value, len(s.OrderBy))
		for k, o := range s.OrderBy {
			v, err := orderValue(o.Expr, s, res, row)
			if err != nil {
				return err
			}
			keys[k] = v
		}
		rows[i] = keyedRow{keys: keys, row: row}
	}
	sort.SliceStable(rows, func(i, j int) bool { return keysLess(rows[i].keys, rows[j].keys, s.OrderBy) })
	for i := range rows {
		res.Rows[i] = rows[i].row
	}
	return nil
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
		// A term that repeats a select item, such as ORDER BY
		// COUNT(*), sorts by that item's column. A star makes the
		// columns after it move, so items past one are not matched.
		for i, it := range s.Items {
			if it.Star {
				break
			}
			if sameExpr(e, it.Expr) {
				return row[i], nil
			}
		}
		return storage.Null(), fmt.Errorf("%w: ORDER BY expression", ErrUnsupported)
	}
}

// keysLess orders two rows' sort keys: NULL first ascending and last
// descending, ties broken by the next key.
func keysLess(a, b []storage.Value, order []sqlast.OrderItem) bool {
	for k := range a {
		av, bv, desc := a[k], b[k], order[k].Desc
		if av.IsNull() && bv.IsNull() {
			continue
		}
		if av.IsNull() {
			return !desc
		}
		if bv.IsNull() {
			return desc
		}
		c := storage.Compare(av, bv)
		if c == 0 {
			continue
		}
		if desc {
			return c > 0
		}
		return c < 0
	}
	return false
}

// resolveRefs resolves the column references in exprs, outside
// subqueries, when a statement is planned: env's frames hold no row
// yet, so a known column reads NULL, and an unknown one fails the
// statement whatever rows its access path would reach. A bare name in
// also is known too.
func resolveRefs(env *Env, also []string, exprs ...sqlast.Expr) error {
	var err error
	for _, e := range exprs {
		sqlast.WalkExpr(e, func(x sqlast.Expr) bool {
			if ref, ok := x.(*sqlast.ColumnRef); ok && err == nil {
				if _, err = env.Resolve(ref); err != nil && slices.ContainsFunc(also, func(n string) bool { return strings.EqualFold(n, ref.Column) }) {
					err = nil
				}
			}
			_, sub := x.(*sqlast.SubQuery)
			return err == nil && !sub
		})
	}
	return err
}

// resolveSelect resolves a SELECT's WHERE, ON clauses, GROUP BY,
// select list and HAVING. A grouped query's select list and HAVING
// may name a GROUP BY column by its bare name, as the group
// evaluation reads them. ORDER BY resolves in execSelect, against the
// output columns too; a grouped query's ORDER BY is checked by its
// sort, against the groups' output columns.
func resolveSelect(s *sqlast.SelectStatement, joins []joinSpec, env *Env) error {
	exprs := []sqlast.Expr{s.Where}
	for _, j := range joins {
		exprs = append(exprs, j.on)
	}
	if err := resolveRefs(env, nil, append(exprs, s.GroupBy...)...); err != nil {
		return err
	}
	var groupCols []string
	for _, g := range s.GroupBy {
		if gc, ok := g.(*sqlast.ColumnRef); ok {
			groupCols = append(groupCols, gc.Column)
		}
	}
	exprs = exprs[:0]
	for _, it := range s.Items {
		exprs = append(exprs, it.Expr)
	}
	return resolveRefs(env, groupCols, append(exprs, s.Having)...)
}

// ---------------------------------------------------------------------------
// Projection helpers
// ---------------------------------------------------------------------------

// projectionCols names the output columns; a star expands to the
// columns of the tables bound in env that it selects.
func projectionCols(s *sqlast.SelectStatement, env *Env) []string {
	var cols []string
	for i, it := range s.Items {
		if it.Star {
			for _, f := range env.frames {
				if starSelects(it, f) {
					for _, c := range f.table.Cols {
						cols = append(cols, c.Name)
					}
				}
			}
			continue
		}
		cols = append(cols, itemName(it, i))
	}
	return cols
}

// starSelects reports whether the star item it covers frame f's table:
// a bare star covers every table, t.* the table named or aliased t.
func starSelects(it sqlast.SelectItem, f frame) bool {
	return it.StarTable == "" || strings.EqualFold(f.alias, it.StarTable) || strings.EqualFold(f.table.Name, it.StarTable)
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

// projectRow evaluates the select list over the rows bound in env.
func projectRow(s *sqlast.SelectStatement, env *Env) (storage.Row, error) {
	var row storage.Row
	for _, it := range s.Items {
		if it.Star {
			for _, f := range env.frames {
				if starSelects(it, f) {
					row = append(row, f.row...)
				}
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
// Access planning
// ---------------------------------------------------------------------------

// scanPlan is a statement's access to its base table: a point access
// at key, or a range access from lo to hi ("" = open) when isRange, of
// index, or a sequential scan when index is nil; filters are the
// simple conjuncts compiled to row predicates. A range access keeps
// its conjunct as a filter, which drops the NULL keys a range with no
// lower bound walks.
type scanPlan struct {
	table   *storage.Table
	index   *storage.Index
	key     string
	isRange bool
	lo, hi  string
	filters []rowPredicate
}

// planScan splits where into conjuncts, picks t's access path from
// them and compiles those it can; it returns the plan and the
// conjuncts left for the general evaluator.
func planScan(t *storage.Table, alias string, where sqlast.Expr) (scanPlan, []sqlast.Expr) {
	p, rest := pickIndexPredicate(t, alias, sqlast.Conjuncts(where))
	p.filters, rest = compileFilters(rest, t, alias)
	return p, rest
}

// scanTable notes the plan's access path and calls fn for every row it
// reads that passes the plan's filters, stopping at fn's first error.
func (ex *executor) scanTable(p scanPlan, fn func(id int64, row storage.Row) error) error {
	t := p.table
	var err error
	visit := func(id int64, row storage.Row) bool {
		for _, f := range p.filters {
			if !f(row) {
				return true
			}
		}
		err = fn(id, row)
		return err == nil
	}
	fetch := func(ids []int64) bool {
		for _, id := range ids {
			row, ferr := t.Fetch(id)
			if ferr == nil && !visit(id, row) {
				return false
			}
		}
		return true
	}
	switch {
	case p.index == nil:
		ex.note("SeqScan(%s)", t.Name)
		t.Scan(visit)
	case p.isRange:
		ex.note("IndexRangeScan(%s.%s)", t.Name, p.index.Name)
		p.index.Tree().AscendRange(p.lo, p.hi, func(_ string, ids []int64) bool { return fetch(ids) })
	default:
		ex.note("IndexScan(%s.%s)", t.Name, p.index.Name)
		fetch(p.index.Tree().Get(p.key))
	}
	return err
}

// probeIndex returns the single-column index on t's column col when it
// answers an equality or range against v exactly as a scan would: v is
// not NULL and every non-NULL key in the index has v's kind. Keys of
// another kind sort apart from v's (storage.EncodeKey), while a scan
// compares across kinds (2 = 2.0, '5' = 5), so such an index would
// drop rows the scan returns.
func probeIndex(t *storage.Table, col int, v storage.Value) *storage.Index {
	if v.IsNull() {
		return nil
	}
	ix := t.IndexOnLeading(col)
	if ix == nil || len(ix.Cols) != 1 || !ix.OnlyKind(v.Kind) {
		return nil
	}
	return ix
}

// pickIndexPredicate plans t's access from a conjunct col <op> literal
// on a column of t whose index probeIndex accepts for the literal.
// Equality, preferred, yields a point access and consumes the
// conjunct; the first comparison otherwise yields a range access. With
// neither the plan is a sequential scan.
func pickIndexPredicate(t *storage.Table, alias string, conjuncts []sqlast.Expr) (scanPlan, []sqlast.Expr) {
	p := scanPlan{table: t}
	for i, c := range conjuncts {
		ord, op, v, ok := columnOp(c, t, alias)
		if !ok {
			continue
		}
		ix := probeIndex(t, ord, v)
		if ix == nil {
			continue
		}
		switch op {
		case "=", "==":
			rest := append(append([]sqlast.Expr{}, conjuncts[:i]...), conjuncts[i+1:]...)
			return scanPlan{table: t, index: ix, key: storage.EncodeKey(v)}, rest
		case "<", "<=", ">", ">=":
			if p.index == nil {
				p.index, p.isRange = ix, true
				if op[0] == '<' {
					p.hi = storage.EncodeKey(v)
				} else {
					p.lo = storage.EncodeKey(v)
				}
			}
		}
	}
	return p, conjuncts
}

// rowPredicate is a compiled filter over a base-table row.
type rowPredicate func(row storage.Row) bool

// compileFilters compiles conjuncts of the form <column> <op>
// <literal> into direct row predicates, returning them and the
// conjuncts that still need the general evaluator. A DBMS evaluates
// hot filters at a few ns per row, and the tree-walking evaluator
// would distort scan-versus-index comparisons.
func compileFilters(conjuncts []sqlast.Expr, t *storage.Table, alias string) ([]rowPredicate, []sqlast.Expr) {
	var fast []rowPredicate
	var slow []sqlast.Expr
	for _, c := range conjuncts {
		ord, op, val, ok := columnOp(c, t, alias)
		if !ok {
			slow = append(slow, c)
			continue
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

// columnOp matches c against <column of t> <op> <literal>, either way
// round, and returns the column's ordinal, the operator as read with
// the column on the left ("5 > x" is "x < 5") and the literal's value.
func columnOp(c sqlast.Expr, t *storage.Table, alias string) (int, string, storage.Value, bool) {
	be, ok := c.(*sqlast.BinaryExpr)
	if !ok || be.Not {
		return -1, "", storage.Value{}, false
	}
	op := be.Op
	cr, lcol := be.Left.(*sqlast.ColumnRef)
	lit, rlit := be.Right.(*sqlast.Literal)
	if !lcol || !rlit {
		cr, _ = be.Right.(*sqlast.ColumnRef)
		lit, _ = be.Left.(*sqlast.Literal)
		if cr == nil || lit == nil {
			return -1, "", storage.Value{}, false
		}
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
	if !refersTo(cr, alias, t) {
		return -1, "", storage.Value{}, false
	}
	ord := t.ColIndex(cr.Column)
	if ord < 0 {
		return -1, "", storage.Value{}, false
	}
	return ord, op, literalValue(lit), true
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
	for _, c := range sqlast.Conjuncts(on) {
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
