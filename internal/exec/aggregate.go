package exec

import (
	"fmt"
	"strings"

	"sqlcheck/internal/sqlast"
	"sqlcheck/internal/storage"
)

var aggregateFuncs = map[string]bool{
	"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true,
}

func hasAggregate(items []sqlast.SelectItem) bool {
	for _, it := range items {
		found := false
		sqlast.WalkExpr(it.Expr, func(e sqlast.Expr) bool {
			if fc, ok := e.(*sqlast.FuncCall); ok && aggregateFuncs[fc.Name] {
				found = true
				return false
			}
			return true
		})
		if found {
			return true
		}
	}
	return false
}

// aggState accumulates one aggregate function over a group.
type aggState struct {
	fn       string
	distinct bool
	count    int64
	sum      float64
	sumInt   int64
	intOnly  bool
	min, max storage.Value
	seen     map[string]bool
}

func newAggState(fn string, distinct bool) *aggState {
	s := &aggState{fn: fn, distinct: distinct, intOnly: true}
	if distinct {
		s.seen = map[string]bool{}
	}
	return s
}

func (a *aggState) add(v storage.Value) {
	if v.IsNull() {
		return
	}
	if a.distinct {
		k := storage.EncodeKey(v)
		if a.seen[k] {
			return
		}
		a.seen[k] = true
	}
	a.count++
	if f, ok := v.AsFloat(); ok {
		a.sum += f
		if v.Kind == storage.KindInt {
			a.sumInt += v.I
		} else {
			a.intOnly = false
		}
	}
	if a.min.IsNull() || storage.Compare(v, a.min) < 0 {
		a.min = v
	}
	if a.max.IsNull() || storage.Compare(v, a.max) > 0 {
		a.max = v
	}
}

func (a *aggState) addCountRow() { a.count++ }

func (a *aggState) result() storage.Value {
	switch a.fn {
	case "COUNT":
		return storage.Int(a.count)
	case "SUM":
		if a.count == 0 {
			return storage.Null()
		}
		if a.intOnly {
			return storage.Int(a.sumInt)
		}
		return storage.Float(a.sum)
	case "AVG":
		if a.count == 0 {
			return storage.Null()
		}
		return storage.Float(a.sum / float64(a.count))
	case "MIN":
		return a.min
	case "MAX":
		return a.max
	default:
		return storage.Null()
	}
}

// group holds the running aggregates for one GROUP BY key.
type group struct {
	keyVals []storage.Value
	aggs    []*aggState
}

// aggPlan describes the aggregate expressions extracted from the
// select list and HAVING clause.
type aggPlan struct {
	// calls are the distinct aggregate calls, in discovery order.
	calls []*sqlast.FuncCall
}

func (ap *aggPlan) indexOf(fc *sqlast.FuncCall) int {
	for i, c := range ap.calls {
		if c == fc {
			return i
		}
	}
	return -1
}

func collectAggCalls(s *sqlast.SelectStatement) *aggPlan {
	ap := &aggPlan{}
	visit := func(e sqlast.Expr) {
		sqlast.WalkExpr(e, func(x sqlast.Expr) bool {
			if fc, ok := x.(*sqlast.FuncCall); ok && aggregateFuncs[fc.Name] {
				ap.calls = append(ap.calls, fc)
				return false
			}
			return true
		})
	}
	for _, it := range s.Items {
		visit(it.Expr)
	}
	visit(s.Having)
	return ap
}

// execAggregate evaluates GROUP BY / aggregate queries. When the base
// table has an ordered index whose leading column is the single GROUP
// BY column, there are no joins, and no residual predicates, it
// streams groups off the index (the "fixed" side of the
// index-underuse grouped-aggregate experiment, Figure 8b); otherwise
// it hash-aggregates over a scan.
func (ex *executor) execAggregate(
	s *sqlast.SelectStatement,
	base *storage.Table,
	baseAlias string,
	joins []joinSpec,
	env *Env,
	scanBase func(fn func(id int64, row storage.Row) error) error,
	joinStep func(level int, bs []binding) error,
	rest []sqlast.Expr,
	hasFastFilters bool,
) (*Result, error) {
	ap := collectAggCalls(s)

	// Streaming (index) aggregation fast path.
	if len(joins) == 0 && len(rest) == 0 && !hasFastFilters && len(s.GroupBy) == 1 {
		if cr, ok := s.GroupBy[0].(*sqlast.ColumnRef); ok {
			if ord := base.ColIndex(cr.Column); ord >= 0 {
				if ix := base.IndexOnLeading(ord); ix != nil && len(ix.Cols) == 1 {
					ex.note("IndexStreamAgg(%s.%s)", base.Name, base.Cols[ord].Name)
					return ex.streamAggregate(s, base, baseAlias, ix, ord, ap, env)
				}
			}
		}
	}

	ex.note("HashAggregate")
	groups := map[string]*group{}
	var order []string

	// When there are no joins, aggregate arguments and group keys that
	// are plain base-table columns read the row directly — the hot
	// per-row path of a hash aggregate must not pay tree-walking cost.
	argOrds := compileAggArgs(ap, base, len(joins) == 0)
	groupOrds := make([]int, len(s.GroupBy))
	for i, gexpr := range s.GroupBy {
		groupOrds[i] = -1
		if len(joins) == 0 {
			if cr, ok := gexpr.(*sqlast.ColumnRef); ok {
				groupOrds[i] = base.ColIndex(cr.Column)
			}
		}
	}

	addTo := func(g *group, env *Env, baseRow storage.Row) error {
		for i, fc := range ap.calls {
			st := g.aggs[i]
			if fc.Star || len(fc.Args) == 0 {
				st.addCountRow()
				continue
			}
			if argOrds[i] >= 0 {
				st.add(baseRow[argOrds[i]])
				continue
			}
			v, err := Eval(fc.Args[0], env)
			if err != nil {
				return err
			}
			st.add(v)
		}
		return nil
	}

	collect := func(bs []binding) error {
		for _, b := range bs {
			env.SetRow(b.alias, b.row)
		}
		keyVals := make([]storage.Value, len(s.GroupBy))
		for i, gexpr := range s.GroupBy {
			if groupOrds[i] >= 0 {
				keyVals[i] = bs[0].row[groupOrds[i]]
				continue
			}
			v, err := Eval(gexpr, env)
			if err != nil {
				return err
			}
			keyVals[i] = v
		}
		key := storage.EncodeKey(keyVals...)
		g, ok := groups[key]
		if !ok {
			g = &group{keyVals: keyVals}
			for _, fc := range ap.calls {
				g.aggs = append(g.aggs, newAggState(fc.Name, fc.Distinct))
			}
			groups[key] = g
			order = append(order, key)
		}
		return addTo(g, env, bs[0].row)
	}

	// Reuse the join machinery by substituting our collector for the
	// projection emit: we re-run joinStep but capture rows via a
	// wrapper joinStep would normally emit to. Simplest correct
	// approach: scan base, extend joins recursively inline.
	var walk func(level int, bs []binding) error
	walk = func(level int, bs []binding) error {
		if level == len(joins) {
			// Residual WHERE conjuncts.
			for _, b := range bs {
				env.SetRow(b.alias, b.row)
			}
			for _, c := range rest {
				ok, err := evalBool(c, env)
				if err != nil {
					return err
				}
				if !ok {
					return nil
				}
			}
			return collect(bs)
		}
		j := joins[level]
		inner := j.table
		for _, b := range bs {
			env.SetRow(b.alias, b.row)
		}
		if eq := equalityForInner(j.on, j.alias, inner); eq != nil {
			outerVal, err := Eval(eq.outerExpr, env)
			if err == nil {
				if ix := probeIndex(inner, eq.innerCol, outerVal); ix != nil {
					for _, id := range ix.Tree().Get(storage.EncodeKey(outerVal)) {
						row, ferr := inner.Fetch(id)
						if ferr != nil {
							continue
						}
						env.SetRow(j.alias, row)
						ok, err := evalBool(j.on, env)
						if err != nil {
							return err
						}
						if !ok {
							continue
						}
						if err := walk(level+1, append(bs, binding{j.alias, inner, id, row})); err != nil {
							return err
						}
					}
					return nil
				}
			}
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
			if err := walk(level+1, append(bs, binding{j.alias, inner, id, row})); err != nil {
				innerErr = err
				return false
			}
			return true
		})
		return innerErr
	}

	if err := scanBase(func(id int64, row storage.Row) error {
		return walk(0, []binding{{baseAlias, base, id, row}})
	}); err != nil {
		return nil, err
	}

	// Global aggregate with no GROUP BY over zero rows still yields
	// one row.
	if len(s.GroupBy) == 0 && len(order) == 0 {
		g := &group{}
		for _, fc := range ap.calls {
			g.aggs = append(g.aggs, newAggState(fc.Name, fc.Distinct))
		}
		groups[""] = g
		order = append(order, "")
	}

	return ex.finishAggregate(s, ap, groups, order, env)
}

// streamAggregate computes single-column GROUP BY aggregates by
// walking the ordered index: grouping is free, and COUNT(*) needs no
// row fetches at all (an index-only scan).
func (ex *executor) streamAggregate(s *sqlast.SelectStatement, base *storage.Table, baseAlias string, ix *storage.Index, groupOrd int, ap *aggPlan, env *Env) (*Result, error) {
	countOnly := true
	for _, fc := range ap.calls {
		if !(fc.Name == "COUNT" && (fc.Star || len(fc.Args) == 0)) {
			countOnly = false
			break
		}
	}
	streamOrds := compileAggArgs(ap, base, true)

	groups := map[string]*group{}
	var order []string
	var outerErr error
	ix.Tree().Ascend(func(key string, ids []int64) bool {
		g, ok := groups[key]
		if !ok {
			g = &group{}
			for _, fc := range ap.calls {
				g.aggs = append(g.aggs, newAggState(fc.Name, fc.Distinct))
			}
			groups[key] = g
			order = append(order, key)
		}
		if countOnly {
			// Index-only: the key itself provides the group value; we
			// must still fetch a representative row to produce the
			// group column output value.
			if g.keyVals == nil {
				row, err := base.Fetch(ids[0])
				if err == nil {
					g.keyVals = []storage.Value{row[groupOrd]}
				}
			}
			for range ids {
				g.aggs[0].addCountRow()
				for i := 1; i < len(g.aggs); i++ {
					g.aggs[i].addCountRow()
				}
			}
			return true
		}
		for _, id := range ids {
			row, err := base.Fetch(id)
			if err != nil {
				continue
			}
			if g.keyVals == nil {
				g.keyVals = []storage.Value{row[groupOrd]}
			}
			env.SetRow(baseAlias, row)
			for i, fc := range ap.calls {
				if fc.Star || len(fc.Args) == 0 {
					g.aggs[i].addCountRow()
					continue
				}
				if streamOrds[i] >= 0 {
					g.aggs[i].add(row[streamOrds[i]])
					continue
				}
				v, err := Eval(fc.Args[0], env)
				if err != nil {
					outerErr = err
					return false
				}
				g.aggs[i].add(v)
			}
		}
		return true
	})
	if outerErr != nil {
		return nil, outerErr
	}
	return ex.finishAggregate(s, ap, groups, order, env)
}

// compileAggArgs resolves aggregate arguments that are plain base
// columns to their ordinals (-1 when the general evaluator is needed).
func compileAggArgs(ap *aggPlan, base *storage.Table, single bool) []int {
	ords := make([]int, len(ap.calls))
	for i, fc := range ap.calls {
		ords[i] = -1
		if !single || fc.Star || len(fc.Args) == 0 || fc.Distinct {
			continue
		}
		if cr, ok := fc.Args[0].(*sqlast.ColumnRef); ok {
			ords[i] = base.ColIndex(cr.Column)
		}
	}
	return ords
}

// finishAggregate projects group results, applies HAVING, ORDER BY,
// OFFSET and LIMIT.
func (ex *executor) finishAggregate(s *sqlast.SelectStatement, ap *aggPlan, groups map[string]*group, order []string, env *Env) (*Result, error) {
	res := &Result{Plan: ex.plan}
	for i, it := range s.Items {
		res.Cols = append(res.Cols, itemName(it, i))
	}

	evalWithAggs := func(e sqlast.Expr, g *group) (storage.Value, error) {
		return evalAggExpr(e, g, ap, s, env)
	}

	for _, key := range order {
		g := groups[key]
		if s.Having != nil {
			v, err := evalWithAggs(s.Having, g)
			if err != nil {
				return nil, err
			}
			if v.IsNull() || !truthy(v) {
				continue
			}
		}
		var row storage.Row
		for _, it := range s.Items {
			v, err := evalWithAggs(it.Expr, g)
			if err != nil {
				return nil, err
			}
			row = append(row, v)
		}
		res.Rows = append(res.Rows, row)
	}

	if len(s.OrderBy) > 0 && !isRandOrder(s.OrderBy) {
		// An ORDER BY the sort cannot evaluate leaves the groups in
		// their grouping order.
		_ = sortRows(s, res)
	}
	paginate(s, res, env)
	return res, nil
}

// evalAggExpr evaluates an expression in group context: aggregate
// calls resolve to the group's accumulated results, and GROUP BY
// expressions resolve to the group key values.
func evalAggExpr(e sqlast.Expr, g *group, ap *aggPlan, s *sqlast.SelectStatement, env *Env) (storage.Value, error) {
	if fc, ok := e.(*sqlast.FuncCall); ok && aggregateFuncs[fc.Name] {
		i := ap.indexOf(fc)
		if i < 0 || i >= len(g.aggs) {
			return storage.Null(), fmt.Errorf("exec: aggregate not collected")
		}
		return g.aggs[i].result(), nil
	}
	// GROUP BY key expression?
	for i, ge := range s.GroupBy {
		if i < len(g.keyVals) && sameExpr(e, ge) {
			return g.keyVals[i], nil
		}
	}
	switch x := e.(type) {
	case *sqlast.ColumnRef:
		// A bare column that matches a group-by column by name.
		for i, ge := range s.GroupBy {
			if gc, ok := ge.(*sqlast.ColumnRef); ok && strings.EqualFold(gc.Column, x.Column) && i < len(g.keyVals) {
				return g.keyVals[i], nil
			}
		}
		return storage.Null(), fmt.Errorf("exec: column %s not in GROUP BY", refString(x))
	case *sqlast.Literal:
		return literalValue(x), nil
	case *sqlast.BinaryExpr:
		l, err := evalAggExpr(x.Left, g, ap, s, env)
		if err != nil {
			return l, err
		}
		r, err := evalAggExpr(x.Right, g, ap, s, env)
		if err != nil {
			return r, err
		}
		synthetic := &sqlast.BinaryExpr{Op: x.Op, Not: x.Not,
			Left:  valueLiteral(l),
			Right: valueLiteral(r)}
		return Eval(synthetic, env)
	default:
		return Eval(e, env)
	}
}

// valueLiteral wraps a computed value back into a literal node so it
// can flow through Eval.
func valueLiteral(v storage.Value) sqlast.Expr {
	switch v.Kind {
	case storage.KindInt:
		return &sqlast.Literal{LitKind: "number", Value: fmt.Sprintf("%d", v.I)}
	case storage.KindFloat:
		return &sqlast.Literal{LitKind: "number", Value: fmt.Sprintf("%g", v.F)}
	case storage.KindString:
		return &sqlast.Literal{LitKind: "string", Value: v.S}
	case storage.KindBool:
		if v.B {
			return &sqlast.Literal{LitKind: "bool", Value: "TRUE"}
		}
		return &sqlast.Literal{LitKind: "bool", Value: "FALSE"}
	default:
		return &sqlast.Literal{LitKind: "null", Value: "NULL"}
	}
}

// sameExpr reports structural equality for the small expression forms
// used in GROUP BY matching.
func sameExpr(a, b sqlast.Expr) bool {
	switch x := a.(type) {
	case *sqlast.ColumnRef:
		y, ok := b.(*sqlast.ColumnRef)
		return ok && strings.EqualFold(x.Column, y.Column) && strings.EqualFold(x.Table, y.Table)
	case *sqlast.FuncCall:
		y, ok := b.(*sqlast.FuncCall)
		if !ok || x.Name != y.Name || len(x.Args) != len(y.Args) {
			return false
		}
		for i := range x.Args {
			if !sameExpr(x.Args[i], y.Args[i]) {
				return false
			}
		}
		return true
	case *sqlast.Literal:
		y, ok := b.(*sqlast.Literal)
		return ok && x.LitKind == y.LitKind && x.Value == y.Value
	default:
		return a == b
	}
}
