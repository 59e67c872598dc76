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

func newAggState(fn string, distinct bool) aggState {
	s := aggState{fn: fn, distinct: distinct, intOnly: true}
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
	aggs    []aggState
}

// aggPlan describes the aggregate expressions extracted from the
// select list and HAVING clause.
type aggPlan struct {
	// calls are the distinct aggregate calls, in discovery order.
	calls []*sqlast.FuncCall
	// ords holds, per call, the base-table ordinal of an argument
	// that is a plain column read straight from the row, or -1 when
	// the general evaluator is needed. The hot per-row path of an
	// aggregate must not pay tree-walking cost.
	ords []int
}

func (ap *aggPlan) indexOf(fc *sqlast.FuncCall) int {
	for i, c := range ap.calls {
		if c == fc {
			return i
		}
	}
	return -1
}

// newAggPlan collects s's aggregate calls. Column arguments resolve
// to base ordinals only when direct: the base table is the only one
// bound.
func newAggPlan(s *sqlast.SelectStatement, base *storage.Table, direct bool) *aggPlan {
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
	ap.ords = make([]int, len(ap.calls))
	for i, fc := range ap.calls {
		ap.ords[i] = -1
		if !direct || fc.Star || len(fc.Args) == 0 || fc.Distinct {
			continue
		}
		if cr, ok := fc.Args[0].(*sqlast.ColumnRef); ok {
			ap.ords[i] = base.ColIndex(cr.Column)
		}
	}
	return ap
}

// newGroup starts a group with key values keyVals and one empty
// accumulator per aggregate call.
func (ap *aggPlan) newGroup(keyVals []storage.Value) *group {
	g := &group{keyVals: keyVals, aggs: make([]aggState, len(ap.calls))}
	for i, fc := range ap.calls {
		g.aggs[i] = newAggState(fc.Name, fc.Distinct)
	}
	return g
}

// add folds one input row into g: COUNT(*) counts it, a column
// argument reads the base row, and any other argument is evaluated
// over the rows bound in env.
func (g *group) add(ap *aggPlan, row storage.Row, env *Env) error {
	for i, fc := range ap.calls {
		st := &g.aggs[i]
		switch {
		case fc.Star || len(fc.Args) == 0:
			st.count++
		case ap.ords[i] >= 0:
			st.add(row[ap.ords[i]])
		default:
			v, err := Eval(fc.Args[0], env)
			if err != nil {
				return err
			}
			st.add(v)
		}
	}
	return nil
}

// execAggregate evaluates GROUP BY and aggregate queries. A query with
// no WHERE and no joins that groups by one column leading a
// single-column index streams its groups off that index (the "fixed"
// side of the index-underuse grouped-aggregate experiment, Figure 8b);
// any other hash-aggregates the rows of the shared walk.
func (ex *executor) execAggregate(s *sqlast.SelectStatement, base *storage.Table, alias string, joins []joinSpec, env *Env) (*Result, error) {
	direct := len(joins) == 0
	ap := newAggPlan(s, base, direct)
	if s.Where == nil && direct && len(s.GroupBy) == 1 {
		if cr, ok := s.GroupBy[0].(*sqlast.ColumnRef); ok {
			if ord := base.ColIndex(cr.Column); ord >= 0 {
				if ix := base.IndexOnLeading(ord); ix != nil && len(ix.Cols) == 1 {
					ex.note("IndexStreamAgg(%s.%s)", base.Name, base.Cols[ord].Name)
					return ex.streamAggregate(s, base, ix, ord, ap, env)
				}
			}
		}
	}

	ex.note("HashAggregate")
	// Group keys that are plain base columns read the row directly
	// when the base table is the only one bound.
	groupOrds := make([]int, len(s.GroupBy))
	for i, gexpr := range s.GroupBy {
		groupOrds[i] = -1
		if cr, ok := gexpr.(*sqlast.ColumnRef); ok && direct {
			groupOrds[i] = base.ColIndex(cr.Column)
		}
	}
	var groups []*group
	byKey := map[string]*group{}
	if err := ex.walk(base, alias, s.Where, joins, env, func(int64) error {
		row := env.frames[0].row
		keyVals := make([]storage.Value, len(s.GroupBy))
		for i, gexpr := range s.GroupBy {
			if groupOrds[i] >= 0 {
				keyVals[i] = row[groupOrds[i]]
				continue
			}
			v, err := Eval(gexpr, env)
			if err != nil {
				return err
			}
			keyVals[i] = v
		}
		key := storage.EncodeKey(keyVals...)
		g := byKey[key]
		if g == nil {
			g = ap.newGroup(keyVals)
			byKey[key] = g
			groups = append(groups, g)
		}
		return g.add(ap, row, env)
	}); err != nil {
		return nil, err
	}

	// Global aggregate with no GROUP BY over zero rows still yields
	// one row.
	if len(s.GroupBy) == 0 && len(groups) == 0 {
		groups = append(groups, ap.newGroup(nil))
	}
	return ex.finishAggregate(s, ap, groups, env)
}

// streamAggregate computes single-column GROUP BY aggregates by
// walking the ordered index: grouping is free, and COUNT(*) reads only
// each group's first row, for its key value (an index-only scan).
func (ex *executor) streamAggregate(s *sqlast.SelectStatement, base *storage.Table, ix *storage.Index, groupOrd int, ap *aggPlan, env *Env) (*Result, error) {
	countOnly := true
	for _, fc := range ap.calls {
		if !(fc.Name == "COUNT" && (fc.Star || len(fc.Args) == 0)) {
			countOnly = false
			break
		}
	}
	frame := &env.frames[0]
	var groups []*group
	var err error
	ix.Tree().Ascend(func(_ string, ids []int64) bool {
		var g *group
		for _, id := range ids {
			if g == nil || !countOnly {
				row, ferr := base.Fetch(id)
				if ferr != nil {
					continue
				}
				frame.row = row
			}
			if g == nil {
				g = ap.newGroup([]storage.Value{frame.row[groupOrd]})
				groups = append(groups, g)
			}
			if err = g.add(ap, frame.row, env); err != nil {
				return false
			}
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	return ex.finishAggregate(s, ap, groups, env)
}

// finishAggregate projects group results, applies HAVING, then
// orderAndLimit.
func (ex *executor) finishAggregate(s *sqlast.SelectStatement, ap *aggPlan, groups []*group, env *Env) (*Result, error) {
	res := &Result{}
	for i, it := range s.Items {
		res.Cols = append(res.Cols, itemName(it, i))
	}

	evalWithAggs := func(e sqlast.Expr, g *group) (storage.Value, error) {
		return evalAggExpr(e, g, ap, s, env)
	}

	for _, g := range groups {
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

	if err := ex.orderAndLimit(s, res); err != nil {
		return nil, err
	}
	res.Plan = ex.plan
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
