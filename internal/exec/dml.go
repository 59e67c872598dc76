package exec

import (
	"fmt"

	"sqlcheck/internal/parser"
	"sqlcheck/internal/schema"
	"sqlcheck/internal/sqlast"
	"sqlcheck/internal/storage"
)

func parseOne(sql string) sqlast.Statement { return parser.Parse(sql) }

// ---------------------------------------------------------------------------
// INSERT
// ---------------------------------------------------------------------------

func (ex *executor) execInsert(s *sqlast.InsertStatement) (*Result, error) {
	t := ex.db.Table(s.Table)
	if t == nil {
		return nil, fmt.Errorf("exec: unknown table %q", s.Table)
	}
	env := &Env{Rand: ex.rand}

	// Map statement columns to table ordinals; an empty column list
	// means positional insertion (the implicit-columns anti-pattern
	// relies on exactly this behavior).
	var ords []int
	if len(s.Columns) > 0 {
		for _, c := range s.Columns {
			o := t.ColIndex(c)
			if o < 0 {
				return nil, fmt.Errorf("exec: unknown column %q in INSERT", c)
			}
			ords = append(ords, o)
		}
	} else {
		for i := range t.Cols {
			ords = append(ords, i)
		}
	}

	if s.Select != nil {
		sub, err := ex.execSelect(s.Select)
		if err != nil {
			return nil, err
		}
		n := 0
		for _, srow := range sub.Rows {
			row := make(storage.Row, len(t.Cols))
			for i := range row {
				row[i] = storage.Null()
			}
			for i, o := range ords {
				if i < len(srow) {
					row[o] = srow[i]
				}
			}
			if _, err := t.Insert(row); err != nil {
				return nil, err
			}
			n++
		}
		return &Result{Affected: n, Plan: ex.plan}, nil
	}

	n := 0
	for _, exprs := range s.Rows {
		if len(s.Columns) == 0 && len(exprs) != len(t.Cols) {
			return nil, fmt.Errorf("%w: INSERT supplies %d values for %d columns",
				storage.ErrArity, len(exprs), len(t.Cols))
		}
		row := make(storage.Row, len(t.Cols))
		for i := range row {
			row[i] = storage.Null()
		}
		for i, e := range exprs {
			if i >= len(ords) {
				break
			}
			v, err := Eval(e, env)
			if err != nil {
				return nil, err
			}
			row[ords[i]] = v
		}
		if _, err := t.Insert(row); err != nil {
			return nil, err
		}
		n++
	}
	return &Result{Affected: n, Plan: ex.plan}, nil
}

// ---------------------------------------------------------------------------
// UPDATE / DELETE
// ---------------------------------------------------------------------------

// matchingIDs plans the WHERE clause of an UPDATE/DELETE: index lookup
// when a conjunct allows it, sequential scan otherwise.
func (ex *executor) matchingIDs(t *storage.Table, alias string, where sqlast.Expr, env *Env) ([]int64, error) {
	conjuncts := splitAnd(where)
	eq, rest := ex.pickIndexPredicate(t, alias, conjuncts)
	fastFilters, rest := compileFilters(rest, t, alias)
	var ids []int64
	check := func(id int64, row storage.Row) (bool, error) {
		for _, ff := range fastFilters {
			if !ff(row) {
				return false, nil
			}
		}
		env.SetRow(alias, row)
		for _, c := range rest {
			ok, err := evalBool(c, env)
			if err != nil {
				return false, err
			}
			if !ok {
				return false, nil
			}
		}
		return true, nil
	}
	if eq != nil {
		if eq.isRange {
			ex.note("IndexRangeScan(%s.%s)", t.Name, eq.index.Name)
			var outerErr error
			eq.index.Tree().AscendRange(eq.lo, eq.hi, func(key string, postings []int64) bool {
				for _, id := range postings {
					row, err := t.Fetch(id)
					if err != nil {
						continue
					}
					ok, err := check(id, row)
					if err != nil {
						outerErr = err
						return false
					}
					if ok {
						ids = append(ids, id)
					}
				}
				return true
			})
			return ids, outerErr
		}
		ex.note("IndexScan(%s.%s)", t.Name, eq.index.Name)
		for _, id := range eq.index.Tree().Get(eq.key) {
			row, err := t.Fetch(id)
			if err != nil {
				continue
			}
			ok, err := check(id, row)
			if err != nil {
				return nil, err
			}
			if ok {
				ids = append(ids, id)
			}
		}
		return ids, nil
	}
	ex.note("SeqScan(%s)", t.Name)
	var outerErr error
	t.Scan(func(id int64, row storage.Row) bool {
		ok, err := check(id, row)
		if err != nil {
			outerErr = err
			return false
		}
		if ok {
			ids = append(ids, id)
		}
		return true
	})
	return ids, outerErr
}

func (ex *executor) execUpdate(s *sqlast.UpdateStatement) (*Result, error) {
	t := ex.db.Table(s.Table)
	if t == nil {
		return nil, fmt.Errorf("exec: unknown table %q", s.Table)
	}
	alias := s.Alias
	if alias == "" {
		alias = t.Name
	}
	env := &Env{Rand: ex.rand}
	env.Push(alias, t, nil)

	ids, err := ex.matchingIDs(t, alias, s.Where, env)
	if err != nil {
		return nil, err
	}
	// Resolve SET targets once.
	var setOrds []int
	for _, a := range s.Set {
		o := t.ColIndex(a.Column.Column)
		if o < 0 {
			return nil, fmt.Errorf("exec: unknown column %q in SET", a.Column.Column)
		}
		setOrds = append(setOrds, o)
	}
	n := 0
	for _, id := range ids {
		old, err := t.Fetch(id)
		if err != nil {
			continue
		}
		env.SetRow(alias, old)
		row := old.Clone()
		for i, a := range s.Set {
			v, err := Eval(a.Value, env)
			if err != nil {
				return nil, err
			}
			row[setOrds[i]] = v
		}
		if err := t.Update(id, row); err != nil {
			return nil, err
		}
		n++
	}
	return &Result{Affected: n, Plan: ex.plan}, nil
}

func (ex *executor) execDelete(s *sqlast.DeleteStatement) (*Result, error) {
	t := ex.db.Table(s.Table)
	if t == nil {
		return nil, fmt.Errorf("exec: unknown table %q", s.Table)
	}
	env := &Env{Rand: ex.rand}
	env.Push(t.Name, t, nil)
	ids, err := ex.matchingIDs(t, t.Name, s.Where, env)
	if err != nil {
		return nil, err
	}
	n := 0
	for _, id := range ids {
		if err := t.Delete(id); err != nil {
			return nil, err
		}
		n++
	}
	return &Result{Affected: n, Plan: ex.plan}, nil
}

// ---------------------------------------------------------------------------
// DDL
// ---------------------------------------------------------------------------

func (ex *executor) execCreateTable(s *sqlast.CreateTableStatement) (*Result, error) {
	if ex.db.Table(s.Name) != nil {
		if s.IfNotExists {
			return &Result{Plan: ex.plan}, nil
		}
		return nil, fmt.Errorf("exec: table %q already exists", s.Name)
	}
	cat := schema.FromStatements([]sqlast.Statement{s})
	ts := cat.Table(s.Name)
	if ts == nil {
		return nil, fmt.Errorf("exec: malformed CREATE TABLE")
	}
	if _, err := ex.db.CreateTableFromSchema(ts); err != nil {
		ex.db.DropTable(s.Name)
		return nil, err
	}
	return &Result{Plan: ex.plan}, nil
}

func (ex *executor) execCreateIndex(s *sqlast.CreateIndexStatement) (*Result, error) {
	t := ex.db.Table(s.Table)
	if t == nil {
		return nil, fmt.Errorf("exec: unknown table %q", s.Table)
	}
	if _, err := t.CreateIndex(s.Name, s.Unique, s.Columns...); err != nil {
		return nil, err
	}
	return &Result{Plan: ex.plan}, nil
}

func (ex *executor) execDrop(s *sqlast.DropStatement) (*Result, error) {
	switch s.DropKind {
	case sqlast.KindDropTable:
		if !ex.db.DropTable(s.Name) && !s.IfExists {
			return nil, fmt.Errorf("exec: unknown table %q", s.Name)
		}
	case sqlast.KindDropIndex:
		dropped := false
		for _, t := range ex.db.Tables() {
			if t.DropIndex(s.Name) {
				dropped = true
				break
			}
		}
		if !dropped && !s.IfExists {
			return nil, fmt.Errorf("exec: unknown index %q", s.Name)
		}
	}
	return &Result{Plan: ex.plan}, nil
}

func (ex *executor) execAlter(s *sqlast.AlterTableStatement) (*Result, error) {
	t := ex.db.Table(s.Table)
	if t == nil {
		return nil, fmt.Errorf("exec: unknown table %q", s.Table)
	}
	switch s.Action {
	case sqlast.AlterAddConstraint:
		if s.Constraint == nil {
			return nil, fmt.Errorf("%w: malformed ADD CONSTRAINT", ErrUnsupported)
		}
		switch s.Constraint.CKind {
		case "CHECK":
			col, vals := checkInListOf(s.Constraint.Check)
			if col == "" {
				return nil, fmt.Errorf("%w: only IN-list CHECK constraints", ErrUnsupported)
			}
			name := s.Constraint.Name
			if name == "" {
				name = fmt.Sprintf("%s_%s_check", t.Name, col)
			}
			if err := t.AddCheckInList(name, col, vals); err != nil {
				return nil, err
			}
		case "FOREIGN KEY":
			ref := s.Constraint.Ref
			if ref == nil {
				return nil, fmt.Errorf("%w: FK without target", ErrUnsupported)
			}
			if err := t.AddForeignKey(s.Constraint.Name, s.Constraint.Columns, ref.Table, ref.Columns, ref.OnDelete); err != nil {
				return nil, err
			}
		case "UNIQUE":
			name := s.Constraint.Name
			if name == "" {
				name = fmt.Sprintf("%s_unique", t.Name)
			}
			if _, err := t.CreateIndex(name, true, s.Constraint.Columns...); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("%w: ADD %s", ErrUnsupported, s.Constraint.CKind)
		}
	case sqlast.AlterDropConstraint:
		if !t.DropCheck(s.DropName) && !s.IfExists {
			return nil, fmt.Errorf("exec: unknown constraint %q", s.DropName)
		}
	case sqlast.AlterDropColumn:
		if err := ex.dropColumn(t, s.DropColumn); err != nil {
			return nil, err
		}
	case sqlast.AlterAddColumn:
		if s.Column == nil {
			return nil, fmt.Errorf("%w: malformed ADD COLUMN", ErrUnsupported)
		}
		if err := ex.addColumn(t, *s.Column); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("%w: ALTER action", ErrUnsupported)
	}
	return &Result{Plan: ex.plan}, nil
}

func checkInListOf(e sqlast.Expr) (string, []string) {
	be, ok := e.(*sqlast.BinaryExpr)
	if !ok || be.Op != "IN" || be.Not {
		return "", nil
	}
	cr, ok := be.Left.(*sqlast.ColumnRef)
	if !ok {
		return "", nil
	}
	list, ok := be.Right.(*sqlast.ExprList)
	if !ok {
		return "", nil
	}
	var vals []string
	for _, it := range list.Items {
		lit, ok := it.(*sqlast.Literal)
		if !ok {
			return "", nil
		}
		vals = append(vals, lit.Value)
	}
	return cr.Column, vals
}

// dropColumn rebuilds the table without the named column — a full
// rewrite, like a DBMS table rewrite (part of the cost of applying an
// MVA fix).
func (ex *executor) dropColumn(t *storage.Table, col string) error {
	ord := t.ColIndex(col)
	if ord < 0 {
		return fmt.Errorf("exec: unknown column %q", col)
	}
	newCols := make([]storage.ColumnDef, 0, len(t.Cols)-1)
	for i, c := range t.Cols {
		if i != ord {
			newCols = append(newCols, c)
		}
	}
	// Snapshot existing rows.
	var rows []storage.Row
	t.Scan(func(id int64, r storage.Row) bool {
		nr := make(storage.Row, 0, len(r)-1)
		for i, v := range r {
			if i != ord {
				nr = append(nr, v)
			}
		}
		rows = append(rows, nr)
		return true
	})
	// Preserve constraints that do not involve the dropped column.
	name := t.Name
	var pk []string
	for _, o := range t.PrimaryKey() {
		if o == ord {
			pk = nil
			break
		}
		pk = append(pk, t.Cols[o].Name)
	}
	type savedIx struct {
		name   string
		unique bool
		cols   []string
	}
	var savedIxs []savedIx
	for _, ix := range t.Indexes() {
		keep := true
		var cols []string
		for _, o := range ix.Cols {
			if o == ord {
				keep = false
				break
			}
			cols = append(cols, t.Cols[o].Name)
		}
		if keep {
			savedIxs = append(savedIxs, savedIx{ix.Name, ix.Unique, cols})
		}
	}
	var savedFKs []storage.ForeignKey
	for _, fk := range t.ForeignKeys() {
		keep := true
		for _, o := range fk.Cols {
			if o == ord {
				keep = false
				break
			}
		}
		if keep {
			savedFKs = append(savedFKs, fk)
		}
	}
	var savedChecks []struct {
		name    string
		col     string
		allowed []string
	}
	for _, ck := range t.Checks() {
		if ck.Col == ord {
			continue
		}
		var vals []string
		for v := range ck.Allowed {
			vals = append(vals, v)
		}
		savedChecks = append(savedChecks, struct {
			name    string
			col     string
			allowed []string
		}{ck.Name, t.Cols[ck.Col].Name, vals})
	}

	ex.db.DropTable(name)
	nt := ex.db.CreateTable(name, newCols)
	if len(pk) > 0 {
		if err := nt.SetPrimaryKey(pk...); err != nil {
			return err
		}
	}
	for _, r := range rows {
		if _, err := nt.Insert(r); err != nil {
			return err
		}
	}
	for _, ix := range savedIxs {
		if _, err := nt.CreateIndex(ix.name, ix.unique, ix.cols...); err != nil {
			return err
		}
	}
	for _, fk := range savedFKs {
		var cols []string
		for _, o := range fk.Cols {
			// Ordinals shifted after the drop; recover names from the
			// old table layout.
			nm := t.Cols[o].Name
			cols = append(cols, nm)
		}
		if err := nt.AddForeignKey(fk.Name, cols, fk.RefTable, fk.RefCols, fk.OnDelete); err != nil {
			return err
		}
	}
	for _, ck := range savedChecks {
		if err := nt.AddCheckInList(ck.name, ck.col, ck.allowed); err != nil {
			return err
		}
	}
	return nil
}

// addColumn rebuilds the table with a new trailing column filled with
// NULL (or the declared default when it is a literal).
func (ex *executor) addColumn(t *storage.Table, cd sqlast.ColumnDef) error {
	if t.ColIndex(cd.Name) >= 0 {
		return fmt.Errorf("exec: column %q already exists", cd.Name)
	}
	var fill storage.Value
	if lit, ok := cd.Default.(*sqlast.Literal); ok {
		fill = literalValue(lit)
	} else {
		fill = storage.Null()
	}
	if cd.NotNull && fill.IsNull() && t.Len() > 0 {
		return fmt.Errorf("%w: ADD COLUMN NOT NULL without default on non-empty table", storage.ErrNotNull)
	}
	newCols := append(append([]storage.ColumnDef{}, t.Cols...), storage.ColumnDef{
		Name:    cd.Name,
		Class:   schema.ClassifyType(cd.Type),
		NotNull: cd.NotNull,
	})
	var rows []storage.Row
	t.Scan(func(id int64, r storage.Row) bool {
		rows = append(rows, append(r.Clone(), fill))
		return true
	})
	var pk []string
	for _, o := range t.PrimaryKey() {
		pk = append(pk, t.Cols[o].Name)
	}
	name := t.Name
	oldCols := t.Cols
	type savedIx struct {
		name   string
		unique bool
		cols   []string
	}
	var savedIxs []savedIx
	for _, ix := range t.Indexes() {
		var cols []string
		for _, o := range ix.Cols {
			cols = append(cols, oldCols[o].Name)
		}
		savedIxs = append(savedIxs, savedIx{ix.Name, ix.Unique, cols})
	}
	ex.db.DropTable(name)
	nt := ex.db.CreateTable(name, newCols)
	if len(pk) > 0 {
		if err := nt.SetPrimaryKey(pk...); err != nil {
			return err
		}
	}
	for _, r := range rows {
		if _, err := nt.Insert(r); err != nil {
			return err
		}
	}
	for _, ix := range savedIxs {
		if _, err := nt.CreateIndex(ix.name, ix.unique, ix.cols...); err != nil {
			return err
		}
	}
	return nil
}
