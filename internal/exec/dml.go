package exec

import (
	"fmt"
	"maps"
	"slices"

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
		row := make(storage.Row, len(t.Cols)) // every column starts NULL
		for i, e := range exprs {
			if i >= len(ords) {
				break
			}
			// A literal, every cell of a fixture's VALUES list, is
			// its own value; anything else is evaluated.
			if lit, ok := e.(*sqlast.Literal); ok {
				setLiteral(&row[ords[i]], lit)
				continue
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

// matchingIDs returns the ids of the rows of t, bound in env's first
// frame, that the WHERE clause selects, read through the shared walk.
// UPDATE and DELETE collect them before changing any row.
func (ex *executor) matchingIDs(t *storage.Table, alias string, where sqlast.Expr, env *Env) ([]int64, error) {
	var ids []int64
	err := ex.walk(t, alias, where, nil, env, func(id int64) error {
		ids = append(ids, id)
		return nil
	})
	return ids, err
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

	// Resolve SET targets, SET values and WHERE once, before any row
	// is read.
	var setOrds []int
	for _, a := range s.Set {
		o := t.ColIndex(a.Column.Column)
		if o < 0 {
			return nil, fmt.Errorf("exec: unknown column %q in SET", a.Column.Column)
		}
		if err := resolveRefs(env, nil, a.Value); err != nil {
			return nil, err
		}
		setOrds = append(setOrds, o)
	}
	if err := resolveRefs(env, nil, s.Where); err != nil {
		return nil, err
	}
	ids, err := ex.matchingIDs(t, alias, s.Where, env)
	if err != nil {
		return nil, err
	}
	n := 0
	for _, id := range ids {
		old, err := t.Fetch(id)
		if err != nil {
			continue
		}
		env.frames[0].row = old
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
	if err := resolveRefs(env, nil, s.Where); err != nil {
		return nil, err
	}
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
			col, vals := schema.InListCheck(s.Constraint.Check)
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

// dropColumn rebuilds the table without the named column.
func (ex *executor) dropColumn(t *storage.Table, col string) error {
	ord := t.ColIndex(col)
	if ord < 0 {
		return fmt.Errorf("exec: unknown column %q", col)
	}
	return ex.rebuild(t, slices.Concat(t.Cols[:ord], t.Cols[ord+1:]), func(r storage.Row) storage.Row {
		return slices.Concat(r[:ord], r[ord+1:])
	})
}

// addColumn rebuilds the table with a new trailing column filled with
// NULL (or the declared default when it is a literal).
func (ex *executor) addColumn(t *storage.Table, cd sqlast.ColumnDef) error {
	if t.ColIndex(cd.Name) >= 0 {
		return fmt.Errorf("exec: column %q already exists", cd.Name)
	}
	fill := storage.Null()
	if lit, ok := cd.Default.(*sqlast.Literal); ok {
		fill = literalValue(lit)
	}
	if cd.NotNull && fill.IsNull() && t.Len() > 0 {
		return fmt.Errorf("%w: ADD COLUMN NOT NULL without default on non-empty table", storage.ErrNotNull)
	}
	cols := append(slices.Clone(t.Cols), storage.ColumnDef{
		Name:    cd.Name,
		Class:   schema.ClassifyType(cd.Type),
		NotNull: cd.NotNull,
	})
	return ex.rebuild(t, cols, func(r storage.Row) storage.Row {
		return append(r.Clone(), fill)
	})
}

// rebuild replaces t with a table of columns cols holding convert(r)
// for each of t's rows — a full rewrite, like a DBMS table rewrite
// (part of the cost of applying an MVA fix). The primary key, indexes,
// foreign keys and CHECKs whose columns all survive by name carry
// over; those on a dropped column go.
func (ex *executor) rebuild(t *storage.Table, cols []storage.ColumnDef, convert func(storage.Row) storage.Row) error {
	var rows []storage.Row
	t.Scan(func(_ int64, r storage.Row) bool {
		rows = append(rows, convert(r))
		return true
	})
	ex.db.DropTable(t.Name)
	nt := ex.db.CreateTable(t.Name, cols)
	// surviving names t's columns ords, or reports that one is gone.
	surviving := func(ords ...int) ([]string, bool) {
		names := make([]string, len(ords))
		for i, o := range ords {
			names[i] = t.Cols[o].Name
			if nt.ColIndex(names[i]) < 0 {
				return nil, false
			}
		}
		return names, true
	}
	if pk, ok := surviving(t.PrimaryKey()...); ok && len(pk) > 0 {
		if err := nt.SetPrimaryKey(pk...); err != nil {
			return err
		}
	}
	for _, r := range rows {
		if _, err := nt.Insert(r); err != nil {
			return err
		}
	}
	for _, ix := range t.Indexes() {
		if names, ok := surviving(ix.Cols...); ok {
			if _, err := nt.CreateIndex(ix.Name, ix.Unique, names...); err != nil {
				return err
			}
		}
	}
	for _, fk := range t.ForeignKeys() {
		if names, ok := surviving(fk.Cols...); ok {
			if err := nt.AddForeignKey(fk.Name, names, fk.RefTable, fk.RefCols, fk.OnDelete); err != nil {
				return err
			}
		}
	}
	for _, ck := range t.Checks() {
		if names, ok := surviving(ck.Col); ok {
			if err := nt.AddCheckInList(ck.Name, names[0], slices.Collect(maps.Keys(ck.Allowed))); err != nil {
				return err
			}
		}
	}
	return nil
}
