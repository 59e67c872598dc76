package schema

import (
	"strings"

	"sqlcheck/internal/sqlast"
)

// FromStatements builds a schema by replaying the DDL statements in
// the given list (CREATE TABLE / CREATE INDEX / ALTER TABLE / DROP).
// Non-DDL statements are ignored. This is how sqlcheck constructs the
// application context when no live database connection is available
// (paper §4.1: "If the database is not available, the ContextBuilder
// leverages the DDL statements to construct the context").
func FromStatements(stmts []sqlast.Statement) *Schema {
	s := NewSchema()
	for _, st := range stmts {
		ApplyDDL(s, st)
	}
	return s
}

// ApplyDDL applies a single DDL statement to the schema. Unknown or
// non-DDL statements are ignored.
func ApplyDDL(s *Schema, st sqlast.Statement) {
	switch d := st.(type) {
	case *sqlast.CreateTableStatement:
		s.AddTable(tableFromCreate(d))
	case *sqlast.CreateIndexStatement:
		if t := s.Table(d.Table); t != nil {
			t.Indexes = append(t.Indexes, Index{Name: d.Name, Columns: d.Columns, Unique: d.Unique})
		}
	case *sqlast.AlterTableStatement:
		applyAlter(s, d)
	case *sqlast.DropStatement:
		if d.DropKind == sqlast.KindDropTable {
			s.DropTable(d.Name)
		} else if d.DropKind == sqlast.KindDropIndex {
			for _, t := range s.Tables() {
				for i, ix := range t.Indexes {
					if strings.EqualFold(ix.Name, d.Name) {
						t.Indexes = append(t.Indexes[:i], t.Indexes[i+1:]...)
						break
					}
				}
			}
		}
	}
}

func tableFromCreate(d *sqlast.CreateTableStatement) *Table {
	t := &Table{Name: d.Name}
	for _, cd := range d.Columns {
		col := columnFromDef(cd)
		if cd.PrimaryKey {
			t.PrimaryKey = append(t.PrimaryKey, cd.Name)
		}
		if cd.References != nil {
			fk := ForeignKey{
				Columns:    []string{cd.Name},
				RefTable:   cd.References.Table,
				RefColumns: cd.References.Columns,
				OnDelete:   cd.References.OnDelete,
			}
			t.ForeignKeys = append(t.ForeignKeys, fk)
			if strings.EqualFold(cd.References.Table, d.Name) {
				t.SelfRefFK = true
			}
		}
		t.Columns = append(t.Columns, col)
	}
	for _, tc := range d.Constraints {
		applyConstraint(t, tc)
	}
	return t
}

func columnFromDef(cd sqlast.ColumnDef) Column {
	col := Column{
		Name:       cd.Name,
		Type:       cd.Type,
		Class:      ClassifyType(cd.Type),
		TypeParams: cd.TypeParams,
		NotNull:    cd.NotNull || cd.PrimaryKey,
		Unique:     cd.Unique || cd.PrimaryKey,
	}
	if cd.Check != nil {
		if c, vals := InListCheck(cd.Check); strings.EqualFold(c, cd.Name) {
			col.CheckInValues = vals
		}
	}
	return col
}

func applyConstraint(t *Table, tc sqlast.TableConstraint) {
	switch tc.CKind {
	case "PRIMARY KEY":
		t.PrimaryKey = tc.Columns
		for _, c := range tc.Columns {
			if col := t.Column(c); col != nil {
				col.NotNull = true
			}
		}
	case "FOREIGN KEY":
		fk := ForeignKey{Name: tc.Name, Columns: tc.Columns}
		if tc.Ref != nil {
			fk.RefTable = tc.Ref.Table
			fk.RefColumns = tc.Ref.Columns
			fk.OnDelete = tc.Ref.OnDelete
			if strings.EqualFold(tc.Ref.Table, t.Name) {
				t.SelfRefFK = true
			}
		}
		t.ForeignKeys = append(t.ForeignKeys, fk)
	case "UNIQUE":
		t.Indexes = append(t.Indexes, Index{Name: tc.Name, Columns: tc.Columns, Unique: true})
	case "CHECK":
		cc := CheckConstraint{Name: tc.Name}
		if col, vals := InListCheck(tc.Check); col != "" {
			cc.Column = col
			cc.InValues = vals
			if c := t.Column(col); c != nil {
				c.CheckInValues = vals
			}
		}
		t.Checks = append(t.Checks, cc)
	}
}

func applyAlter(s *Schema, d *sqlast.AlterTableStatement) {
	t := s.Table(d.Table)
	if t == nil {
		// Non-validating: ALTER on unknown table creates a stub so
		// later statements can still attach information.
		t = &Table{Name: d.Table}
		s.AddTable(t)
	}
	switch d.Action {
	case sqlast.AlterAddColumn:
		if d.Column != nil {
			col := columnFromDef(*d.Column)
			t.Columns = append(t.Columns, col)
			if d.Column.PrimaryKey {
				t.PrimaryKey = append(t.PrimaryKey, d.Column.Name)
			}
			if d.Column.References != nil {
				t.ForeignKeys = append(t.ForeignKeys, ForeignKey{
					Columns:    []string{d.Column.Name},
					RefTable:   d.Column.References.Table,
					RefColumns: d.Column.References.Columns,
					OnDelete:   d.Column.References.OnDelete,
				})
			}
		}
	case sqlast.AlterDropColumn:
		for i := range t.Columns {
			if strings.EqualFold(t.Columns[i].Name, d.DropColumn) {
				t.Columns = append(t.Columns[:i], t.Columns[i+1:]...)
				break
			}
		}
	case sqlast.AlterAddConstraint:
		if d.Constraint != nil {
			applyConstraint(t, *d.Constraint)
		}
	case sqlast.AlterDropConstraint:
		name := d.DropName
		if name == "PRIMARY KEY" {
			t.PrimaryKey = nil
			return
		}
		for i := range t.Checks {
			if strings.EqualFold(t.Checks[i].Name, name) {
				// Clear the column-level mirror as well.
				if col := t.Column(t.Checks[i].Column); col != nil {
					col.CheckInValues = nil
				}
				t.Checks = append(t.Checks[:i], t.Checks[i+1:]...)
				return
			}
		}
		for i := range t.ForeignKeys {
			if strings.EqualFold(t.ForeignKeys[i].Name, name) {
				t.ForeignKeys = append(t.ForeignKeys[:i], t.ForeignKeys[i+1:]...)
				return
			}
		}
	case sqlast.AlterRename:
		s.DropTable(d.Table)
		t.Name = d.NewName
		s.AddTable(t)
	case sqlast.AlterAlterColumn:
		if d.Column != nil {
			if col := t.Column(d.Column.Name); col != nil {
				*col = columnFromDef(*d.Column)
			}
		}
	}
}

// InListCheck recognizes CHECK (col IN ('a','b',...)) expressions and
// returns the constrained column and the permitted values. Returns
// ("", nil) for any other expression shape.
func InListCheck(e sqlast.Expr) (string, []string) {
	be, ok := e.(*sqlast.BinaryExpr)
	if !ok || be.Op != "IN" || be.Not {
		return "", nil
	}
	col, ok := be.Left.(*sqlast.ColumnRef)
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
	return col.Column, vals
}
