// Package schema models the logical design of an application's
// database: tables, columns, SQL-type classification, constraints, and
// indexes. The catalog is the shared vocabulary between the parser
// (which builds it from DDL), the storage engine (which reflects a
// live database into it, standing in for SQLAlchemy reflection), and
// the detection rules (which query it).
package schema

import "strings"

// TypeClass is a coarse classification of SQL column types that the
// anti-pattern rules care about.
type TypeClass int

// Type classes.
const (
	ClassUnknown TypeClass = iota
	ClassInteger
	ClassExactNumeric  // DECIMAL/NUMERIC
	ClassApproxNumeric // FLOAT/REAL/DOUBLE — rounding-error prone
	ClassChar          // CHAR/VARCHAR
	ClassText          // TEXT/CLOB
	ClassBool
	ClassDate
	ClassTimeTZ   // time/timestamp WITH time zone
	ClassTimeNoTZ // time/timestamp WITHOUT time zone
	ClassEnum
	ClassBlob
)

var classNames = map[TypeClass]string{
	ClassUnknown:       "unknown",
	ClassInteger:       "integer",
	ClassExactNumeric:  "exact-numeric",
	ClassApproxNumeric: "approx-numeric",
	ClassChar:          "char",
	ClassText:          "text",
	ClassBool:          "bool",
	ClassDate:          "date",
	ClassTimeTZ:        "time-tz",
	ClassTimeNoTZ:      "time-no-tz",
	ClassEnum:          "enum",
	ClassBlob:          "blob",
}

// String returns the class name.
func (c TypeClass) String() string {
	if s, ok := classNames[c]; ok {
		return s
	}
	return "unknown"
}

// IsStringy reports whether the class stores character data.
func (c TypeClass) IsStringy() bool { return c == ClassChar || c == ClassText }

// IsTemporal reports whether the class stores date/time data.
func (c TypeClass) IsTemporal() bool {
	return c == ClassDate || c == ClassTimeTZ || c == ClassTimeNoTZ
}

// ClassifyType maps a raw SQL type name (upper-cased, no parameters)
// to its class.
func ClassifyType(typeName string) TypeClass {
	t := strings.ToUpper(strings.TrimSpace(typeName))
	switch t {
	case "INT", "INTEGER", "SMALLINT", "BIGINT", "TINYINT", "MEDIUMINT",
		"SERIAL", "BIGSERIAL", "INT2", "INT4", "INT8":
		return ClassInteger
	case "DECIMAL", "NUMERIC", "MONEY":
		return ClassExactNumeric
	case "FLOAT", "REAL", "DOUBLE", "DOUBLE PRECISION", "FLOAT4", "FLOAT8":
		return ClassApproxNumeric
	case "CHAR", "VARCHAR", "CHARACTER", "NCHAR", "NVARCHAR", "STRING":
		return ClassChar
	case "TEXT", "CLOB", "TINYTEXT", "MEDIUMTEXT", "LONGTEXT":
		return ClassText
	case "BOOL", "BOOLEAN", "BIT":
		return ClassBool
	case "DATE":
		return ClassDate
	case "TIMESTAMP WITH TIME ZONE", "TIME WITH TIME ZONE", "TIMESTAMPTZ", "TIMETZ":
		return ClassTimeTZ
	case "TIMESTAMP", "DATETIME", "TIME", "TIMESTAMP WITHOUT TIME ZONE",
		"TIME WITHOUT TIME ZONE":
		return ClassTimeNoTZ
	case "ENUM":
		return ClassEnum
	case "BLOB", "BYTEA", "BINARY", "VARBINARY", "LONGBLOB", "MEDIUMBLOB", "TINYBLOB":
		return ClassBlob
	default:
		return ClassUnknown
	}
}

// Column describes one column of a table.
type Column struct {
	Name string
	// Type is the raw upper-cased SQL type name.
	Type string
	// Class is the classification of Type.
	Class TypeClass
	// TypeParams are the parenthesized type arguments (lengths,
	// ENUM values).
	TypeParams []string
	NotNull    bool
	Unique     bool
	// AutoIncrement marks AUTO_INCREMENT/SERIAL columns.
	AutoIncrement bool
	HasDefault    bool
	// CheckInValues is populated when the column carries a
	// CHECK (col IN (...)) constraint: the permitted values.
	CheckInValues []string
}

// ForeignKey describes a referential constraint.
type ForeignKey struct {
	Name       string
	Columns    []string
	RefTable   string
	RefColumns []string
	OnDelete   string
	OnUpdate   string
}

// CheckConstraint is a table-level CHECK constraint.
type CheckConstraint struct {
	Name string
	// Expr is the constraint expression rendered to SQL.
	Expr string
	// Column is the single column the check constrains, when that can
	// be determined; otherwise "".
	Column string
	// InValues is populated for IN-list domain checks.
	InValues []string
}

// Index describes a secondary index.
type Index struct {
	Name    string
	Columns []string
	Unique  bool
}

// Table describes a table.
type Table struct {
	Name    string
	Columns []Column
	// PrimaryKey lists the PK column names, empty when the table has
	// no primary key.
	PrimaryKey  []string
	ForeignKeys []ForeignKey
	Checks      []CheckConstraint
	Indexes     []Index
	// SelfRefFK is true when a foreign key references the same table
	// (adjacency list design).
	SelfRefFK bool
}

// Column returns the column with the given name (case-insensitive),
// or nil.
func (t *Table) Column(name string) *Column {
	for i := range t.Columns {
		if strings.EqualFold(t.Columns[i].Name, name) {
			return &t.Columns[i]
		}
	}
	return nil
}

// HasPrimaryKey reports whether the table declares a primary key.
func (t *Table) HasPrimaryKey() bool { return len(t.PrimaryKey) > 0 }

// IndexedColumns returns the set of column names that are the leading
// column of some index (including the primary key), lower-cased.
func (t *Table) IndexedColumns() map[string]bool {
	m := make(map[string]bool)
	if len(t.PrimaryKey) > 0 {
		m[strings.ToLower(t.PrimaryKey[0])] = true
	}
	for _, ix := range t.Indexes {
		if len(ix.Columns) > 0 {
			m[strings.ToLower(ix.Columns[0])] = true
		}
	}
	for i := range t.Columns {
		if t.Columns[i].Unique {
			m[strings.ToLower(t.Columns[i].Name)] = true
		}
	}
	return m
}

// Schema is a collection of tables keyed by lower-cased name.
type Schema struct {
	tables map[string]*Table
	order  []string // insertion order of lower-cased names
}

// NewSchema returns an empty schema.
func NewSchema() *Schema {
	return &Schema{tables: make(map[string]*Table)}
}

// AddTable inserts or replaces a table.
func (s *Schema) AddTable(t *Table) {
	key := strings.ToLower(t.Name)
	if _, exists := s.tables[key]; !exists {
		s.order = append(s.order, key)
	}
	s.tables[key] = t
}

// DropTable removes a table if present.
func (s *Schema) DropTable(name string) {
	key := strings.ToLower(name)
	if _, ok := s.tables[key]; !ok {
		return
	}
	delete(s.tables, key)
	for i, k := range s.order {
		if k == key {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
}

// Table returns the table with the given name (case-insensitive), or
// nil.
func (s *Schema) Table(name string) *Table {
	return s.tables[strings.ToLower(name)]
}

// Tables returns all tables in insertion order.
func (s *Schema) Tables() []*Table {
	out := make([]*Table, 0, len(s.order))
	for _, k := range s.order {
		out = append(out, s.tables[k])
	}
	return out
}

// Len returns the number of tables.
func (s *Schema) Len() int { return len(s.tables) }
