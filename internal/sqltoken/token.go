// Package sqltoken implements a dialect-tolerant SQL lexer.
//
// The lexer is the lowest layer of sqlcheck's non-validating parser
// (DESIGN.md §1, item 1). It never fails: byte sequences that do not
// form a recognizable token are emitted as TokenOther so higher layers
// can keep going, mirroring the permissiveness of the sqlparse library
// used by the original paper.
package sqltoken

import (
	"strings"
)

// Kind classifies a lexical token.
type Kind int

// Token kinds. TokenOther covers any byte sequence the lexer cannot
// classify; it is still carried through so no input is ever lost.
const (
	TokenEOF Kind = iota
	TokenWhitespace
	TokenComment
	TokenKeyword
	TokenIdent       // unquoted identifier
	TokenQuotedIdent // "ident", `ident`, [ident]
	TokenNumber
	TokenString // 'literal'
	TokenOperator
	TokenPunct       // ( ) , ; .
	TokenPlaceholder // ? or $1 or :name or %s
	TokenOther
)

var kindNames = map[Kind]string{
	TokenEOF:         "EOF",
	TokenWhitespace:  "Whitespace",
	TokenComment:     "Comment",
	TokenKeyword:     "Keyword",
	TokenIdent:       "Ident",
	TokenQuotedIdent: "QuotedIdent",
	TokenNumber:      "Number",
	TokenString:      "String",
	TokenOperator:    "Operator",
	TokenPunct:       "Punct",
	TokenPlaceholder: "Placeholder",
	TokenOther:       "Other",
}

// String returns a human-readable name for the kind.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return "Unknown"
}

// Token is a single lexical token with its source position.
type Token struct {
	Kind Kind
	// Text is the raw source text, including quotes for strings and
	// quoted identifiers.
	Text string
	// Pos is the byte offset of the token in the input.
	Pos int
	// Line is the 1-based line number of the token start.
	Line int
}

// Upper returns the token text upper-cased; useful for keyword and
// identifier comparison since SQL is case-insensitive. Keywords, type
// names, and other interned words return a shared canonical string
// without allocating (see CanonUpper).
func (t Token) Upper() string { return CanonUpper(t.Text) }

// Is reports whether the token is a keyword or identifier whose
// upper-cased text equals word (which must be given upper-cased).
// Allocation-free: the comparison folds in place.
func (t Token) Is(word string) bool {
	if t.Kind != TokenKeyword && t.Kind != TokenIdent {
		return false
	}
	return asciiEqualFold(t.Text, word)
}

// IsPunct reports whether the token is punctuation with the given text.
func (t Token) IsPunct(s string) bool {
	return t.Kind == TokenPunct && t.Text == s
}

// IsOp reports whether the token is an operator with the given text.
func (t Token) IsOp(s string) bool {
	return t.Kind == TokenOperator && t.Text == s
}

// Ident returns the identifier value with quoting stripped. For
// non-identifier tokens it returns Text unchanged.
func (t Token) Ident() string {
	switch t.Kind {
	case TokenQuotedIdent:
		s := t.Text
		if len(s) >= 2 {
			switch s[0] {
			case '"', '`':
				return strings.ReplaceAll(s[1:len(s)-1], string(s[0])+string(s[0]), string(s[0]))
			case '[':
				return s[1 : len(s)-1]
			}
		}
		return s
	default:
		return t.Text
	}
}

// keywords is the set of words lexed as TokenKeyword. It spans the
// union of the dialects the detector cares about (ANSI + common
// PostgreSQL/MySQL/SQLite extensions); anything else is an Ident.
var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "INSERT": true,
	"INTO": true, "VALUES": true, "UPDATE": true, "SET": true,
	"DELETE": true, "CREATE": true, "TABLE": true, "INDEX": true,
	"VIEW": true, "DROP": true, "ALTER": true, "ADD": true,
	"COLUMN": true, "CONSTRAINT": true, "PRIMARY": true, "KEY": true,
	"FOREIGN": true, "REFERENCES": true, "UNIQUE": true, "CHECK": true,
	"NOT": true, "NULL": true, "DEFAULT": true, "AND": true, "OR": true,
	"IN": true, "IS": true, "LIKE": true, "ILIKE": true, "BETWEEN": true,
	"EXISTS": true, "JOIN": true, "INNER": true, "LEFT": true,
	"RIGHT": true, "FULL": true, "OUTER": true, "CROSS": true,
	"ON": true, "USING": true, "AS": true, "DISTINCT": true, "ALL": true,
	"GROUP": true, "BY": true, "HAVING": true, "ORDER": true, "ASC": true,
	"DESC": true, "LIMIT": true, "OFFSET": true, "UNION": true,
	"INTERSECT": true, "EXCEPT": true, "CASE": true, "WHEN": true,
	"THEN": true, "ELSE": true, "END": true, "CAST": true,
	"ENUM": true, "IF": true, "CASCADE": true, "RESTRICT": true,
	"AUTO_INCREMENT": true, "AUTOINCREMENT": true, "SERIAL": true,
	"TRUE": true, "FALSE": true, "BEGIN": true, "COMMIT": true,
	"ROLLBACK": true, "TRANSACTION": true, "EXPLAIN": true,
	"ANALYZE": true, "VACUUM": true, "WITH": true, "RECURSIVE": true,
	"RETURNING": true, "CONFLICT": true, "NOTHING": true, "DO": true,
	"REPLACE": true, "TEMPORARY": true, "TEMP": true, "REGEXP": true,
	"RLIKE": true, "SIMILAR": true, "TO": true, "ESCAPE": true,
	"COLLATE": true, "PRAGMA": true, "RENAME": true, "TRUNCATE": true,
	"GRANT": true, "REVOKE": true, "PRIMARYKEY": true,
	"ENGINE": true, "CHARSET": true, "COMMENT": true, "USE": true,
	"DATABASE": true, "SCHEMA": true, "GLOB": true, "MATCH": true,
}
