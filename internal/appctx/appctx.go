// Package appctx builds the application context that inter-query and
// data rules consume (paper §4.1, Algorithm 1's Context-Builder). The
// context fuses three sources: the schema (from DDL statements or
// reflected from a live database), per-statement query facts, and data
// profiles. It exports the queryable interface the paper describes:
// join edges, per-column predicate counts, index usage, and profile
// lookup.
package appctx

import (
	"strings"

	"sqlcheck/internal/profile"
	"sqlcheck/internal/qanalyze"
	"sqlcheck/internal/schema"
	"sqlcheck/internal/sqlast"
	"sqlcheck/internal/storage"
)

// Mode selects the detection configuration evaluated in §8.1: pure
// intra-query analysis, or intra + inter-query analysis with the full
// application context.
type Mode int

// Detection modes.
const (
	// ModeIntra applies rules to each statement in isolation: no
	// schema, no cross-query facts, no data analysis.
	ModeIntra Mode = iota
	// ModeInter builds the full application context.
	ModeInter
)

// Config carries the tunable thresholds the rules use.
type Config struct {
	Mode Mode
	// GodTableColumns is the column-count threshold for the god-table
	// rule (paper Table 1 example: 10).
	GodTableColumns int
	// TooManyJoins is the join-count threshold (Table 1: "number of
	// JOINs cross a threshold").
	TooManyJoins int
	// EnumDistinctRatio activates the enumerated-types data check when
	// distinct/rows falls below it (paper Example 4).
	EnumDistinctRatio float64
	// Profile carries sampling configuration for data analysis.
	Profile profile.Options
}

// DefaultConfig returns the thresholds used throughout the paper's
// evaluation.
func DefaultConfig() Config {
	return Config{
		Mode:              ModeInter,
		GodTableColumns:   10,
		TooManyJoins:      4,
		EnumDistinctRatio: 0.01,
	}
}

// JoinEdge aggregates equality join conditions between two columns
// across the workload.
type JoinEdge struct {
	LeftTable, LeftColumn   string // resolved table names, lower-cased
	RightTable, RightColumn string
	Count                   int
}

// Context is the queryable application context.
type Context struct {
	Config Config
	// Schema is never nil; in ModeIntra it is empty.
	Schema *schema.Schema
	// Facts holds the analyzed statements in input order.
	Facts []*qanalyze.Facts
	// Profiles maps lower-cased table name to its data profile; empty
	// without a database.
	Profiles map[string]*profile.TableProfile
	// DB is the live database when one was supplied.
	DB *storage.Database

	joinEdges      []JoinEdge
	predicateCount map[colKey]int // lower(table).lower(col) -> count of queries predicating on it
}

// Build constructs the context from statements and an optional live
// database.
func Build(stmts []sqlast.Statement, db *storage.Database, cfg Config) *Context {
	return BuildWithFacts(stmts, qanalyze.AnalyzeAll(stmts), db, cfg)
}

// BuildWithFacts constructs the context from statements whose facts
// were already extracted (the concurrent pipeline analyzes statements
// in parallel before the global context build). facts must be
// parallel to stmts.
func BuildWithFacts(stmts []sqlast.Statement, facts []*qanalyze.Facts, db *storage.Database, cfg Config) *Context {
	var profiles map[string]*profile.TableProfile
	if db != nil && cfg.Mode != ModeIntra {
		profiles = profile.ProfileDatabase(db, cfg.Profile)
	}
	return BuildWithProfiles(stmts, facts, db, cfg, profiles)
}

// BuildWithProfiles constructs the context from pre-computed table
// profiles — the concurrent pipeline profiles tables in parallel on
// its worker pool before the global context build, then hands the
// merged profile map in here. profiles may be nil (no data analysis);
// keys must be lower-cased table names, as ProfileDatabase produces.
func BuildWithProfiles(stmts []sqlast.Statement, facts []*qanalyze.Facts, db *storage.Database, cfg Config, profiles map[string]*profile.TableProfile) *Context {
	ctx := &Context{
		Config:         cfg,
		Schema:         schema.NewSchema(),
		Profiles:       map[string]*profile.TableProfile{},
		DB:             db,
		predicateCount: map[colKey]int{},
	}
	ctx.Facts = facts
	if cfg.Mode == ModeIntra {
		return ctx
	}
	// Schema: DDL replay plus — when a live database is available —
	// reflected tables overlaying the DDL view (paper §4.1: "If the
	// database is not available, the ContextBuilder leverages the DDL
	// statements"; with a database, reflection is authoritative for
	// the tables it holds).
	ctx.Schema = schema.FromStatements(stmts)
	if db != nil {
		for _, t := range db.Reflect().Tables() {
			ctx.Schema.AddTable(t)
		}
	}
	if profiles != nil {
		ctx.Profiles = profiles
	}
	ctx.index()
	return ctx
}

// BuildFromSQL parses and builds in one step.
func BuildFromSQL(sqlText string, db *storage.Database, cfg Config) *Context {
	return Build(parseAll(sqlText), db, cfg)
}

// colKey is the comparable (table, column) aggregate-map key. A struct
// key instead of a concatenated string: strings.ToLower returns its
// input unchanged for already-lower names (the overwhelming case), so
// building the key usually allocates nothing, where the former
// "table\x00col" concatenation allocated on every probe.
type colKey struct{ table, col string }

func key(table, col string) colKey {
	return colKey{strings.ToLower(table), strings.ToLower(col)}
}

// index derives the aggregate maps from facts.
func (c *Context) index() {
	for _, f := range c.Facts {
		for _, p := range f.Predicates {
			tbl := c.resolveFactTable(f, p.Table)
			if tbl != "" {
				c.predicateCount[key(tbl, p.Column)]++
			}
		}
		for _, je := range f.JoinEqualities {
			lt := c.resolveFactTable(f, je.LeftTable)
			rt := c.resolveFactTable(f, je.RightTable)
			if lt == "" || rt == "" {
				continue
			}
			c.addJoinEdge(lt, je.LeftColumn, rt, je.RightColumn)
			// Join columns are also lookup keys for index analysis.
			c.predicateCount[key(lt, je.LeftColumn)]++
			c.predicateCount[key(rt, je.RightColumn)]++
		}
	}
}

func (c *Context) resolveFactTable(f *qanalyze.Facts, aliasOrName string) string {
	if aliasOrName == "" {
		if len(f.Tables) == 1 {
			return strings.ToLower(f.Tables[0].Name)
		}
		return ""
	}
	if n := f.ResolveTable(aliasOrName); n != "" {
		return strings.ToLower(n)
	}
	return strings.ToLower(aliasOrName)
}

func (c *Context) addJoinEdge(lt, lc, rt, rc string) {
	lt, lc, rt, rc = strings.ToLower(lt), strings.ToLower(lc), strings.ToLower(rt), strings.ToLower(rc)
	// Normalize order so A⋈B and B⋈A merge.
	if lt > rt || (lt == rt && lc > rc) {
		lt, lc, rt, rc = rt, rc, lt, lc
	}
	for i := range c.joinEdges {
		e := &c.joinEdges[i]
		if e.LeftTable == lt && e.LeftColumn == lc && e.RightTable == rt && e.RightColumn == rc {
			e.Count++
			return
		}
	}
	c.joinEdges = append(c.joinEdges, JoinEdge{lt, lc, rt, rc, 1})
}

// JoinEdges returns the aggregated equality join graph.
func (c *Context) JoinEdges() []JoinEdge { return c.joinEdges }

// PredicateCount returns how many query predicates (including join
// keys) touch table.column.
func (c *Context) PredicateCount(table, col string) int {
	return c.predicateCount[key(table, col)]
}

// Profile returns the data profile for a table, or nil.
func (c *Context) Profile(table string) *profile.TableProfile {
	return c.Profiles[strings.ToLower(table)]
}

// Inter reports whether inter-query context is available.
func (c *Context) Inter() bool { return c.Config.Mode == ModeInter }

// HasData reports whether data profiles are available.
func (c *Context) HasData() bool { return len(c.Profiles) > 0 }
