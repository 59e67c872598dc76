// Package dbdeo reimplements the baseline anti-pattern detector of
// Sharma et al. ("Smelly relations", ICSE 2018) that the paper
// compares against (§8.1). dbdeo is a per-statement, regex-driven
// static analyzer supporting 11 anti-pattern types. Its detection
// style is reproduced faithfully, including the behaviors the paper
// criticizes: string-level matching with no schema or data context,
// which yields both false positives (e.g. counting type-parameter
// commas toward the god-table column threshold, flagging every LIKE as
// pattern matching) and false negatives (e.g. missing CHECK IN-list
// enumerations).
package dbdeo

import (
	"regexp"
	"strings"

	"sqlcheck/internal/rules"
)

// Types lists the 11 anti-pattern types dbdeo supports, identified by
// the same rule IDs sqlcheck uses so results are comparable.
var Types = []string{
	rules.IDMultiValuedAttribute,
	rules.IDNoPrimaryKey,
	rules.IDGodTable,
	rules.IDDataInMetadata,
	rules.IDAdjacencyList,
	rules.IDRoundingErrors,
	rules.IDEnumeratedTypes,
	rules.IDIndexOveruse,
	rules.IDIndexUnderuse,
	rules.IDCloneTable,
	rules.IDPatternMatching,
}

// Finding is one dbdeo detection.
type Finding struct {
	RuleID         string
	StatementIndex int
	Match          string
}

var (
	reCreateTable = regexp.MustCompile(`(?is)^\s*create\s+(temporary\s+|temp\s+)?table\s+(if\s+not\s+exists\s+)?([\w."\x60\[\]]+)`)
	reCreateIndex = regexp.MustCompile(`(?is)^\s*create\s+(unique\s+)?index\s+\S+\s+on\s+([\w."\x60]+)`)
	rePrimaryKey  = regexp.MustCompile(`(?i)primary\s+key`)
	// MVA per dbdeo: an id-ish column compared with LIKE/REGEXP
	// (the paper quotes the regex family "(id\s+regexp)|(id\s+like)").
	reMVA = regexp.MustCompile(`(?i)\b\w*ids?\s+(not\s+)?(like|regexp|rlike)\b`)
	// Every LIKE/REGEXP counts as pattern matching for dbdeo.
	rePattern = regexp.MustCompile(`(?i)\b(like|regexp|rlike|similar\s+to)\b`)
	reEnum    = regexp.MustCompile(`(?i)\benum\s*\(`)
	reFloat   = regexp.MustCompile(`(?i)\b(float|real|double)\b`)
	// Numeric-suffixed identifiers suggest data in metadata — with no
	// context this over-matches hashes, address lines, etc.
	reMeta = regexp.MustCompile(`(?i)\b([a-z_]+\d+)\s+(int|integer|bigint|smallint|varchar|text|char|float|double|real|decimal|numeric|date|datetime|timestamp|boolean)\b`)
	// Adjacency list by column naming.
	reAdjacency = regexp.MustCompile(`(?i)\b(parent_?id|manager_?id)\b`)
	// Clone tables by name suffix.
	reCloneName = regexp.MustCompile(`(?i)^[\w]*[a-z]_?\d+$`)
)

// Detector carries the minimal cross-statement state dbdeo keeps (a
// count of indexes per table for the index-overuse smell).
type Detector struct {
	indexesPerTable map[string]int
	// OveruseThreshold is the per-table index count beyond which
	// CREATE INDEX statements are flagged.
	OveruseThreshold int
}

// New returns a detector with dbdeo's defaults.
func New() *Detector {
	return &Detector{indexesPerTable: map[string]int{}, OveruseThreshold: 3}
}

// Detect runs the regex rules over each raw SQL statement.
func Detect(stmts []string) []Finding {
	return New().DetectAll(stmts)
}

// DetectAll analyzes the statements in order.
func (d *Detector) DetectAll(stmts []string) []Finding {
	var out []Finding
	for i, s := range stmts {
		out = append(out, d.DetectOne(i, s)...)
	}
	return out
}

// DetectOne analyzes one raw statement.
func (d *Detector) DetectOne(idx int, stmt string) []Finding {
	var out []Finding
	add := func(ruleID, match string) {
		out = append(out, Finding{RuleID: ruleID, StatementIndex: idx, Match: match})
	}

	if m := reMVA.FindString(stmt); m != "" {
		add(rules.IDMultiValuedAttribute, m)
	}
	if m := rePattern.FindString(stmt); m != "" {
		add(rules.IDPatternMatching, m)
	}

	if ct := reCreateTable.FindStringSubmatch(stmt); ct != nil {
		tableName := strings.Trim(ct[3], "\"`[]")
		if !rePrimaryKey.MatchString(stmt) {
			add(rules.IDNoPrimaryKey, tableName)
		}
		// God table: dbdeo counts commas inside the outermost
		// parentheses — type parameters such as NUMERIC(10,2) and
		// ENUM('a','b') inflate the count (a known FP source).
		if commas := strings.Count(stmt, ","); commas >= 10 {
			add(rules.IDGodTable, tableName)
		}
		if m := reMeta.FindAllString(stmt, -1); len(m) >= 2 {
			add(rules.IDDataInMetadata, strings.Join(dedupeStrings(m), "; "))
		}
		if m := reAdjacency.FindString(stmt); m != "" {
			add(rules.IDAdjacencyList, m)
		}
		if m := reFloat.FindString(stmt); m != "" {
			add(rules.IDRoundingErrors, m)
		}
		if m := reEnum.FindString(stmt); m != "" {
			add(rules.IDEnumeratedTypes, m)
		}
		if reCloneName.MatchString(tableName) && regexp.MustCompile(`\d$`).MatchString(tableName) {
			add(rules.IDCloneTable, tableName)
		}
		// Index underuse: a wide table whose DDL declares no secondary
		// key material at all.
		if strings.Count(stmt, ",") >= 5 && !regexp.MustCompile(`(?i)\b(index|key|unique)\b`).MatchString(stmt) {
			add(rules.IDIndexUnderuse, tableName)
		}
	}

	if ci := reCreateIndex.FindStringSubmatch(stmt); ci != nil {
		table := strings.ToLower(strings.Trim(ci[2], "\"`"))
		d.indexesPerTable[table]++
		if d.indexesPerTable[table] > d.OveruseThreshold {
			add(rules.IDIndexOveruse, table)
		}
	}

	return out
}

func dedupeStrings(in []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range in {
		k := strings.ToLower(s)
		if !seen[k] {
			seen[k] = true
			out = append(out, s)
		}
	}
	return out
}
