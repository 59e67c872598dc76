package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"sqlcheck/internal/appctx"
	"sqlcheck/internal/core"
	"sqlcheck/internal/corpus"
	"sqlcheck/internal/dbdeo"
	"sqlcheck/internal/rules"
)

// statementFlags maps statement index -> set of rule IDs a detector
// flagged.
type statementFlags map[int]map[string]bool

func (sf statementFlags) add(idx int, ruleID string) {
	if sf[idx] == nil {
		sf[idx] = map[string]bool{}
	}
	sf[idx][ruleID] = true
}

// runDbdeo flags a repo with the baseline detector.
func runDbdeo(repo *corpus.Repo) statementFlags {
	sf := statementFlags{}
	for _, f := range dbdeo.Detect(repo.Statements) {
		sf.add(f.StatementIndex, f.RuleID)
	}
	return sf
}

// runSqlcheck flags a repo with sqlcheck in the given mode, attributing
// schema-level findings (QueryIndex == -1) to the DDL statement that
// created the table or index in question.
func runSqlcheck(repo *corpus.Repo, mode appctx.Mode) statementFlags {
	opts := core.DefaultOptions()
	opts.Config.Mode = mode
	res := core.DetectSQL(strings.Join(repo.Statements, ";\n"), nil, opts)
	sf := statementFlags{}
	for _, f := range res.Findings {
		idx := f.QueryIndex
		if idx < 0 {
			idx = attributeToStatement(res, f)
		}
		if idx < 0 {
			continue
		}
		sf.add(idx, f.RuleID)
	}
	return sf
}

// attributeToStatement locates the statement responsible for a
// schema-level finding.
func attributeToStatement(res *core.Result, f rules.Finding) int {
	for qi, facts := range res.Context.Facts {
		if f.RuleID == rules.IDIndexOveruse && facts.CreatesIndex != "" &&
			strings.EqualFold(facts.CreatesIndex, f.Column) {
			return qi
		}
		if facts.CreatesTable != "" && strings.EqualFold(facts.CreatesTable, f.Table) {
			return qi
		}
	}
	return -1
}

// DetectionStats accumulates TP/FP/FN for one (detector, rule) pair.
type DetectionStats struct {
	TP, FP, FN int
	Detected   int
}

// Precision returns TP/(TP+FP), 1.0 when nothing was flagged.
func (d DetectionStats) Precision() float64 {
	if d.TP+d.FP == 0 {
		return 1
	}
	return float64(d.TP) / float64(d.TP+d.FP)
}

// Recall returns TP/(TP+FN), 1.0 when nothing was there to find.
func (d DetectionStats) Recall() float64 {
	if d.TP+d.FN == 0 {
		return 1
	}
	return float64(d.TP) / float64(d.TP+d.FN)
}

// score compares detector flags against ground truth for one rule over
// one repo.
func score(repo *corpus.Repo, flags statementFlags, ruleID string, st *DetectionStats) {
	for idx := range repo.Statements {
		flagged := flags[idx][ruleID]
		truth := repo.HasTruth(idx, ruleID)
		switch {
		case flagged && truth:
			st.TP++
			st.Detected++
		case flagged && !truth:
			st.FP++
			st.Detected++
		case !flagged && truth:
			st.FN++
		}
	}
}

// auditedTypes are the six anti-patterns the paper's Table 2 audits
// manually.
var auditedTypes = []string{
	rules.IDPatternMatching,
	rules.IDGodTable,
	rules.IDEnumeratedTypes,
	rules.IDRoundingErrors,
	rules.IDDataInMetadata,
	rules.IDAdjacencyList,
}

// Table2Row is one audited anti-pattern's comparison.
type Table2Row struct {
	Rule     string
	Sqlcheck DetectionStats
	Dbdeo    DetectionStats
}

// Table2Result reproduces paper Table 2 plus the §8.1 aggregate claims
// (detection counts under intra-only and intra+inter configurations).
type Table2Result struct {
	Rows []Table2Row
	// Totals per detector/mode: total flags and distinct AP types.
	DbdeoTotal, IntraTotal, InterTotal int
	DbdeoTypes, IntraTypes, InterTypes int
	// TotalSqlcheck/TotalDbdeo aggregate the audited rows.
	TotalSqlcheck, TotalDbdeo DetectionStats
}

// Table2 runs both detectors over the labeled corpus.
func Table2(scale Scale) *Table2Result {
	repos := 80
	if scale == Full {
		repos = 400
	}
	c := corpus.GitHub(corpus.GitHubOptions{Repos: repos, Seed: 1})
	res := &Table2Result{}
	perRule := map[string]*Table2Row{}
	for _, ruleID := range auditedTypes {
		perRule[ruleID] = &Table2Row{Rule: ruleID}
	}
	dbdeoTypeSet := map[string]bool{}
	intraTypeSet := map[string]bool{}
	interTypeSet := map[string]bool{}

	for _, repo := range c.Repos {
		dFlags := runDbdeo(repo)
		iFlags := runSqlcheck(repo, appctx.ModeIntra)
		nFlags := runSqlcheck(repo, appctx.ModeInter)
		for _, ruleID := range auditedTypes {
			row := perRule[ruleID]
			score(repo, nFlags, ruleID, &row.Sqlcheck)
			score(repo, dFlags, ruleID, &row.Dbdeo)
		}
		for idx := range repo.Statements {
			for id := range dFlags[idx] {
				res.DbdeoTotal++
				dbdeoTypeSet[id] = true
			}
			for id := range iFlags[idx] {
				res.IntraTotal++
				intraTypeSet[id] = true
			}
			for id := range nFlags[idx] {
				res.InterTotal++
				interTypeSet[id] = true
			}
		}
	}
	for _, ruleID := range auditedTypes {
		row := perRule[ruleID]
		res.Rows = append(res.Rows, *row)
		res.TotalSqlcheck.TP += row.Sqlcheck.TP
		res.TotalSqlcheck.FP += row.Sqlcheck.FP
		res.TotalSqlcheck.FN += row.Sqlcheck.FN
		res.TotalDbdeo.TP += row.Dbdeo.TP
		res.TotalDbdeo.FP += row.Dbdeo.FP
		res.TotalDbdeo.FN += row.Dbdeo.FN
	}
	res.DbdeoTypes = len(dbdeoTypeSet)
	res.IntraTypes = len(intraTypeSet)
	res.InterTypes = len(interTypeSet)
	return res
}

// Fprint renders the table.
func (t *Table2Result) Fprint(w io.Writer) {
	fmt.Fprintln(w, "Table 2: detection quality, sqlcheck (S) vs dbdeo (D)")
	fmt.Fprintf(w, "%-24s %6s %6s %6s %6s %6s %6s %7s %7s\n",
		"anti-pattern", "TP-S", "FP-S", "FN-S", "TP-D", "FP-D", "FN-D", "prec-S", "prec-D")
	for _, r := range t.Rows {
		fmt.Fprintf(w, "%-24s %6d %6d %6d %6d %6d %6d %6.0f%% %6.0f%%\n",
			r.Rule, r.Sqlcheck.TP, r.Sqlcheck.FP, r.Sqlcheck.FN,
			r.Dbdeo.TP, r.Dbdeo.FP, r.Dbdeo.FN,
			100*r.Sqlcheck.Precision(), 100*r.Dbdeo.Precision())
	}
	s, d := t.TotalSqlcheck, t.TotalDbdeo
	fmt.Fprintf(w, "%-24s %6d %6d %6d %6d %6d %6d %6.0f%% %6.0f%%\n",
		"TOTAL", s.TP, s.FP, s.FN, d.TP, d.FP, d.FN, 100*s.Precision(), 100*d.Precision())
	fmt.Fprintf(w, "\nfewer false positives than dbdeo: %.0f%% (paper: 48%%)\n", pctFewer(s.FP, d.FP))
	fmt.Fprintf(w, "fewer false negatives than dbdeo: %.0f%% (paper: 20%%)\n", pctFewer(s.FN, d.FN))
	fmt.Fprintf(w, "\ndetections: dbdeo %d (%d types), sqlcheck intra %d (%d types), intra+inter %d (%d types)\n",
		t.DbdeoTotal, t.DbdeoTypes, t.IntraTotal, t.IntraTypes, t.InterTotal, t.InterTypes)
	fmt.Fprintf(w, "(paper: 14764/11, 86656/18, 63058/21 — intra flags more, inter prunes FPs and adds types)\n\n")
}

func pctFewer(ours, theirs int) float64 {
	if theirs == 0 {
		return 0
	}
	return 100 * float64(theirs-ours) / float64(theirs)
}

// Table3Result reproduces paper Table 3: per-AP detection counts for
// dbdeo and sqlcheck across the three sources.
type Table3Result struct {
	// Counts[source][ruleID][detector] with detector "S" or "D".
	GitHubS, GitHubD map[string]int
	StudyS, StudyD   map[string]int
	KaggleS          map[string]int
}

// Table3 aggregates detections across corpora.
func Table3(scale Scale) *Table3Result {
	res := &Table3Result{
		GitHubS: map[string]int{}, GitHubD: map[string]int{},
		StudyS: map[string]int{}, StudyD: map[string]int{},
		KaggleS: map[string]int{},
	}
	repos := 80
	if scale == Full {
		repos = 400
	}
	c := corpus.GitHub(corpus.GitHubOptions{Repos: repos, Seed: 1})
	for _, repo := range c.Repos {
		for _, f := range dbdeo.Detect(repo.Statements) {
			res.GitHubD[f.RuleID]++
		}
		opts := core.DefaultOptions()
		r := core.DetectSQL(strings.Join(repo.Statements, ";\n"), nil, opts)
		for _, f := range r.Findings {
			res.GitHubS[f.RuleID]++
		}
	}
	for _, p := range corpus.UserStudy(corpus.UserStudyOptions{}) {
		for _, f := range dbdeo.Detect(p.Statements) {
			res.StudyD[f.RuleID]++
		}
		r := core.DetectSQL(strings.Join(p.Statements, ";\n"), nil, core.DefaultOptions())
		for _, f := range r.Findings {
			res.StudyS[f.RuleID]++
		}
	}
	for _, k := range corpus.KaggleSuite(corpus.KaggleSuiteOptions{}) {
		r := core.DetectSQL("", k.DB, core.DefaultOptions())
		for _, f := range r.Findings {
			res.KaggleS[f.RuleID]++
		}
	}
	return res
}

// Fprint renders the distribution.
func (t *Table3Result) Fprint(w io.Writer) {
	fmt.Fprintln(w, "Table 3: AP distribution — dbdeo (D) vs sqlcheck (S)")
	fmt.Fprintf(w, "%-26s %8s %8s %8s %8s %8s\n", "anti-pattern", "gh-D", "gh-S", "study-D", "study-S", "kaggle-S")
	ids := map[string]bool{}
	for _, m := range []map[string]int{t.GitHubS, t.GitHubD, t.StudyS, t.StudyD, t.KaggleS} {
		for id := range m {
			ids[id] = true
		}
	}
	var ordered []string
	for id := range ids {
		ordered = append(ordered, id)
	}
	sort.Slice(ordered, func(i, j int) bool {
		return t.GitHubS[ordered[i]]+t.StudyS[ordered[i]] > t.GitHubS[ordered[j]]+t.StudyS[ordered[j]]
	})
	var gd, gs, sd, ss, ks int
	for _, id := range ordered {
		fmt.Fprintf(w, "%-26s %8d %8d %8d %8d %8d\n", id,
			t.GitHubD[id], t.GitHubS[id], t.StudyD[id], t.StudyS[id], t.KaggleS[id])
		gd += t.GitHubD[id]
		gs += t.GitHubS[id]
		sd += t.StudyD[id]
		ss += t.StudyS[id]
		ks += t.KaggleS[id]
	}
	fmt.Fprintf(w, "%-26s %8d %8d %8d %8d %8d\n", "TOTAL", gd, gs, sd, ss, ks)
	fmt.Fprintf(w, "(paper totals: 14764 D / 63058 S on GitHub, 278 D / 336 S in the study, 200 S on Kaggle)\n\n")
}
