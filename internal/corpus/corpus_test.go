package corpus

import (
	"strings"
	"testing"

	"sqlcheck/internal/core"
	"sqlcheck/internal/exec"
	"sqlcheck/internal/parser"
	"sqlcheck/internal/rules"
)

func TestGitHubDeterministic(t *testing.T) {
	a := GitHub(GitHubOptions{Repos: 5, Seed: 9})
	b := GitHub(GitHubOptions{Repos: 5, Seed: 9})
	if a.TotalStatements() != b.TotalStatements() {
		t.Fatal("same seed, different sizes")
	}
	for i := range a.Repos {
		for j := range a.Repos[i].Statements {
			if a.Repos[i].Statements[j] != b.Repos[i].Statements[j] {
				t.Fatal("same seed, different statements")
			}
		}
	}
	c := GitHub(GitHubOptions{Repos: 5, Seed: 10})
	if c.Repos[0].Statements[0] == a.Repos[0].Statements[0] && c.Repos[0].Statements[1] == a.Repos[0].Statements[1] {
		t.Error("different seeds produced identical output")
	}
}

func TestGitHubSizesAndLabels(t *testing.T) {
	c := GitHub(GitHubOptions{Repos: 20, Seed: 3})
	if len(c.Repos) != 20 {
		t.Fatalf("repos = %d", len(c.Repos))
	}
	total := c.TotalStatements()
	if total < 20*15 || total > 20*45 {
		t.Errorf("total statements = %d out of bounds", total)
	}
	truth := c.TruthByRule()
	// The generator must exercise a broad range of AP types.
	if len(truth) < 12 {
		t.Errorf("truth rule types = %d (%v), want >= 12", len(truth), truth)
	}
	for _, required := range []string{
		rules.IDMultiValuedAttribute, rules.IDPatternMatching,
		rules.IDNoPrimaryKey, rules.IDEnumeratedTypes, rules.IDGodTable,
	} {
		if truth[required] == 0 {
			t.Errorf("no truth instances for %s", required)
		}
	}
	if got := c.RuleIDsInTruth(); len(got) != len(truth) {
		t.Errorf("RuleIDsInTruth = %v", got)
	}
}

func TestGitHubStatementsParse(t *testing.T) {
	c := GitHub(GitHubOptions{Repos: 10, Seed: 7})
	for _, r := range c.Repos {
		for _, s := range r.Statements {
			if st := parser.Parse(s); st == nil {
				t.Fatalf("statement failed to parse: %q", s)
			}
		}
	}
}

// Ground truth sanity: sqlcheck must find labeled god-table statements
// and must not flag the adversarial comma-heavy negatives.
func TestGitHubAdversarialsBehave(t *testing.T) {
	c := GitHub(GitHubOptions{Repos: 30, Seed: 5})
	for _, repo := range c.Repos {
		sql := strings.Join(repo.Statements, ";\n")
		res := core.DetectSQL(sql, nil, core.DefaultOptions())
		for _, f := range res.Findings {
			if f.RuleID != rules.IDGodTable || f.QueryIndex < 0 {
				continue
			}
			if !repo.HasTruth(f.QueryIndex, rules.IDGodTable) {
				t.Errorf("god-table FP on %q", repo.Statements[f.QueryIndex])
			}
		}
	}
}

func TestRepoHelpers(t *testing.T) {
	r := &Repo{Name: "x"}
	i := r.AddStatement("SELECT 1")
	j := r.AddStatement("SELECT * FROM t", rules.IDColumnWildcard)
	if i != 0 || j != 1 {
		t.Fatal("indexes")
	}
	if r.HasTruth(0, rules.IDColumnWildcard) || !r.HasTruth(1, rules.IDColumnWildcard) {
		t.Error("HasTruth")
	}
	if r.TruthCount(rules.IDColumnWildcard) != 1 {
		t.Error("TruthCount")
	}
}

func TestKaggleSuiteMatchesTable6(t *testing.T) {
	suite := KaggleSuite(KaggleSuiteOptions{})
	if len(suite) != 31 {
		t.Fatalf("databases = %d, want 31", len(suite))
	}
	total := 0
	byName := map[string]*KaggleDB{}
	for _, k := range suite {
		total += k.TotalSeeded()
		byName[k.Name] = k
	}
	if total != 200 {
		t.Errorf("total seeded = %d, want 200 (paper Table 6)", total)
	}
	if byName["history-of-baseball"].TotalSeeded() != 41 {
		t.Errorf("history-of-baseball = %d, want 41", byName["history-of-baseball"].TotalSeeded())
	}
	if byName["twitter-black-panther"].TotalSeeded() != 0 {
		t.Error("clean database has seeds")
	}
	// Every database with seeds has tables with data.
	for _, k := range suite {
		if k.TotalSeeded() > 0 && len(k.DB.Tables()) == 0 {
			t.Errorf("%s has no tables", k.Name)
		}
	}
}

func TestKaggleSeedsAreDetectable(t *testing.T) {
	// Data analysis alone (no queries) must find the seeded AP types
	// in a sample database — the §8.4 data-analysis experiment.
	suite := KaggleSuite(KaggleSuiteOptions{})
	var baseball *KaggleDB
	for _, k := range suite {
		if k.Name == "history-of-baseball" {
			baseball = k
		}
	}
	res := core.DetectSQL("", baseball.DB, core.DefaultOptions())
	found := core.CountByRule(res.Findings)
	for ruleID := range baseball.Seeded {
		if found[ruleID] == 0 {
			t.Errorf("seeded %s not detected; found %v", ruleID, found)
		}
	}
}

func TestDjangoSuiteMatchesTable7(t *testing.T) {
	suite := DjangoSuite(DjangoSuiteOptions{})
	if len(suite) != 15 {
		t.Fatalf("apps = %d, want 15", len(suite))
	}
	total := 0
	for _, a := range suite {
		total += a.TotalSeeded()
		if a.TotalSeeded() == 0 {
			t.Errorf("%s has no seeds", a.Name)
		}
		// Every reported type is seeded.
		for _, rep := range a.Reported {
			if a.Seeded[rep] == 0 {
				t.Errorf("%s reported %s but did not seed it", a.Name, rep)
			}
		}
	}
	if total != 123 {
		t.Errorf("total seeded = %d, want 123 (paper Table 7)", total)
	}
}

func TestDjangoWorkloadsDetectable(t *testing.T) {
	suite := DjangoSuite(DjangoSuiteOptions{})
	app := suite[0] // globaleaks: no-foreign-key + enumerated-types
	res := core.DetectSQL(strings.Join(app.Statements, ";\n"), app.DB, core.DefaultOptions())
	found := core.CountByRule(res.Findings)
	for _, rep := range app.Reported {
		if found[rep] == 0 {
			t.Errorf("reported AP %s not detected in %s; found %v", rep, app.Name, found)
		}
	}
}

func TestUserStudyShape(t *testing.T) {
	parts := UserStudy(UserStudyOptions{})
	if len(parts) != 23 {
		t.Fatalf("participants = %d", len(parts))
	}
	totals := Totals(parts)
	if totals.MeanPerUser < 32 || totals.MeanPerUser > 64 {
		t.Errorf("mean statements per user = %v, want ~43", totals.MeanPerUser)
	}
	if totals.TruthInstances == 0 {
		t.Error("no APs injected")
	}
	if totals.EngagedUsers != 20 {
		t.Errorf("engaged = %d, want 20", totals.EngagedUsers)
	}
	// Skill anti-correlates with injected APs: compare the top and
	// bottom skill halves.
	lowAPs, highAPs, low, high := 0, 0, 0, 0
	for _, p := range parts {
		n := 0
		for _, ids := range p.Truth {
			n += len(ids)
		}
		if p.Skill < 0.55 {
			lowAPs += n
			low++
		} else {
			highAPs += n
			high++
		}
	}
	if low > 0 && high > 0 && float64(lowAPs)/float64(low) <= float64(highAPs)/float64(high) {
		t.Errorf("skill does not reduce AP rate: low %d/%d high %d/%d", lowAPs, low, highAPs, high)
	}
}

func TestGlobaLeaksVariants(t *testing.T) {
	opts := GlobaLeaksOptions{Tenants: 50, Users: 150, UsersPerTenant: 3, Seed: 2}
	mva := GlobaLeaksMVA(opts)
	fixed := GlobaLeaksFixed(opts)
	if mva.Table("Tenants").Len() != 50 || fixed.Table("Tenants").Len() != 50 {
		t.Fatal("tenant counts")
	}
	if fixed.Table("Hosting").Len() != 150 {
		t.Fatalf("hosting rows = %d", fixed.Table("Hosting").Len())
	}
	// Task #1 returns the same logical answer on both designs.
	r1, err := exec.RunSQL(mva, `SELECT Tenant_ID FROM Tenants WHERE User_IDs LIKE '[[:<:]]U10[[:>:]]'`)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := exec.RunSQL(fixed, `SELECT Tenant_ID FROM Hosting WHERE User_ID = 'U10'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Rows) == 0 || len(r1.Rows) != len(r2.Rows) {
		t.Fatalf("task1 rows: mva=%d fixed=%d", len(r1.Rows), len(r2.Rows))
	}
	// The MVA design is detected by sqlcheck's data rules.
	res := core.DetectSQL("", mva, core.DefaultOptions())
	if core.CountByRule(res.Findings)[rules.IDMultiValuedAttribute] == 0 {
		t.Error("MVA not detected in the AP design")
	}
}

// StudyTotals aggregates the simulation for reporting.
type StudyTotals struct {
	Participants   int
	Statements     int
	TruthInstances int
	MeanPerUser    float64
	EngagedUsers   int
}

// Totals computes aggregate statistics.
func Totals(parts []*Participant) StudyTotals {
	t := StudyTotals{Participants: len(parts)}
	for _, p := range parts {
		t.Statements += len(p.Statements)
		for _, ids := range p.Truth {
			t.TruthInstances += len(ids)
		}
		if p.Engaged {
			t.EngagedUsers++
		}
	}
	if len(parts) > 0 {
		t.MeanPerUser = float64(t.Statements) / float64(len(parts))
	}
	return t
}
