package rules

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"sqlcheck/internal/appctx"
	"sqlcheck/internal/parser"
	"sqlcheck/internal/profile"
	"sqlcheck/internal/qanalyze"
	"sqlcheck/internal/schema"
	"sqlcheck/internal/sqlast"
)

// unregister removes a probe rule registered by a test, restoring the
// built-in catalog for the rest of the binary.
func unregister(id string) {
	registryMu.Lock()
	defer registryMu.Unlock()
	cur := loadRegistry()
	next := make([]*Rule, 0, len(cur))
	for _, r := range cur {
		if r.ID != id {
			next = append(next, r)
		}
	}
	registry.Store(&next)
	invalidateAllRuleSet()
}

// TestConcurrentRegisterAndCompile pins the pattern the copy-on-write
// registry exists for: RegisterRule may run while concurrent checks
// compile and dispatch from the catalog (the engine re-reads
// AllRuleSet per batch to honor late registration). Under -race (CI
// runs it) any unsynchronized registry access fails here.
func TestConcurrentRegisterAndCompile(t *testing.T) {
	const probes = 8
	detector := func(qi int, f *qanalyze.Facts, ctx *appctx.Context) []Finding { return nil }
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if rs := AllRuleSet(); rs.Size() < 27 {
					t.Errorf("catalog shrank mid-registration: %d rules", rs.Size())
					return
				}
				if ByID(IDGodTable) == nil {
					t.Error("built-in rule vanished mid-registration")
					return
				}
				if _, err := NewRuleSet([]string{IDGodTable}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for i := 0; i < probes; i++ {
		if err := Register(&Rule{ID: fmt.Sprintf("probe-race-%d", i), Name: "Race Probe",
			Category: Query, Description: "d", DetectQuery: detector}); err != nil {
			t.Error(err)
		}
	}
	close(stop)
	wg.Wait()
	for i := 0; i < probes; i++ {
		unregister(fmt.Sprintf("probe-race-%d", i))
	}
	if got := len(All()); got != 27 {
		t.Fatalf("registry not restored after race probes: %d rules", got)
	}
}

func TestRegistryInvariants(t *testing.T) {
	all := All()
	if len(all) != 27 {
		t.Fatalf("rules = %d, want 27", len(all))
	}
	seen := map[string]bool{}
	for _, r := range all {
		if seen[r.ID] {
			t.Errorf("duplicate rule id %s", r.ID)
		}
		seen[r.ID] = true
		if r.ID != strings.ToLower(r.ID) || strings.Contains(r.ID, " ") {
			t.Errorf("rule id %q not kebab-case", r.ID)
		}
	}
	// Returned slice is a copy: mutating it must not corrupt the
	// registry.
	all[0] = nil
	if All()[0] == nil {
		t.Error("All() exposes internal slice")
	}
}

func TestRegisterValidation(t *testing.T) {
	// Each malformed rule fails Register with an error, and
	// MustRegister, the built-in catalog's init path, with a panic.
	mustFail := func(name string, r *Rule) {
		t.Helper()
		if err := Register(r); err == nil {
			t.Errorf("%s: Register accepted the rule", name)
			unregister(r.ID)
		}
		defer func() {
			if recover() == nil {
				t.Errorf("%s: MustRegister did not panic", name)
				unregister(r.ID)
			}
		}()
		MustRegister(r)
	}
	// detector is a minimal valid query detector for probe rules.
	detector := func(qi int, f *qanalyze.Facts, ctx *appctx.Context) []Finding { return nil }
	mustFail("empty id", &Rule{Name: "x"})
	mustFail("duplicate id", &Rule{ID: IDGodTable, Name: "dup", Category: Query,
		Description: "d", DetectQuery: detector})
	mustFail("unknown category", &Rule{ID: "probe-bad-cat", Name: "x", Category: "weird",
		Description: "d", DetectQuery: detector})
	mustFail("missing description", &Rule{ID: "probe-no-desc", Name: "x", Category: Query,
		DetectQuery: detector})
	mustFail("no detector", &Rule{ID: "probe-no-detector", Name: "x", Category: Query,
		Description: "d"})
	mustFail("dispatch metadata without DetectQuery", &Rule{ID: "probe-gate-no-query", Name: "x", Category: Data,
		Description: "d",
		Meta:        Meta{Kinds: []sqlast.StatementKind{sqlast.KindSelect}},
		DetectData:  func(tp *profile.TableProfile, ctx *appctx.Context) []Finding { return nil }})
	mustFail("unknown statement kind", &Rule{ID: "probe-bad-kind", Name: "x", Category: Query,
		Description: "d",
		Meta:        Meta{Kinds: []sqlast.StatementKind{sqlast.StatementKind(99)}},
		DetectQuery: detector})
	mustFail("Facts combined with token requirements", &Rule{ID: "probe-facts-and-tokens", Name: "x", Category: Query,
		Description: "d",
		Meta: Meta{Facts: func(f *qanalyze.Facts) bool { return true },
			AnyToken: []string{"MERGE"}},
		DetectQuery: detector})
	if got := len(All()); got != 27 {
		t.Errorf("malformed registrations changed the catalog: %d rules", got)
	}
}

// TestRegisterDerivesDispatchAndNeeds registers a complete downstream
// rule (the paper's §7 extensibility path) and checks that Register
// derives exactly the machinery the built-in catalog gets: a dispatch
// gate from the declared metadata, needs unioned with the detectors'
// implicit requirements, and scope labels. The probe admits nothing
// and detects nothing, and is removed from the registry afterwards,
// so other tests in this binary are unaffected.
func TestRegisterDerivesDispatchAndNeeds(t *testing.T) {
	probe := &Rule{
		ID: "probe-derived", Name: "Probe", Category: Physical,
		Description: "registration probe",
		Metrics:     Metrics{Maint: 1},
		Flags:       ImpactFlags{Maintainability: true},
		Meta: Meta{
			Kinds: []sqlast.StatementKind{sqlast.KindSelect},
			Facts: func(f *qanalyze.Facts) bool { return false },
			Needs: NeedSchema,
		},
		DetectQuery: func(qi int, f *qanalyze.Facts, ctx *appctx.Context) []Finding { return nil },
		DetectData:  func(tp *profile.TableProfile, ctx *appctx.Context) []Finding { return nil },
	}
	if err := Register(probe); err != nil {
		t.Fatal(err)
	}
	defer unregister(probe.ID)

	g := probe.DispatchGate()
	if g == nil || len(g.Kinds) != 1 || g.Match == nil {
		t.Fatalf("derived gate = %+v, want kinds+match from Meta", g)
	}
	if g.Admits(factsFor(t, "SELECT 1")) {
		t.Error("derived gate ignored the Facts predicate")
	}
	if g.Admits(factsFor(t, "INSERT INTO t VALUES (1)")) {
		t.Error("derived gate ignored the declared kinds")
	}
	if want := NeedSchema | NeedProfile; probe.Needs() != want {
		t.Errorf("needs = %v, want declared|derived = %v", probe.Needs().Strings(), want.Strings())
	}
	if got := probe.Scopes(); len(got) != 2 || got[0] != "query" || got[1] != "data" {
		t.Errorf("scopes = %v", got)
	}
	rs, err := NewRuleSet([]string{"probe-derived"})
	if err != nil {
		t.Fatal(err)
	}
	if !rs.NeedsProfile() || !rs.NeedsDatabase() {
		t.Error("compiled set lost the probe's needs")
	}
}

// TestMetadataComplete is the registry invariant the derived-dispatch
// design rests on: every registered rule — built-in or added through
// Register — declares complete, coherent metadata. Incomplete
// declarations cannot exist past Register (it panics), so this guards
// the derivations themselves.
func TestMetadataComplete(t *testing.T) {
	for _, r := range All() {
		if len(r.Scopes()) == 0 {
			t.Errorf("%s: no detection scope", r.ID)
		}
		if r.DetectQuery == nil && r.DispatchGate() != nil {
			t.Errorf("%s: dispatch gate without query detector", r.ID)
		}
		for _, k := range r.Meta.Kinds {
			if !k.Valid() {
				t.Errorf("%s: invalid statement kind %d", r.ID, k)
			}
		}
		// Data detectors consume profiles and the schema; schema
		// detectors consume the schema. The derived needs must say so.
		if r.DetectData != nil && !r.Needs().Has(NeedSchema|NeedProfile) {
			t.Errorf("%s: data detector but needs = %v", r.ID, r.Needs().Strings())
		}
		if r.DetectSchema != nil && !r.Needs().Has(NeedSchema) {
			t.Errorf("%s: schema detector but needs = %v", r.ID, r.Needs().Strings())
		}
		// A rule with needs but no consumer of them is a declaration
		// error: needs come from query-rule refinement or global
		// detectors, never from nowhere.
		if r.Needs() != 0 && r.DetectQuery == nil && r.DetectSchema == nil && r.DetectData == nil {
			t.Errorf("%s: needs %v without any detector", r.ID, r.Needs().Strings())
		}
	}
	// Spot-check the declared refinement needs that drive phase
	// planning: these rules consult schema/profile inside DetectQuery
	// or DetectSchema, and forgetting the declaration would silently
	// degrade their findings under subset plans.
	for id, want := range map[string]Need{
		IDConcatenateNulls:     NeedSchema,
		IDMultiValuedAttribute: NeedSchema | NeedProfile,
		IDIndexUnderuse:        NeedSchema | NeedProfile,
	} {
		if got := ByID(id).Needs(); !got.Has(want) {
			t.Errorf("%s: needs = %v, want at least %v", id, got.Strings(), want.Strings())
		}
	}
	// And the pure-intra query rules must stay need-free: they are
	// what makes query-only workloads run snapshot- and profile-free.
	for _, id := range []string{IDColumnWildcard, IDOrderByRand, IDTooManyJoins, IDDistinctJoin} {
		if got := ByID(id).Needs(); got != 0 {
			t.Errorf("%s: needs = %v, want none", id, got.Strings())
		}
	}
}

// Metric vectors must never claim impact the Table 1 flags deny. The
// reverse is allowed: Figure 7b's reference vectors deliberately zero
// out some flagged dimensions (e.g. index-underuse carries only its
// read-performance factor).
func TestFlagsMetricsCoherence(t *testing.T) {
	for _, r := range All() {
		perfMetric := r.Metrics.ReadPerf > 0 || r.Metrics.WritePerf > 0
		if perfMetric && !r.Flags.Performance {
			t.Errorf("%s: perf metric without performance flag", r.ID)
		}
		if r.Metrics.Maint > 0 && !r.Flags.Maintainability {
			t.Errorf("%s: maint metric without flag", r.ID)
		}
		if r.Metrics.DataAmp > 0 && r.Flags.DataAmp == 0 {
			t.Errorf("%s: data-amp metric without flag", r.ID)
		}
		if r.Metrics.Integrity > 0 && !r.Flags.DataIntegrity {
			t.Errorf("%s: integrity metric without flag", r.ID)
		}
		if r.Metrics.Accuracy > 0 && !r.Flags.Accuracy {
			t.Errorf("%s: accuracy metric without flag", r.ID)
		}
		// Every rule must have SOME ranking signal.
		if !perfMetric && r.Metrics.Maint == 0 && r.Metrics.DataAmp == 0 &&
			r.Metrics.Integrity == 0 && r.Metrics.Accuracy == 0 {
			t.Errorf("%s: zero metric vector", r.ID)
		}
	}
}

func TestFindingKeys(t *testing.T) {
	f := Finding{RuleID: "r", QueryIndex: 3, Table: "T", Column: "C"}
	g := Finding{RuleID: "r", QueryIndex: -1, Table: "t", Column: "c"}
	if f.Key() == g.Key() {
		t.Error("different query indexes must differ in Key")
	}
	if f.SiteKey() != g.SiteKey() {
		t.Error("SiteKey must be case-insensitive and query-agnostic")
	}
}

func TestNameHelpers(t *testing.T) {
	if !nameMatches("Shipping_Address", "address") || nameMatches("name", "address") {
		t.Error("nameMatches")
	}
	if !nameIs("ID", "id") || nameIs("ident", "id") {
		t.Error("nameIs")
	}
}

func TestColumnNameSeries(t *testing.T) {
	cases := []struct {
		names []string
		want  string
	}{
		{[]string{"q1", "q2", "q3"}, "qN"},
		{[]string{"sales_2019", "sales_2020", "sales_2021", "other"}, "salesN"},
		{[]string{"q1", "q2"}, ""},                // below threshold
		{[]string{"sha256", "addr1", "utf8"}, ""}, // distinct prefixes
		{[]string{"a", "b", "c"}, ""},
	}
	for _, c := range cases {
		if got := columnNameSeries(c.names); got != c.want {
			t.Errorf("columnNameSeries(%v) = %q, want %q", c.names, got, c.want)
		}
	}
}

func TestFKCovers(t *testing.T) {
	tab := &schema.Table{
		Name: "child",
		ForeignKeys: []schema.ForeignKey{
			{Columns: []string{"parent_id"}, RefTable: "parents", RefColumns: []string{"id"}},
			{Columns: []string{"other_id"}, RefTable: "others"},
		},
	}
	if !fkCovers(tab, "parent_id", "parents", "id") {
		t.Error("exact fk not covered")
	}
	if !fkCovers(tab, "other_id", "others", "anything") {
		t.Error("implicit-pk fk not covered")
	}
	if fkCovers(tab, "parent_id", "others", "id") {
		t.Error("wrong table covered")
	}
	if fkCovers(tab, "nope", "parents", "id") {
		t.Error("wrong column covered")
	}
}

func TestIsPrefix(t *testing.T) {
	if !isPrefix([]string{"A"}, []string{"a", "b"}) {
		t.Error("case-insensitive prefix")
	}
	if isPrefix([]string{"a", "b"}, []string{"a"}) {
		t.Error("longer cannot be prefix")
	}
	if isPrefix([]string{"b"}, []string{"a", "b"}) {
		t.Error("wrong leading column")
	}
}

func TestReferencedTableByName(t *testing.T) {
	s := schema.NewSchema()
	s.AddTable(&schema.Table{Name: "tenants"})
	owner := &schema.Table{Name: "questionnaires"}
	s.AddTable(owner)
	if got := referencedTableByName(s, owner, "tenant_id"); got != "tenants" {
		t.Errorf("got %q", got)
	}
	if got := referencedTableByName(s, owner, "questionnaire_id"); got != "" {
		t.Errorf("self reference resolved: %q", got)
	}
	if got := referencedTableByName(s, owner, "name"); got != "" {
		t.Errorf("non-id column resolved: %q", got)
	}
}

func TestPrimaryKeyHelpers(t *testing.T) {
	ct := parser.Parse("CREATE TABLE t (a INT PRIMARY KEY, b INT)").(*sqlast.CreateTableStatement)
	if !hasPrimaryKey(ct) || primaryKeyCols(ct)[0] != "a" {
		t.Error("inline pk")
	}
	ct = parser.Parse("CREATE TABLE t (a INT, b INT, PRIMARY KEY (a, b))").(*sqlast.CreateTableStatement)
	if got := primaryKeyCols(ct); len(got) != 2 {
		t.Errorf("composite pk = %v", got)
	}
	ct = parser.Parse("CREATE TABLE t (a INT)").(*sqlast.CreateTableStatement)
	if hasPrimaryKey(ct) {
		t.Error("no pk")
	}
}

func TestPasswordNameMatcher(t *testing.T) {
	for _, yes := range []string{"password", "user_password", "passwd", "pwd", "pass"} {
		if !isPasswordName(yes) {
			t.Errorf("%q not matched", yes)
		}
	}
	for _, no := range []string{"passport", "compass_heading", "surpass"} {
		if isPasswordName(no) {
			t.Errorf("%q wrongly matched", no)
		}
	}
}

func TestPlural(t *testing.T) {
	if plural(1, "y", "ies") != "y" || plural(2, "y", "ies") != "ies" {
		t.Error("plural")
	}
}
