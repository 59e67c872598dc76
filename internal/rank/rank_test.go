package rank

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"sqlcheck/internal/rules"
)

// Figure 7b's metric vectors for the paper's Example 6.
var (
	exIndexUnderuse = rules.Metrics{ReadPerf: 1.5}
	exEnumTypes     = rules.Metrics{WritePerf: 10, Maint: 2, DataAmp: 1}
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestScoringFunctions(t *testing.T) {
	if !almost(Srp(1.5), 0.3) || !almost(Srp(10), 1) || !almost(Srp(0), 0) {
		t.Error("Srp")
	}
	if !almost(Sda(1), 0.125) || !almost(Sda(16), 1) {
		t.Error("Sda")
	}
	if !almost(Sdi(1), 1) || !almost(Sdi(0), 0) || !almost(Sa(1), 1) {
		t.Error("Sdi/Sa")
	}
	if Sm(-3) != 0 {
		t.Error("negative clamps to 0")
	}
}

// Example 6: C1 ranks index-underuse (0.21) above enumerated types
// (0.175); C2 reverses the order.
func TestExample6Ordering(t *testing.T) {
	c1iu := Score(exIndexUnderuse, C1)
	c1et := Score(exEnumTypes, C1)
	if !almost(c1iu, 0.21) {
		t.Errorf("C1 index-underuse score = %v, want 0.21", c1iu)
	}
	if !almost(c1et, 0.175) {
		t.Errorf("C1 enum-types score = %v, want 0.175", c1et)
	}
	if c1iu <= c1et {
		t.Error("C1 must rank index-underuse first")
	}
	c2iu := Score(exIndexUnderuse, C2)
	c2et := Score(exEnumTypes, C2)
	if !almost(c2iu, 0.12) {
		t.Errorf("C2 index-underuse score = %v, want 0.12", c2iu)
	}
	// The paper reports ~0.47 for C2 enum-types; the formulae of
	// Figure 6 give 0.445 — same ordering either way.
	if c2et <= c2iu {
		t.Errorf("C2 must rank enum-types first (%v vs %v)", c2et, c2iu)
	}
	if c2et < 0.44 || c2et > 0.48 {
		t.Errorf("C2 enum-types score = %v, want ≈0.445", c2et)
	}
}

func TestRankOrdersByImpactTimesConfidence(t *testing.T) {
	m := NewModel(C1)
	m.Observe("big", rules.Metrics{ReadPerf: 10})
	m.Observe("small", rules.Metrics{ReadPerf: 1})
	fs := []rules.Finding{
		{RuleID: "small", Confidence: 1},
		{RuleID: "big", Confidence: 1},
	}
	ranked := m.Rank(fs)
	if ranked[0].RuleID != "big" {
		t.Errorf("order = %v %v", ranked[0].RuleID, ranked[1].RuleID)
	}
	// Confidence scales: a barely-confident big finding loses to a
	// certain medium one.
	m.Observe("medium", rules.Metrics{ReadPerf: 5})
	fs = []rules.Finding{
		{RuleID: "big", Confidence: 0.2},
		{RuleID: "medium", Confidence: 1},
	}
	ranked = m.Rank(fs)
	if ranked[0].RuleID != "medium" {
		t.Error("confidence scaling not applied")
	}
}

func TestMetricsForFallsBackToCatalog(t *testing.T) {
	m := NewModel(C1)
	got := m.MetricsFor(rules.IDOrderByRand)
	if got.ReadPerf == 0 {
		t.Error("catalog default not used")
	}
	if mv := m.MetricsFor("no-such-rule"); mv != (rules.Metrics{}) {
		t.Error("unknown rule should yield zero metrics")
	}
	m.Observe(rules.IDOrderByRand, rules.Metrics{ReadPerf: 99})
	if m.MetricsFor(rules.IDOrderByRand).ReadPerf != 99 {
		t.Error("override ignored")
	}
}

func TestRankQueriesByScoreAndCount(t *testing.T) {
	m := NewModel(C1)
	m.Observe("hot", rules.Metrics{ReadPerf: 10})
	m.Observe("cold", rules.Metrics{ReadPerf: 0.1})
	fs := []rules.Finding{
		{RuleID: "cold", QueryIndex: 0, Confidence: 1},
		{RuleID: "cold", QueryIndex: 0, Confidence: 1},
		{RuleID: "cold", QueryIndex: 0, Confidence: 1},
		{RuleID: "hot", QueryIndex: 1, Confidence: 1},
	}
	byScore := m.RankQueries(fs)
	if byScore[0].QueryIndex != 1 {
		t.Errorf("ByScore order = %+v", byScore)
	}
	m.Mode = ByCount
	byCount := m.RankQueries(fs)
	if byCount[0].QueryIndex != 0 || byCount[0].Count != 3 {
		t.Errorf("ByCount order = %+v", byCount)
	}
}

func TestSchemaFindingsGroupUnderMinusOne(t *testing.T) {
	m := NewModel(C1)
	fs := []rules.Finding{
		{RuleID: rules.IDNoForeignKey, QueryIndex: -1, Confidence: 1},
		{RuleID: rules.IDColumnWildcard, QueryIndex: 2, Confidence: 1},
	}
	groups := m.RankQueries(fs)
	found := false
	for _, g := range groups {
		if g.QueryIndex == -1 && g.Count == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("schema group missing: %+v", groups)
	}
}

// Property: scores are monotone in each raw metric and bounded by the
// weight sum.
func TestScoreMonotoneBounded(t *testing.T) {
	f := func(rp, wp, mt, da uint8) bool {
		m1 := rules.Metrics{ReadPerf: float64(rp), WritePerf: float64(wp), Maint: float64(mt), DataAmp: float64(da)}
		m2 := m1
		m2.ReadPerf += 1
		s1, s2 := Score(m1, C1), Score(m2, C1)
		weightSum := C1.ReadPerf + C1.WritePerf + C1.Maint + C1.DataAmp + C1.Integrity + C1.Accuracy
		return s2 >= s1 && s1 <= weightSum+1e-9 && s1 >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestDeterministicTieBreak(t *testing.T) {
	m := NewModel(C1)
	fs := []rules.Finding{
		{RuleID: "zz", QueryIndex: 0, Confidence: 0.5},
		{RuleID: "aa", QueryIndex: 0, Confidence: 0.5},
	}
	r1 := m.Rank(fs)
	r2 := m.Rank(fs)
	if r1[0].RuleID != r2[0].RuleID || r1[0].RuleID != "aa" {
		t.Error("tie break not deterministic by rule id")
	}
}

func TestExportImportObservations(t *testing.T) {
	m := NewModel(C1)
	m.Observe(rules.IDOrderByRand, rules.Metrics{ReadPerf: 12})
	m.ObserveMeasurement(rules.IDIndexOveruse, 0, 7.5)

	var buf bytes.Buffer
	if err := m.ExportObservations(&buf); err != nil {
		t.Fatal(err)
	}
	m2 := NewModel(C2)
	if err := m2.ImportObservations(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if m2.MetricsFor(rules.IDOrderByRand).ReadPerf != 12 {
		t.Error("observation lost in round trip")
	}
	if m2.MetricsFor(rules.IDIndexOveruse).WritePerf != 7.5 {
		t.Error("measurement lost in round trip")
	}
	// Unknown rule is rejected.
	bad := strings.NewReader(`[{"rule": "not-a-rule", "read_perf": 1}]`)
	if err := m2.ImportObservations(bad); err == nil {
		t.Error("unknown rule accepted")
	}
	// Malformed JSON is rejected.
	if err := m2.ImportObservations(strings.NewReader("{nope")); err == nil {
		t.Error("malformed JSON accepted")
	}
}

func TestObserveMeasurementKeepsOtherMetrics(t *testing.T) {
	m := NewModel(C1)
	// enum-types has a catalog Maint of 2; observing a write factor
	// must not erase it.
	m.ObserveMeasurement(rules.IDEnumeratedTypes, 0, 400)
	mv := m.MetricsFor(rules.IDEnumeratedTypes)
	if mv.WritePerf != 400 || mv.Maint == 0 {
		t.Errorf("metrics = %+v", mv)
	}
}
