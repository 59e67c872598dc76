package experiments

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestFigure3Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	ms := Figure3(Small)
	if len(ms) != 3 {
		t.Fatalf("measurements = %d", len(ms))
	}
	for _, m := range ms {
		// The paper reports 636x/256x/193x; we only require a decisive
		// win for the fixed design.
		if m.Factor() < 5 {
			t.Errorf("%s: factor = %.1fx, want the fix to win clearly (>5x)", m.Label, m.Factor())
		}
	}
	var buf bytes.Buffer
	Fprint(&buf, "Figure 3", ms)
	if !strings.Contains(buf.String(), "fig3a") {
		t.Error("rendering")
	}
}

func TestFigure8Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	ms := Figure8(Small)
	if len(ms) != 9 {
		t.Fatalf("measurements = %d, want 9 (a-i)", len(ms))
	}
	byLabel := map[string]Measurement{}
	for _, m := range ms {
		byLabel[strings.Fields(m.Label)[0]] = m
	}
	// (a) multiple single-column indexes tax updates.
	if f := byLabel["fig8a"].Factor(); f < 1.5 {
		t.Errorf("fig8a factor = %.2fx, want > 1.5x", f)
	}
	// (b) index helps grouped aggregation (modestly or better).
	if f := byLabel["fig8b"].Factor(); f < 1.05 {
		t.Errorf("fig8b factor = %.2fx, want >= 1.05x", f)
	}
	// (c) low-cardinality index scan loses to the sequential scan.
	if f := byLabel["fig8c"].Factor(); f < 1.2 {
		t.Errorf("fig8c factor = %.2fx, want index to lose by > 1.2x", f)
	}
	// (d, e) FK overhead is not prominent (within 3x either way).
	for _, k := range []string{"fig8d", "fig8e"} {
		f := byLabel[k].Factor()
		if f > 3 || f < 0.33 {
			t.Errorf("%s factor = %.2fx, want ~1x", k, f)
		}
	}
	// (f) indexing the referencing column wins big.
	if f := byLabel["fig8f"].Factor(); f < 10 {
		t.Errorf("fig8f factor = %.2fx, want > 10x", f)
	}
	// (g, h) enum fixes win massively.
	if f := byLabel["fig8g"].Factor(); f < 20 {
		t.Errorf("fig8g factor = %.2fx, want > 20x", f)
	}
	if f := byLabel["fig8h"].Factor(); f < 6 {
		t.Errorf("fig8h factor = %.2fx, want > 6x", f)
	}
	// (i) select is a wash (within 5x).
	if f := byLabel["fig8i"].Factor(); f > 5 || f < 0.2 {
		t.Errorf("fig8i factor = %.2fx, want ~1x", f)
	}
}

// TestTimePairIgnoresOneStalledRun pins that one stalled run decides
// neither a pair, a single timing nor a pair of fresh-state timings: a
// 20 ms stall among ten no-op runs would lift a mean to 2 ms, while
// the median stays at the typical run.
func TestTimePairIgnoresOneStalledRun(t *testing.T) {
	calls := 0
	stallOnce := func() {
		calls++
		if calls == 5 { // the fourth timed run, after the warm-up
			time.Sleep(20 * time.Millisecond)
		}
	}
	slow, fast := timePair(10, func() { time.Sleep(2 * time.Millisecond) }, stallOnce)
	if fast >= time.Millisecond {
		t.Errorf("timePair: no-op side with one 20ms stall = %v, want its typical run (< 1ms)", fast)
	}
	if slow < 2*time.Millisecond {
		t.Errorf("timePair: 2ms side = %v, want >= 2ms", slow)
	}
	calls = 0
	if d := timeIt(10, stallOnce); d >= time.Millisecond {
		t.Errorf("timeIt: no-op runs with one 20ms stall = %v, want the typical run (< 1ms)", d)
	}
	calls = 1 // no warm-up here: the stall still lands on the fourth run
	slow, fast = timeOncePair(10, func() func() { return func() { time.Sleep(2 * time.Millisecond) } },
		func() func() { return stallOnce })
	if fast >= time.Millisecond || slow < 2*time.Millisecond {
		t.Errorf("timeOncePair: 2ms side = %v (want >= 2ms), no-op side with one 20ms stall = %v (want < 1ms)", slow, fast)
	}
}

func TestTable2Shapes(t *testing.T) {
	res := Table2(Small)
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	s, d := res.TotalSqlcheck, res.TotalDbdeo
	if s.FP >= d.FP {
		t.Errorf("sqlcheck FP %d not fewer than dbdeo FP %d", s.FP, d.FP)
	}
	if s.FN >= d.FN {
		t.Errorf("sqlcheck FN %d not fewer than dbdeo FN %d", s.FN, d.FN)
	}
	if s.Precision() <= d.Precision() {
		t.Errorf("precision: sqlcheck %.2f <= dbdeo %.2f", s.Precision(), d.Precision())
	}
	if s.Recall() <= d.Recall() {
		t.Errorf("recall: sqlcheck %.2f <= dbdeo %.2f", s.Recall(), d.Recall())
	}
	// §8.1 aggregate shapes: sqlcheck covers more AP types than dbdeo;
	// intra mode flags more raw candidates than inter mode (context
	// pruning).
	if res.InterTypes <= res.DbdeoTypes {
		t.Errorf("type coverage: inter %d <= dbdeo %d", res.InterTypes, res.DbdeoTypes)
	}
	if res.InterTotal <= res.DbdeoTotal {
		t.Errorf("total detections: inter %d <= dbdeo %d", res.InterTotal, res.DbdeoTotal)
	}
	var buf bytes.Buffer
	res.Fprint(&buf)
	if !strings.Contains(buf.String(), "fewer false positives") {
		t.Error("rendering")
	}
}

func TestTable3Shapes(t *testing.T) {
	res := Table3(Small)
	sTotal, dTotal := 0, 0
	for _, n := range res.GitHubS {
		sTotal += n
	}
	for _, n := range res.GitHubD {
		dTotal += n
	}
	if sTotal <= dTotal {
		t.Errorf("github: sqlcheck %d <= dbdeo %d", sTotal, dTotal)
	}
	if len(res.GitHubS) <= len(res.GitHubD) {
		t.Errorf("github type coverage: %d <= %d", len(res.GitHubS), len(res.GitHubD))
	}
	kTotal := 0
	for _, n := range res.KaggleS {
		kTotal += n
	}
	if kTotal == 0 {
		t.Error("kaggle: no data findings")
	}
	var buf bytes.Buffer
	res.Fprint(&buf)
	if !strings.Contains(buf.String(), "TOTAL") {
		t.Error("rendering")
	}
}

func TestTable4Shapes(t *testing.T) {
	rows := Table4()
	if len(rows) != 15 {
		t.Fatalf("apps = %d", len(rows))
	}
	det, rep := 0, 0
	for _, r := range rows {
		if r.Detected == 0 {
			t.Errorf("%s: nothing detected", r.App)
		}
		if r.Reported > r.Detected {
			t.Errorf("%s: reported %d > detected %d", r.App, r.Reported, r.Detected)
		}
		det += r.Detected
		rep += r.Reported
	}
	if rep == 0 || rep >= det {
		t.Errorf("reported %d vs detected %d: reporting must be selective", rep, det)
	}
	var buf bytes.Buffer
	FprintTable4(&buf, rows)
	if !strings.Contains(buf.String(), "globaleaks") {
		t.Error("rendering")
	}
}

func TestTable5Shapes(t *testing.T) {
	rows := Table5()
	if len(rows) != 31 {
		t.Fatalf("databases = %d", len(rows))
	}
	seeded, detected := 0, 0
	for _, r := range rows {
		seeded += r.Seeded
		detected += r.Detected
	}
	if seeded != 200 {
		t.Errorf("seeded = %d, want 200", seeded)
	}
	// Data rules should recover the majority of the seeded APs.
	if detected < seeded*5/10 {
		t.Errorf("detected = %d of %d seeded", detected, seeded)
	}
	var buf bytes.Buffer
	FprintTable5(&buf, rows)
	if !strings.Contains(buf.String(), "history-of-baseball") {
		t.Error("rendering")
	}
}

func TestExample6MatchesPaper(t *testing.T) {
	e := Example6()
	if e.C1IndexUnderuse <= e.C1EnumTypes {
		t.Error("C1 must rank index-underuse first")
	}
	if e.C2EnumTypes <= e.C2IndexUnderuse {
		t.Error("C2 must rank enum-types first")
	}
	var buf bytes.Buffer
	e.Fprint(&buf)
	if !strings.Contains(buf.String(), "index-underuse first") {
		t.Errorf("rendering: %s", buf.String())
	}
}

func TestUserStudyReportShapes(t *testing.T) {
	res := UserStudyReport()
	if res.Participants != 23 {
		t.Fatalf("participants = %d", res.Participants)
	}
	if res.Statements < 700 || res.Statements > 1500 {
		t.Errorf("statements = %d, want ~987", res.Statements)
	}
	if res.Detected == 0 || res.Applied == 0 {
		t.Errorf("pipeline empty: %+v", res)
	}
	if res.Considered > res.Detected {
		t.Errorf("considered %d > detected %d", res.Considered, res.Detected)
	}
	eff := res.Efficacy()
	if eff < 0.3 || eff > 0.75 {
		t.Errorf("efficacy = %.2f, want ~0.51", eff)
	}
	if res.EfficacyWithAmbiguous() <= eff {
		t.Error("ambiguous credit must increase efficacy")
	}
	var buf bytes.Buffer
	res.Fprint(&buf)
	if !strings.Contains(buf.String(), "efficacy") {
		t.Error("rendering")
	}
}

func TestAdjacencyAblationShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	ms := AdjacencyAblation(Small)
	if len(ms) != 2 {
		t.Fatalf("measurements = %d", len(ms))
	}
	v9, v11 := ms[0], ms[1]
	if v9.Factor() <= v11.Factor() {
		t.Errorf("v9 factor %.1fx must exceed v11 factor %.1fx", v9.Factor(), v11.Factor())
	}
	if v9.Factor() < 2 {
		t.Errorf("v9 factor = %.1fx, want the seq-scan expansion to lose clearly", v9.Factor())
	}
}

func TestTable1AndTable8Render(t *testing.T) {
	var buf bytes.Buffer
	Table1(&buf)
	out := buf.String()
	if !strings.Contains(out, "multi-valued-attribute") || !strings.Contains(out, "missing-timezone") {
		t.Error("table 1 incomplete")
	}
	buf.Reset()
	Table8(&buf)
	if !strings.Contains(buf.String(), "query refactoring suggestions") {
		t.Error("table 8 incomplete")
	}
}

func TestDataRulesAblation(t *testing.T) {
	a := RunDataRulesAblation()
	// Scenario 1: query-only analysis false-positives on the address
	// column; data analysis suppresses it.
	if !a.QueryOnlyFP {
		t.Error("query-only analysis should flag the ambiguous address search")
	}
	if a.WithDataFP {
		t.Error("data analysis should suppress the address false positive")
	}
	// Scenario 2: query-only analysis misses the externally-handled
	// list; data analysis finds it.
	if !a.QueryOnlyFN {
		t.Error("query-only analysis should miss the list read whole")
	}
	if a.WithDataFN {
		t.Error("data analysis should find the genuine list column")
	}
	var buf bytes.Buffer
	a.Fprint(&buf)
	if !strings.Contains(buf.String(), "ablation") {
		t.Error("rendering")
	}
}
