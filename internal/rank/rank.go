// Package rank implements ap-rank (paper §5): scoring detected
// anti-patterns by their estimated impact on read/write performance,
// maintainability, data amplification, data integrity, and accuracy,
// using the scoring formulae of Figure 6 and the weight configurations
// of Figure 7a. The model has an intra-query component (ordering the
// APs within one statement) and an inter-query component (ordering the
// statements, by AP count or by total score).
package rank

import (
	"sort"

	"sqlcheck/internal/rules"
)

// Weights configures the relative importance of the six metrics
// (Figure 6's W terms). They should sum to ~1 but the model does not
// require it.
type Weights struct {
	ReadPerf  float64 // Wrp
	WritePerf float64 // Wwp
	Maint     float64 // Wm
	DataAmp   float64 // Wda
	Integrity float64 // Wdi
	Accuracy  float64 // Wa
}

// The paper's two reference configurations (Figure 7a): C1 prioritizes
// read performance (analytical workloads); C2 balances reads and
// writes (HTAP workloads).
var (
	C1 = Weights{ReadPerf: 0.7, WritePerf: 0.15, Maint: 0.05, DataAmp: 0.04, Integrity: 0.02, Accuracy: 0.02}
	C2 = Weights{ReadPerf: 0.4, WritePerf: 0.4, Maint: 0.1, DataAmp: 0.04, Integrity: 0.02, Accuracy: 0.02}
)

// Scoring functions of Figure 6.

// Srp normalizes a read speedup factor: min(1, x/5).
func Srp(x float64) float64 { return clamp01(x / 5) }

// Swp normalizes a write speedup factor: min(1, x/5).
func Swp(x float64) float64 { return clamp01(x / 5) }

// Sm normalizes a maintainability burden: min(1, x/5).
func Sm(x float64) float64 { return clamp01(x / 5) }

// Sda normalizes a data amplification factor: min(1, x/8).
func Sda(x float64) float64 { return clamp01(x / 8) }

// Sdi passes through the 0/1 integrity indicator.
func Sdi(x float64) float64 { return clamp01(x) }

// Sa passes through the 0/1 accuracy indicator.
func Sa(x float64) float64 { return clamp01(x) }

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// Score combines a metric vector under the weights (Figure 6).
func Score(m rules.Metrics, w Weights) float64 {
	return w.ReadPerf*Srp(m.ReadPerf) +
		w.WritePerf*Swp(m.WritePerf) +
		w.Maint*Sm(m.Maint) +
		w.DataAmp*Sda(m.DataAmp) +
		w.Integrity*Sdi(m.Integrity) +
		w.Accuracy*Sa(m.Accuracy)
}

// InterQueryMode selects the paper's two inter-query orderings.
type InterQueryMode int

// Inter-query ranking modes (§5.2 "Model Components").
const (
	// ByScore orders queries by the sum of their findings' scores.
	ByScore InterQueryMode = iota
	// ByCount orders queries by their number of findings.
	ByCount
)

// Model is a configured ranking model.
type Model struct {
	Weights Weights
	Mode    InterQueryMode
	// overrides substitute measured metric vectors for rule defaults
	// ("as new performance data is collected over time, we update the
	// ranking model").
	overrides map[string]rules.Metrics
}

// NewModel builds a model with the given weights.
func NewModel(w Weights) *Model {
	return &Model{Weights: w, overrides: map[string]rules.Metrics{}}
}

// Observe records a measured metric vector for a rule, overriding its
// catalog default in subsequent rankings.
func (m *Model) Observe(ruleID string, metrics rules.Metrics) {
	m.overrides[ruleID] = metrics
}

// MetricsFor returns the effective metric vector for a rule.
func (m *Model) MetricsFor(ruleID string) rules.Metrics {
	if mv, ok := m.overrides[ruleID]; ok {
		return mv
	}
	if r := rules.ByID(ruleID); r != nil {
		return r.Metrics
	}
	return rules.Metrics{}
}

// Ranked is a finding with its computed impact score.
type Ranked struct {
	rules.Finding
	Score float64
}

// Rank scores and orders findings by decreasing impact (the
// intra-query component applied across the whole finding list).
// Confidence scales the score so that uncertain heuristics do not
// outrank confirmed problems of equal impact.
func (m *Model) Rank(findings []rules.Finding) []Ranked {
	out := make([]Ranked, 0, len(findings))
	for _, f := range findings {
		s := Score(m.MetricsFor(f.RuleID), m.Weights) * f.Confidence
		out = append(out, Ranked{Finding: f, Score: s})
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].RuleID < out[j].RuleID
	})
	return out
}

// QueryRank aggregates the findings of one statement.
type QueryRank struct {
	QueryIndex int
	Count      int
	TotalScore float64
	Findings   []Ranked
}

// RankQueries groups findings by statement and orders statements by
// the configured inter-query mode. Schema- and data-level findings
// (QueryIndex == -1) form their own group, ranked like any other.
func (m *Model) RankQueries(findings []rules.Finding) []QueryRank {
	groups := map[int]*QueryRank{}
	var order []int
	for _, r := range m.Rank(findings) {
		g, ok := groups[r.QueryIndex]
		if !ok {
			g = &QueryRank{QueryIndex: r.QueryIndex}
			groups[r.QueryIndex] = g
			order = append(order, r.QueryIndex)
		}
		g.Count++
		g.TotalScore += r.Score
		g.Findings = append(g.Findings, r)
	}
	out := make([]QueryRank, 0, len(order))
	for _, qi := range order {
		out = append(out, *groups[qi])
	}
	sort.SliceStable(out, func(i, j int) bool {
		if m.Mode == ByCount {
			if out[i].Count != out[j].Count {
				return out[i].Count > out[j].Count
			}
		}
		if out[i].TotalScore != out[j].TotalScore {
			return out[i].TotalScore > out[j].TotalScore
		}
		return out[i].QueryIndex < out[j].QueryIndex
	})
	return out
}
