package rules

import (
	"regexp"

	"sqlcheck/internal/appctx"
	"sqlcheck/internal/profile"
	"sqlcheck/internal/schema"
)

// Data anti-patterns (Table 1, category 4): detected by analysing the
// data itself (paper §4.2 and the Kaggle experiment of §8.4).

// Rule IDs for the data category.
const (
	IDMissingTimezone        = "missing-timezone"
	IDIncorrectDataType      = "incorrect-data-type"
	IDDenormalizedTable      = "denormalized-table"
	IDInformationDuplication = "information-duplication"
	IDRedundantColumn        = "redundant-column"
	IDNoDomainConstraint     = "no-domain-constraint"
)

var boundedName = regexp.MustCompile(`(?i)(rating|rank|score|percent|pct|age|grade|priority|level|stars)`)

// The thresholds that activate data rules (paper §4.2), at the values
// of the paper's evaluation. Data rules of every category read them.
const (
	// formatThreshold is the fraction of a column's sampled non-null
	// values that must match a format for it to be inferred.
	formatThreshold = 0.9
	// delimiterThreshold is the fraction that must look like
	// delimiter-separated lists for the multi-valued-attribute rule.
	delimiterThreshold = 0.6
	// enumDistinctRatio is the distinct/non-null ratio at or below
	// which a string column looks like an enumeration (paper Example 4).
	enumDistinctRatio = 0.01
)

func init() {
	MustRegister(&Rule{
		ID:       IDMissingTimezone,
		Name:     "Missing Timezone",
		Category: Data,
		Description: "Date-time fields stored without time zone are " +
			"ambiguous the moment data crosses regions.",
		Flags:   ImpactFlags{Accuracy: true},
		Metrics: Metrics{Accuracy: 1},
		DetectData: func(tp *profile.TableProfile, ctx *appctx.Context) []Finding {
			r := ByID(IDMissingTimezone)
			var out []Finding
			t := ctx.Schema.Table(tp.Table)
			for _, cp := range tp.Columns {
				declaredNoTZ := cp.Class == schema.ClassTimeNoTZ
				if t != nil {
					if c := t.Column(cp.Name); c != nil && c.Class == schema.ClassTimeNoTZ {
						declaredNoTZ = true
					}
				}
				if declaredNoTZ {
					out = append(out, withConfidence(
						finding(r, -1, tp.Table, cp.Name, "data",
							"%s.%s is a timestamp without time zone", tp.Table, cp.Name), 0.9))
					continue
				}
				// Text columns whose values are tz-less datetimes.
				if cp.Class.IsStringy() && cp.NonNull() >= 5 &&
					cp.FracOf(cp.DateTimeNoTZ) >= formatThreshold {
					out = append(out, withConfidence(
						finding(r, -1, tp.Table, cp.Name, "data",
							"%.0f%% of %s.%s values are date-times without a zone offset",
							100*cp.FracOf(cp.DateTimeNoTZ), tp.Table, cp.Name), 0.85))
				}
			}
			return out
		},
	})

	MustRegister(&Rule{
		ID:       IDIncorrectDataType,
		Name:     "Incorrect Data Type",
		Category: Data,
		Description: "Numbers or dates stored in text columns defeat type " +
			"checking, comparisons, and statistics, and amplify storage.",
		Flags:   ImpactFlags{Performance: true, DataAmp: -1},
		Metrics: Metrics{ReadPerf: 1.5, DataAmp: 2},
		DetectData: func(tp *profile.TableProfile, ctx *appctx.Context) []Finding {
			r := ByID(IDIncorrectDataType)
			var out []Finding
			for _, cp := range tp.Columns {
				if !cp.Class.IsStringy() && cp.Class != schema.ClassUnknown {
					continue
				}
				if cp.NonNull() < 5 {
					continue
				}
				switch {
				case cp.FracOf(cp.IntLike) >= formatThreshold:
					out = append(out, withConfidence(
						finding(r, -1, tp.Table, cp.Name, "data",
							"%s.%s is text but %.0f%% of values are integers",
							tp.Table, cp.Name, 100*cp.FracOf(cp.IntLike)), 0.9))
				case cp.FracOf(cp.FloatLike+cp.IntLike) >= formatThreshold:
					out = append(out, withConfidence(
						finding(r, -1, tp.Table, cp.Name, "data",
							"%s.%s is text but %.0f%% of values are numeric",
							tp.Table, cp.Name, 100*cp.FracOf(cp.FloatLike+cp.IntLike)), 0.9))
				case cp.FracOf(cp.DateLike) >= formatThreshold:
					out = append(out, withConfidence(
						finding(r, -1, tp.Table, cp.Name, "data",
							"%s.%s is text but %.0f%% of values are dates",
							tp.Table, cp.Name, 100*cp.FracOf(cp.DateLike)), 0.9))
				}
			}
			return out
		},
	})

	MustRegister(&Rule{
		ID:       IDDenormalizedTable,
		Name:     "Denormalized Table",
		Category: Data,
		Description: "A functional dependency between non-key columns " +
			"means one fact is stored once per row instead of once.",
		Flags:   ImpactFlags{Performance: true, DataAmp: -1},
		Metrics: Metrics{ReadPerf: 1.2, DataAmp: 3},
		DetectData: func(tp *profile.TableProfile, ctx *appctx.Context) []Finding {
			r := ByID(IDDenormalizedTable)
			var out []Finding
			for _, fd := range tp.FDs {
				out = append(out, withConfidence(
					finding(r, -1, tp.Table, fd.To, "data",
						"%s.%s is functionally determined by %s (≈%.0f duplicate rows per value)",
						tp.Table, fd.To, fd.From, fd.Repetition), 0.75))
			}
			return out
		},
	})

	MustRegister(&Rule{
		ID:       IDInformationDuplication,
		Name:     "Information Duplication",
		Category: Data,
		Description: "Derived columns (age from date of birth) go stale " +
			"and must be maintained on every write.",
		Flags:   ImpactFlags{Maintainability: true, DataIntegrity: true, Accuracy: true},
		Metrics: Metrics{Maint: 2, Integrity: 1, Accuracy: 1},
		DetectData: func(tp *profile.TableProfile, ctx *appctx.Context) []Finding {
			r := ByID(IDInformationDuplication)
			var out []Finding
			seen := map[string]bool{}
			for _, d := range tp.Derivations {
				// copy in both directions reports once.
				k := d.Kind + "|" + min2(d.From, d.To) + "|" + max2(d.From, d.To)
				if seen[k] {
					continue
				}
				seen[k] = true
				out = append(out, withConfidence(
					finding(r, -1, tp.Table, d.To, "data",
						"%s.%s duplicates information in %s (%s)", tp.Table, d.To, d.From, d.Kind), 0.8))
			}
			return out
		},
	})

	MustRegister(&Rule{
		ID:       IDRedundantColumn,
		Name:     "Redundant Column",
		Category: Data,
		Description: "A column that is entirely NULL or holds a single " +
			"constant carries no information.",
		Flags:   ImpactFlags{DataAmp: -1},
		Metrics: Metrics{DataAmp: 1},
		DetectData: func(tp *profile.TableProfile, ctx *appctx.Context) []Finding {
			r := ByID(IDRedundantColumn)
			var out []Finding
			for _, cp := range tp.Columns {
				if cp.Rows < 10 {
					continue
				}
				switch {
				case cp.Nulls == cp.Rows:
					out = append(out, withConfidence(
						finding(r, -1, tp.Table, cp.Name, "data",
							"%s.%s is NULL in every sampled row", tp.Table, cp.Name), 0.9))
				case cp.Distinct == 1 && cp.NonNull() == cp.Rows:
					out = append(out, withConfidence(
						finding(r, -1, tp.Table, cp.Name, "data",
							"%s.%s holds the single value %q in every row", tp.Table, cp.Name, cp.TopValue), 0.85))
				}
			}
			return out
		},
	})

	MustRegister(&Rule{
		ID:       IDNoDomainConstraint,
		Name:     "No Domain Constraint",
		Category: Data,
		Description: "Bounded quantities (ratings, percentages) without a " +
			"CHECK constraint accept garbage silently.",
		Flags:   ImpactFlags{Maintainability: true, DataAmp: -1, DataIntegrity: true},
		Metrics: Metrics{Maint: 1, DataAmp: 1, Integrity: 1},
		DetectData: func(tp *profile.TableProfile, ctx *appctx.Context) []Finding {
			r := ByID(IDNoDomainConstraint)
			var out []Finding
			t := ctx.Schema.Table(tp.Table)
			for _, cp := range tp.Columns {
				if !boundedName.MatchString(cp.Name) {
					continue
				}
				if cp.NumericCount < 10 {
					continue
				}
				// Already constrained?
				if t != nil {
					constrained := false
					if c := t.Column(cp.Name); c != nil && len(c.CheckInValues) > 0 {
						constrained = true
					}
					for _, ck := range t.Checks {
						if ck.Column != "" && ck.Column == cp.Name {
							constrained = true
						}
					}
					if constrained {
						continue
					}
				}
				// Values confined to a narrow range suggest an intended
				// domain.
				if cp.Max-cp.Min <= 100 {
					out = append(out, withConfidence(
						finding(r, -1, tp.Table, cp.Name, "data",
							"%s.%s spans [%g, %g] but no CHECK constraint enforces the domain",
							tp.Table, cp.Name, cp.Min, cp.Max), 0.7))
				}
			}
			return out
		},
	})
}

func min2(a, b string) string {
	if a < b {
		return a
	}
	return b
}

func max2(a, b string) string {
	if a > b {
		return a
	}
	return b
}
