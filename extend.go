package sqlcheck

import (
	"errors"
	"fmt"
	"regexp"
	"strings"

	"sqlcheck/internal/appctx"
	"sqlcheck/internal/qanalyze"
	"sqlcheck/internal/rules"
	"sqlcheck/internal/sqlast"
)

// CustomRule defines a user-supplied anti-pattern detector, the public
// face of the paper's §7 extensibility ("a developer may add a new AP
// rule that implements the generic rule interface ... and register it
// in the sqlcheck rule registry").
type CustomRule struct {
	// ID is the stable rule identifier (kebab-case). Must not collide
	// with a built-in rule.
	ID string
	// Name is the human-readable rule name.
	Name string
	// Category is "logical design", "physical design", "query", or
	// "data"; defaults to "query".
	Category string
	// Description explains the anti-pattern.
	Description string
	// Pattern is a regular expression matched against each statement's
	// raw SQL (case-insensitive). Either Pattern or Match must be set.
	Pattern string
	// Match, when set, is called per statement with its raw SQL and
	// takes precedence over Pattern.
	Match func(sql string) bool
	// Message is the diagnosis shown for each finding; defaults to the
	// description.
	Message string
	// Guidance is the textual fix suggestion.
	Guidance string
	// Impact configures the ranking metrics (zero values are fine; the
	// finding then ranks at the bottom).
	Impact Impact
	// Kinds restricts the rule to the named statement kinds, exactly as
	// built-in rules declare dispatch metadata: the engine's prefilter
	// then skips the rule entirely on other statements instead of
	// calling Match. Names are the catalog's kind spellings ("SELECT",
	// "INSERT", "CREATE TABLE", ...; see Rules()[i].Kinds), matched
	// case-insensitively. Empty admits every statement kind. An unknown
	// name fails RegisterRule.
	Kinds []string
	// NeedsSchema declares that the rule's findings depend on schema
	// reflection being available (the refinement context built from DDL
	// and registered databases). Declaring it keeps the engine from
	// planning the schema phase away when this rule is the only one
	// selected.
	NeedsSchema bool
	// NeedsProfile likewise declares a dependency on table data
	// profiles; it implies the profiling phase (and its snapshot) runs
	// for database-attached workloads even when no built-in data rule
	// is selected.
	NeedsProfile bool
}

// Impact is the public mirror of the ranking metric vector (§5.1).
type Impact struct {
	ReadPerf  float64 // speedup factor for reads if fixed
	WritePerf float64 // speedup factor for writes if fixed
	Maint     float64 // refactoring burden, 0..5
	DataAmp   float64 // storage amplification factor, 0..8
	Integrity float64 // 0 or 1
	Accuracy  float64 // 0 or 1
}

// RegisterRule adds a custom rule to the global registry. Subsequent
// Checkers (in this process) will run it. Returns an error for
// malformed definitions; registration is not idempotent — registering
// the same ID twice fails.
func RegisterRule(cr CustomRule) error {
	if cr.ID == "" || cr.Name == "" {
		return errors.New("sqlcheck: custom rule needs ID and Name")
	}
	if rules.ByID(cr.ID) != nil {
		return fmt.Errorf("sqlcheck: rule %q already registered", cr.ID)
	}
	if cr.Match == nil && cr.Pattern == "" {
		return errors.New("sqlcheck: custom rule needs Pattern or Match")
	}
	match := cr.Match
	if match == nil {
		re, err := regexp.Compile("(?is)" + cr.Pattern)
		if err != nil {
			return fmt.Errorf("sqlcheck: bad pattern: %w", err)
		}
		match = re.MatchString
	}
	category := rules.Category(cr.Category)
	switch category {
	case rules.Logical, rules.Physical, rules.Query, rules.Data:
	case "":
		category = rules.Query
	default:
		return fmt.Errorf("sqlcheck: unknown category %q", cr.Category)
	}
	message := cr.Message
	if message == "" {
		message = cr.Description
	}
	description := cr.Description
	if description == "" {
		description = cr.Name
	}
	var kinds []sqlast.StatementKind
	for _, k := range cr.Kinds {
		kind, ok := kindByName(k)
		if !ok {
			return fmt.Errorf("sqlcheck: unknown statement kind %q", k)
		}
		kinds = append(kinds, kind)
	}
	var needs rules.Need
	if cr.NeedsSchema {
		needs |= rules.NeedSchema
	}
	if cr.NeedsProfile {
		needs |= rules.NeedSchema | rules.NeedProfile
	}
	id, name := cr.ID, cr.Name
	rules.Register(&rules.Rule{
		Meta:        rules.Meta{Kinds: kinds, Needs: needs},
		ID:          id,
		Name:        name,
		Category:    category,
		Description: description,
		Guidance:    cr.Guidance,
		Metrics: rules.Metrics{
			ReadPerf: cr.Impact.ReadPerf, WritePerf: cr.Impact.WritePerf,
			Maint: cr.Impact.Maint, DataAmp: cr.Impact.DataAmp,
			Integrity: cr.Impact.Integrity, Accuracy: cr.Impact.Accuracy,
		},
		Flags: rules.ImpactFlags{
			Performance:     cr.Impact.ReadPerf > 0 || cr.Impact.WritePerf > 0,
			Maintainability: cr.Impact.Maint > 0,
			DataAmp:         int(minF(cr.Impact.DataAmp, 1)),
			DataIntegrity:   cr.Impact.Integrity > 0,
			Accuracy:        cr.Impact.Accuracy > 0,
		},
		DetectQuery: func(qi int, f *qanalyze.Facts, ctx *appctx.Context) []rules.Finding {
			if !match(f.Raw) {
				return nil
			}
			table := ""
			if len(f.Tables) > 0 {
				table = f.Tables[0].Name
			}
			return []rules.Finding{{
				RuleID:     id,
				RuleName:   name,
				Category:   category,
				QueryIndex: qi,
				Table:      table,
				Message:    message,
				Confidence: 0.7,
				Detector:   "query",
			}}
		},
	})
	return nil
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// kindByName resolves a statement-kind spelling ("SELECT", "CREATE
// TABLE", ...) case-insensitively against the catalog's kind names.
func kindByName(name string) (sqlast.StatementKind, bool) {
	for k := sqlast.KindOther; k.Valid(); k++ {
		if strings.EqualFold(name, k.String()) {
			return k, true
		}
	}
	return 0, false
}
