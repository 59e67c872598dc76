package sqltoken

import "testing"

// Allocation budgets pin the zero-alloc lexing rewrite the same way
// TestProfileAllocationBudget pins the streaming profiler: loose
// bounds that catch an accidental return to per-token strings.ToUpper
// or to materializing intermediate token slices, not minor churn.

const allocBudgetSQL = `SELECT u.name, COUNT(*) AS n
FROM users u LEFT JOIN orders o ON o.user_id = u.id
WHERE u.Status = 'active' AND o.total > 42.5
GROUP BY u.name HAVING COUNT(*) > 3
ORDER BY n DESC LIMIT 10;
INSERT INTO audit_log (who, what) VALUES ('sys', 'check');`

// TestLexAllocationBudget: Lex allocates the token slice and nothing
// per token (the old keyword lookup upper-cased every word). The
// fixture has ~90 tokens; the slice may grow a couple of times.
func TestLexAllocationBudget(t *testing.T) {
	allocs := testing.AllocsPerRun(20, func() {
		Lex(allocBudgetSQL)
	})
	if allocs > 4 {
		t.Errorf("Lex allocated %.0f times; budget is 4 (slice growth only)", allocs)
	}
}

// TestLexSignificantAllocationBudget: the significant-token filter
// used to lex everything into one slice and copy into a second.
func TestLexSignificantAllocationBudget(t *testing.T) {
	allocs := testing.AllocsPerRun(20, func() {
		LexSignificant(allocBudgetSQL)
	})
	if allocs > 4 {
		t.Errorf("LexSignificant allocated %.0f times; budget is 4", allocs)
	}
}

// TestSplitStatementsAllocationBudget: splitting streams tokens off
// the lexer; it allocates the statement slice, never a token slice.
func TestSplitStatementsAllocationBudget(t *testing.T) {
	allocs := testing.AllocsPerRun(20, func() {
		SplitStatements(allocBudgetSQL)
	})
	if allocs > 3 {
		t.Errorf("SplitStatements allocated %.0f times; budget is 3", allocs)
	}
}

// TestFingerprintAllocationBudget: the fingerprint walk's state lives
// on the stack; what allocates is the returned ScriptPrint, its
// statement slice, and the token buffer Statements reuses from
// statement to statement.
func TestFingerprintAllocationBudget(t *testing.T) {
	allocs := testing.AllocsPerRun(20, func() {
		FingerprintScript(allocBudgetSQL)
	})
	if allocs > 12 {
		t.Errorf("FingerprintScript allocated %.0f times; budget is 12", allocs)
	}
}

// TestTokenMatchZeroAlloc: the per-token comparisons the parser leans
// on must not allocate at all for ASCII inputs.
func TestTokenMatchZeroAlloc(t *testing.T) {
	kw := Token{Kind: TokenKeyword, Text: "select"}
	id := Token{Kind: TokenIdent, Text: "UserName"}
	allocs := testing.AllocsPerRun(100, func() {
		kw.Is("SELECT")
		id.Is("WHERE")
		_ = kw.Upper() // interned keyword: no allocation
		isKeywordFold("From")
		LookupFold(keywords, "wHeRe")
		EqualFold("Like", "LIKE")
	})
	if allocs != 0 {
		t.Errorf("token matching allocated %.2f times per run; want 0", allocs)
	}
}
