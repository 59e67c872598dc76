package sqltoken

// Query fingerprinting over the token stream — the pg_stat_statements
// idea applied to whole scripts. A fingerprint is a 128-bit hash of
// the statements' significant tokens with literals, whitespace,
// comments, and keyword/identifier case normalized away, so the
// near-identical requests that dominate production SQL traffic (same
// query shape, different literals) collapse onto one value. The walk
// consumes Statements, so its statements are exactly the ones every
// other consumer of the script sees, and it keeps each statement's
// StmtPrint — its text, its byte range in the submitted input and its
// line — so a consumer that memoizes per-fingerprint results can
// still report spans into the text actually submitted.
//
// What normalizes (equal fingerprints):
//   - number, string, and placeholder literal values (each kind keeps
//     a distinct marker, so `WHERE x = 1` ≠ `WHERE x = '1'`)
//   - whitespace and comments, inside and between statements
//   - keyword and unquoted-identifier case (SQL is case-insensitive
//     there); quoted identifiers stay case-sensitive
//
// What does not (distinct fingerprints): any structural difference —
// token order, operators, punctuation, identifier spelling, statement
// count, literal kind.
//
// Collision stance: the two 64-bit FNV-1a lanes are seeded
// differently, giving 128 bits against accidental collision — vastly
// more than any realistic fingerprint cardinality — but the hash is
// not cryptographic and fingerprints are only stable within one
// process (they are not persisted). Consumers that cannot tolerate
// even a freak collision must compare the statement texts on a
// fingerprint match; the report cache does exactly that (and needs to
// anyway, because detectors and their messages read literal values).

// Fingerprint is a 128-bit normalized script hash. The zero value is
// the fingerprint of the empty script.
type Fingerprint struct {
	Hi, Lo uint64
}

// ScriptPrint is the result of fingerprinting a script: the combined
// fingerprint plus where each statement lies in the input.
type ScriptPrint struct {
	Fingerprint Fingerprint
	Stmts       []StmtPrint
}

// Texts returns the statement texts in script order.
func (sp *ScriptPrint) Texts() []string {
	out := make([]string, len(sp.Stmts))
	for i := range sp.Stmts {
		out[i] = sp.Stmts[i].Text
	}
	return out
}

// 64-bit FNV-1a parameters; the second lane starts from a decorrelated
// seed so the two lanes act as independent hashes of the same stream.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
	fnvSeed2    = fnvOffset64 ^ 0x9e3779b97f4a7c15 // golden-ratio tweak
)

// fpHasher feeds one byte stream through both FNV lanes.
type fpHasher struct {
	h1, h2 uint64
}

func newFPHasher() fpHasher { return fpHasher{h1: fnvOffset64, h2: fnvSeed2} }

func (h *fpHasher) byte(b byte) {
	h.h1 = (h.h1 ^ uint64(b)) * fnvPrime64
	h.h2 = (h.h2 ^ uint64(b)) * fnvPrime64
}

func (h *fpHasher) str(s string) {
	for i := 0; i < len(s); i++ {
		h.byte(s[i])
	}
}

// upperStr hashes s with ASCII letters upper-cased, without
// allocating — the case normalization for keywords and unquoted
// identifiers.
func (h *fpHasher) upperStr(s string) {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 'a' && c <= 'z' {
			c -= 'a' - 'A'
		}
		h.byte(c)
	}
}

// Stream marker bytes. Token kinds use small values; the separators
// sit far away so a token text ending in a marker-valued byte cannot
// alias a boundary.
const (
	fpMarkNumber      = 0x01 // literal value dropped
	fpMarkString      = 0x02 // literal value dropped
	fpMarkPlaceholder = 0x03 // placeholder spelling dropped (?, $1, :x)
	fpMarkSepToken    = 0xFF // between tokens
	fpMarkSepStmt     = 0xFE // between statements
)

// FingerprintScript returns the normalized fingerprint of input
// together with its statements, as Statements yields them.
// FingerprintScript never fails; unparseable bytes hash as their raw
// text, so every input has a stable fingerprint.
func FingerprintScript(input string) *ScriptPrint {
	sp := &ScriptPrint{}
	h := newFPHasher()
	for st, toks := range Statements(input) {
		for _, t := range toks[:len(toks)-1] { // EOF excluded
			switch t.Kind {
			case TokenNumber:
				h.byte(fpMarkNumber)
			case TokenString:
				h.byte(fpMarkString)
			case TokenPlaceholder:
				h.byte(fpMarkPlaceholder)
			case TokenKeyword, TokenIdent:
				h.upperStr(t.Text)
			default:
				// Quoted identifiers (case-sensitive), operators,
				// punctuation, and unclassified bytes hash verbatim.
				h.str(t.Text)
			}
			h.byte(fpMarkSepToken)
		}
		h.byte(fpMarkSepStmt)
		sp.Stmts = append(sp.Stmts, st)
	}
	sp.Fingerprint = Fingerprint{Hi: h.h1, Lo: h.h2}
	return sp
}
