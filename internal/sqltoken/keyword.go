package sqltoken

// Zero-allocation ASCII case folding for keyword classification and
// canonical upper-casing. The lexer classifies every identifier-shaped
// word and the parser upper-cases every verb, clause head, and type
// name; doing either through strings.ToUpper allocates a fresh string
// per call, which dominated the cold-path allocation profile (~23% of
// objects). The helpers here fold through a fixed stack buffer and an
// interning table instead:
//
//   - isKeywordFold folds the word into a stack array and probes the
//     keyword set via keywords[string(buf[:n])] — the Go compiler
//     recognizes map lookups keyed by a converted byte slice and skips
//     the string allocation.
//   - CanonUpper returns the canonical upper-case spelling: the input
//     itself when it is already upper ASCII, an interned constant for
//     every keyword, type name, constraint action, and common function
//     name, and only falls back to allocating for arbitrary
//     mixed-case identifiers (byte-identical to strings.ToUpper,
//     pinned by FuzzKeywordFold).
//   - asciiEqualFold compares a word against an already-upper-cased
//     ASCII pattern without folding either side into a new string.

import "strings"

// keywordMaxLen bounds the stack fold buffer. The longest entry in the
// keyword and canon tables is "AUTO_INCREMENT" (14 bytes); words longer
// than the buffer cannot be table entries and take the slow path.
const keywordMaxLen = 16

// isKeywordFold reports whether word is in the keyword set under case
// folding, without allocating on the ASCII path. Exactly equivalent to
// keywords[strings.ToUpper(word)] (pinned by FuzzKeywordFold): words
// with high bytes take the allocating Unicode path, because
// strings.ToUpper maps a few non-ASCII runes onto ASCII letters
// (ſ → S, ı → I) and a byte-wise reject would diverge.
func isKeywordFold(word string) bool { return LookupFold(keywords, word) }

// asciiEqualFold reports whether strings.ToUpper(s) == upper, where
// upper is already upper-case ASCII, without allocating on the ASCII
// path: no fold buffer, no scan past the first mismatch. Inputs with
// high bytes defer to strings.ToUpper for the Unicode-to-ASCII
// mappings it performs.
func asciiEqualFold(s, upper string) bool {
	if len(s) != len(upper) {
		for i := 0; i < len(s); i++ {
			if s[i] >= 0x80 {
				return strings.ToUpper(s) == upper
			}
		}
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 0x80 {
			return strings.ToUpper(s) == upper
		}
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		if c != upper[i] {
			return false
		}
	}
	return true
}

// LookupFold reports whether set[strings.ToUpper(word)], where set is
// keyed by upper-case ASCII strings no longer than keywordMaxLen,
// without allocating on the ASCII path: the probe goes through a stack
// fold buffer, and the compiler elides the map key conversion. Words
// with high bytes take the allocating Unicode path (strings.ToUpper
// can map non-ASCII runes onto ASCII letters, so they may still be set
// members); longer pure-ASCII words cannot be members.
func LookupFold(set map[string]bool, word string) bool {
	if len(word) <= keywordMaxLen {
		var buf [keywordMaxLen]byte
		for i := 0; i < len(word); i++ {
			c := word[i]
			if c >= 0x80 {
				return set[strings.ToUpper(word)]
			}
			if 'a' <= c && c <= 'z' {
				c -= 'a' - 'A'
			}
			buf[i] = c
		}
		return set[string(buf[:len(word)])]
	}
	// Too long for any entry unless Unicode upper-casing shrinks it
	// (multi-byte runes mapping onto ASCII letters).
	for i := 0; i < len(word); i++ {
		if word[i] >= 0x80 {
			return set[strings.ToUpper(word)]
		}
	}
	return false
}

// canonExtra extends the interning table beyond the keyword set with
// upper-case spellings the parser asks for on the cold path: column
// type names, foreign-key referential actions, and the function names
// the rules recognize. Arbitrary identifiers outside this closed set
// fall back to an ordinary upper-case allocation.
var canonExtra = []string{
	// Column type names (parser.parseColumnDef).
	"INT", "INTEGER", "BIGINT", "SMALLINT", "TINYINT", "MEDIUMINT",
	"VARCHAR", "CHAR", "TEXT", "CLOB", "BLOB", "BYTEA", "BINARY",
	"VARBINARY", "FLOAT", "DOUBLE", "REAL", "DECIMAL", "NUMERIC",
	"MONEY", "DATE", "TIME", "TIMESTAMP", "TIMESTAMPTZ", "DATETIME",
	"YEAR", "BOOLEAN", "BOOL", "BIGSERIAL", "SMALLSERIAL", "UUID",
	"JSON", "JSONB", "XML", "ARRAY", "BIT", "PRECISION", "UNSIGNED",
	"ZEROFILL", "NVARCHAR", "NCHAR", "INTERVAL", "CHARACTER",
	// Referential actions (parser.parseFKRef).
	"NO", "ACTION",
	// Function names the detectors look for (expr.parseFuncCall).
	"COUNT", "SUM", "AVG", "MIN", "MAX", "RAND", "RANDOM", "CONCAT",
	"COALESCE", "SUBSTR", "SUBSTRING", "LOWER", "UPPER", "TRIM",
	"LTRIM", "RTRIM", "LENGTH", "ABS", "ROUND", "NOW", "IFNULL",
	"NULLIF", "GROUP_CONCAT", "STRING_AGG", "NVL", "CURDATE",
	"CURTIME", "DATE_ADD", "DATE_SUB", "EXTRACT", "MONTH",
	"DAY", "FIND_IN_SET", "INSTR", "POSITION", "LOCATE",
	"MOD", "CEIL", "FLOOR", "POWER", "SQRT", "MD5", "SHA1",
	"SHA2", "UNIX_TIMESTAMP", "FROM_UNIXTIME", "GETDATE", "ISNULL",
}

// canonUpper interns the canonical upper-case spelling for every word
// in the keyword set and canonExtra, keyed by that same spelling (the
// fold buffer produces the key). Values alias the keys, so a hit
// returns a shared string with no allocation.
var canonUpper = func() map[string]string {
	m := make(map[string]string, len(keywords)+len(canonExtra))
	for w := range keywords {
		m[w] = w
	}
	for _, w := range canonExtra {
		m[w] = w
	}
	return m
}()

// CanonUpper returns s upper-cased, byte-identical to
// strings.ToUpper(s), without allocating for the cases the hot path
// meets: already-upper ASCII words return s unchanged, and words in
// the interning table (keywords, type names, referential actions,
// recognized function names, any case mix) return the shared canonical
// string. Only arbitrary mixed-case identifiers allocate.
func CanonUpper(s string) string {
	hasLower := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 0x80 {
			// Non-ASCII: defer to the full Unicode mapping.
			return strings.ToUpper(s)
		}
		if 'a' <= c && c <= 'z' {
			hasLower = true
		}
	}
	if !hasLower {
		return s
	}
	if len(s) <= keywordMaxLen {
		var buf [keywordMaxLen]byte
		for i := 0; i < len(s); i++ {
			c := s[i]
			if 'a' <= c && c <= 'z' {
				c -= 'a' - 'A'
			}
			buf[i] = c
		}
		if canon, ok := canonUpper[string(buf[:len(s)])]; ok {
			return canon
		}
		return string(buf[:len(s)])
	}
	return strings.ToUpper(s)
}
