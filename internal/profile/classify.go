package profile

// Byte-level string classifiers for the profiling hot path. Each
// sampled cell used to pass through a cascade of regexp matches; on
// the 16-table bench fixture that cascade (plus re-rendering values
// per cross-column pass) dominated the data phase. The classifiers
// here are hand-rolled scanners exactly equivalent to the reference
// regexes kept in the tests — TestClassifierEquivalence exercises
// each pair on adversarial and randomized inputs, and
// FuzzClassifierEquivalence on fuzzed ones — so the profiler can
// classify without regexp machinery while producing byte-identical
// profiles.
//
// Equivalence notes: RE2's \s is exactly [\t\n\f\r ] and \d is [0-9],
// both ASCII-only, and every pattern is anchored with ASCII-only
// classes, so byte scanning matches rune scanning (multi-byte runes
// can never satisfy a digit/space/punctuation position). The optional
// groups ((:\d{2})?, (\.\d+)?, ([eE]…)?) never create real
// backtracking choices because the text following each group cannot
// start with the group's first byte.

import "strings"

// isSpaceByte reports RE2 \s membership: [\t\n\f\r ].
func isSpaceByte(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\f' || c == '\r'
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func hasDigit(s string) bool {
	for i := 0; i < len(s); i++ {
		if isDigit(s[i]) {
			return true
		}
	}
	return false
}

// mayParseFloat reports whether strconv.ParseFloat might accept s:
// false only when s lies outside ParseFloat's grammar. A string
// holding x, X or _ (hexadecimal floats, digit separators), or whose
// first byte after the sign starts "inf" or "nan", is left to
// ParseFloat; any other must be a decimal float,
// [+-] digits [. digits] [(e|E) [+-] digits], with at least one
// mantissa digit.
func mayParseFloat(s string) bool {
	if strings.ContainsAny(s, "xX_") {
		return true
	}
	i, n := 0, len(s)
	if i < n && (s[i] == '+' || s[i] == '-') {
		i++
	}
	if i < n {
		switch s[i] {
		case 'i', 'I', 'n', 'N':
			return true
		}
	}
	digits := 0
	for ; i < n && isDigit(s[i]); i++ {
		digits++
	}
	if i < n && s[i] == '.' {
		for i++; i < n && isDigit(s[i]); i++ {
			digits++
		}
	}
	if digits == 0 {
		return false
	}
	if i < n && (s[i] == 'e' || s[i] == 'E') {
		i++
		if i < n && (s[i] == '+' || s[i] == '-') {
			i++
		}
		if i == n || !isDigit(s[i]) {
			return false
		}
		for i < n && isDigit(s[i]) {
			i++
		}
	}
	return i == n
}

// intLike is reInt: ^\s*-?\d+\s*$
func intLike(s string) bool {
	i, n := 0, len(s)
	for i < n && isSpaceByte(s[i]) {
		i++
	}
	if i < n && s[i] == '-' {
		i++
	}
	start := i
	for i < n && isDigit(s[i]) {
		i++
	}
	if i == start {
		return false
	}
	for i < n && isSpaceByte(s[i]) {
		i++
	}
	return i == n
}

// floatLike is reFloat: ^\s*-?\d+\.\d+([eE][-+]?\d+)?\s*$
func floatLike(s string) bool {
	i, n := 0, len(s)
	for i < n && isSpaceByte(s[i]) {
		i++
	}
	if i < n && s[i] == '-' {
		i++
	}
	start := i
	for i < n && isDigit(s[i]) {
		i++
	}
	if i == start || i >= n || s[i] != '.' {
		return false
	}
	i++
	start = i
	for i < n && isDigit(s[i]) {
		i++
	}
	if i == start {
		return false
	}
	if i < n && (s[i] == 'e' || s[i] == 'E') {
		i++
		if i < n && (s[i] == '+' || s[i] == '-') {
			i++
		}
		start = i
		for i < n && isDigit(s[i]) {
			i++
		}
		if i == start {
			return false
		}
	}
	for i < n && isSpaceByte(s[i]) {
		i++
	}
	return i == n
}

// datePrefix reports whether s starts with \d{4}-\d{2}-\d{2}; the
// caller guarantees len(s) >= 10.
func datePrefix(s string) bool {
	return isDigit(s[0]) && isDigit(s[1]) && isDigit(s[2]) && isDigit(s[3]) &&
		s[4] == '-' && isDigit(s[5]) && isDigit(s[6]) &&
		s[7] == '-' && isDigit(s[8]) && isDigit(s[9])
}

// dateLike is reDate: ^\d{4}-\d{2}-\d{2}$
func dateLike(s string) bool {
	return len(s) == 10 && datePrefix(s)
}

// timeOfDayTail scans \d{2}:\d{2}(:\d{2})?(\.\d+)? starting at i and
// returns the index just past it, or -1 when the mandatory HH:MM part
// is absent. The optional groups are unambiguous: nothing that may
// follow them starts with ':' or '.'.
func timeOfDayTail(s string, i int) int {
	n := len(s)
	if i+5 > n || !isDigit(s[i]) || !isDigit(s[i+1]) || s[i+2] != ':' ||
		!isDigit(s[i+3]) || !isDigit(s[i+4]) {
		return -1
	}
	i += 5
	if i+3 <= n && s[i] == ':' && isDigit(s[i+1]) && isDigit(s[i+2]) {
		i += 3
	}
	if i+2 <= n && s[i] == '.' && isDigit(s[i+1]) {
		i += 2
		for i < n && isDigit(s[i]) {
			i++
		}
	}
	return i
}

// dateTimeNoTZLike is reDateTime:
// ^\d{4}-\d{2}-\d{2}[ T]\d{2}:\d{2}(:\d{2})?(\.\d+)?$
func dateTimeNoTZLike(s string) bool {
	if len(s) < 16 || !datePrefix(s) || (s[10] != ' ' && s[10] != 'T') {
		return false
	}
	return timeOfDayTail(s, 11) == len(s)
}

// dateTimeTZLike is reDateTimeTZ:
// ^\d{4}-\d{2}-\d{2}[ T]\d{2}:\d{2}(:\d{2})?(\.\d+)?\s*([zZ]|[-+]\d{2}:?\d{2})$
func dateTimeTZLike(s string) bool {
	n := len(s)
	if n < 17 || !datePrefix(s) || (s[10] != ' ' && s[10] != 'T') {
		return false
	}
	i := timeOfDayTail(s, 11)
	if i < 0 {
		return false
	}
	for i < n && isSpaceByte(s[i]) {
		i++
	}
	if i >= n {
		return false
	}
	switch s[i] {
	case 'z', 'Z':
		return i+1 == n
	case '+', '-':
		i++
		if i+2 > n || !isDigit(s[i]) || !isDigit(s[i+1]) {
			return false
		}
		i += 2
		if i < n && s[i] == ':' {
			i++
		}
		return i+2 == n && isDigit(s[i]) && isDigit(s[i+1])
	}
	return false
}

// emailLike is reEmail: ^[^@\s]+@[^@\s]+\.[^@\s]+$ — exactly one '@'
// with a non-empty local part, no whitespace anywhere, and a '.' in
// the interior of the domain part ('.' itself is a legal class
// member, so only the dot's position matters).
func emailLike(s string) bool {
	at := strings.IndexByte(s, '@')
	if at <= 0 {
		return false
	}
	rest := s[at+1:]
	if len(rest) < 3 || strings.IndexByte(rest, '@') >= 0 {
		return false
	}
	for i := 0; i < len(s); i++ {
		if isSpaceByte(s[i]) {
			return false
		}
	}
	return strings.IndexByte(rest[1:len(rest)-1], '.') >= 0
}

// pathLike gates rePath (a genuinely irregular alternation) behind a
// necessary-condition byte scan: both alternatives require a '/',
// '\', or '.' somewhere in the string, and nearly no sampled string
// contains one.
func pathLike(s string) bool {
	if strings.IndexByte(s, '/') < 0 && strings.IndexByte(s, '\\') < 0 &&
		strings.IndexByte(s, '.') < 0 {
		return false
	}
	return rePath.MatchString(s)
}

// delimiters tried by delimListLike, in the original match order.
var listDelims = [...]string{",", ";", "|"}

// delimListLike reports whether a string looks like a
// delimiter-separated list of short tokens (the MVA signature). This
// is the allocation-free form of the original strings.Split loop:
// parts are walked as substrings of s, never materialized.
func delimListLike(s string) bool {
	for _, d := range listDelims {
		parts := strings.Count(s, d) + 1
		if parts < 2 {
			continue
		}
		ok := 0
		rest := s
		for {
			i := strings.Index(rest, d)
			p := rest
			if i >= 0 {
				p = rest[:i]
			}
			p = strings.TrimSpace(p)
			// Tokens should be short identifiers, not prose.
			if p != "" && len(p) <= 24 && !strings.Contains(p, " ") {
				ok++
			}
			if i < 0 {
				break
			}
			rest = rest[i+len(d):]
		}
		if ok >= 2 && float64(ok) >= 0.8*float64(parts) {
			return true
		}
	}
	return false
}
