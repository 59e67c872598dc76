// Package storage implements sqlcheck's in-memory relational engine:
// typed values, tables with constraint enforcement, and hash/B+tree
// indexes. It stands in for the PostgreSQL instance the paper used to
// measure anti-pattern impact (DESIGN.md §3): the executor built on
// top of it (internal/exec) reproduces the algorithmic cost
// differences that drive Figures 3 and 8.
package storage

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// ValueKind tags the runtime type of a Value.
type ValueKind uint8

// Value kinds. KindNull is the SQL NULL, distinct from any typed zero
// value.
const (
	KindNull ValueKind = iota
	KindInt
	KindFloat
	KindString
	KindBool
	KindTime // microseconds since Unix epoch, optional tz offset
)

// Value is a dynamically typed SQL value. The zero Value is NULL.
type Value struct {
	Kind ValueKind
	I    int64   // KindInt, KindTime (µs since epoch)
	F    float64 // KindFloat
	S    string  // KindString
	B    bool    // KindBool
	// TZOffsetMin is the time zone offset in minutes for KindTime
	// values that carry one; TZKnown reports whether it is meaningful.
	TZOffsetMin int16
	TZKnown     bool
}

// Convenience constructors.

// Null returns the SQL NULL value.
func Null() Value { return Value{} }

// Int returns an integer value.
func Int(i int64) Value { return Value{Kind: KindInt, I: i} }

// Float returns a floating-point value.
func Float(f float64) Value { return Value{Kind: KindFloat, F: f} }

// Str returns a string value.
func Str(s string) Value { return Value{Kind: KindString, S: s} }

// Bool returns a boolean value.
func Bool(b bool) Value { return Value{Kind: KindBool, B: b} }

// Time returns a timestamp value (microseconds since the Unix epoch)
// without time zone information.
func Time(us int64) Value { return Value{Kind: KindTime, I: us} }

// TimeTZ returns a timestamp value with a time zone offset in minutes.
func TimeTZ(us int64, offMin int16) Value {
	return Value{Kind: KindTime, I: us, TZOffsetMin: offMin, TZKnown: true}
}

// IsNull reports whether the value is SQL NULL.
func (v Value) IsNull() bool { return v.Kind == KindNull }

// String renders the value for display and for key encoding of
// non-collating uses.
func (v Value) String() string {
	switch v.Kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	case KindFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case KindString:
		return v.S
	case KindBool:
		if v.B {
			return "true"
		}
		return "false"
	case KindTime:
		if v.TZKnown {
			return fmt.Sprintf("@%d%+d", v.I, v.TZOffsetMin)
		}
		return fmt.Sprintf("@%d", v.I)
	default:
		return "?"
	}
}

// AsFloat coerces numeric values to float64. Strings parse if they
// look numeric; ok is false otherwise.
func (v Value) AsFloat() (f float64, ok bool) {
	switch v.Kind {
	case KindInt:
		return float64(v.I), true
	case KindFloat:
		return v.F, true
	case KindString:
		f, err := strconv.ParseFloat(strings.TrimSpace(v.S), 64)
		return f, err == nil
	case KindBool:
		if v.B {
			return 1, true
		}
		return 0, true
	case KindTime:
		return float64(v.I), true
	default:
		return 0, false
	}
}

// Compare orders two non-NULL values. Numeric kinds compare
// numerically (2 == 2.0); strings compare bytewise; cross-kind
// comparisons between non-coercible kinds order by kind tag so sorting
// remains total. The result is -1, 0, or +1. NULLs are the caller's
// problem (SQL three-valued logic lives in the executor).
func Compare(a, b Value) int {
	if a.Kind == b.Kind {
		switch a.Kind {
		case KindInt:
			return cmpInt64(a.I, b.I)
		case KindFloat:
			return cmpFloat(a.F, b.F)
		case KindString:
			return strings.Compare(a.S, b.S)
		case KindBool:
			return cmpBool(a.B, b.B)
		case KindTime:
			return cmpInt64(a.I, b.I)
		case KindNull:
			return 0
		}
	}
	af, aok := a.AsFloat()
	bf, bok := b.AsFloat()
	if aok && bok {
		return cmpFloat(af, bf)
	}
	return cmpInt64(int64(a.Kind), int64(b.Kind))
}

// Equal reports SQL equality of two non-NULL values using the Compare
// ordering.
func Equal(a, b Value) bool {
	if a.IsNull() || b.IsNull() {
		return false
	}
	// Avoid string/number coercion surprises: strings only equal
	// strings unless both sides coerce cleanly.
	if (a.Kind == KindString) != (b.Kind == KindString) {
		af, aok := a.AsFloat()
		bf, bok := b.AsFloat()
		if aok && bok {
			return af == bf
		}
		return false
	}
	return Compare(a, b) == 0
}

func cmpInt64(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func cmpBool(a, b bool) int {
	switch {
	case a == b:
		return 0
	case !a:
		return -1
	default:
		return 1
	}
}

// EncodeKey builds a composite index key from the given values. The
// encoding is injective: distinct value tuples yield distinct keys.
// Each value is its kind byte followed by its payload, and values are
// joined by 0x1f. Within one kind, byte order is value order for
// integers and floats (fixed-width, order-preserving binary, see
// appendKey), strings (their bytes) and booleans; keys of different
// kinds sort by kind byte, so a range over an index is a value range
// only when its keys share the bound's kind.
func EncodeKey(vals ...Value) string {
	var buf [64]byte
	b := buf[:0]
	for i, v := range vals {
		if i > 0 {
			b = append(b, 0x1f)
		}
		b = appendKey(b, v)
	}
	return string(b)
}

// appendKey appends one value's key encoding. An integer is 8
// big-endian bytes of its two's complement with the sign bit flipped,
// so negative numbers sort before positive ones. A float is its IEEE
// 754 bits made order-preserving: a negative number has every bit
// flipped (larger magnitudes sort first), any other has only its sign
// bit flipped; -0 encodes as +0 and every NaN as one NaN, which sorts
// after +Inf.
func appendKey(b []byte, v Value) []byte {
	b = append(b, byte('0'+v.Kind))
	switch v.Kind {
	case KindInt:
		return binary.BigEndian.AppendUint64(b, uint64(v.I)^1<<63)
	case KindFloat:
		bits := math.Float64bits(v.F)
		switch {
		case v.F == 0:
			bits = 0
		case math.IsNaN(v.F):
			bits = math.Float64bits(math.NaN())
		}
		if bits>>63 == 1 {
			bits = ^bits
		} else {
			bits ^= 1 << 63
		}
		return binary.BigEndian.AppendUint64(b, bits)
	case KindString:
		return append(b, v.S...)
	default:
		return append(b, v.String()...)
	}
}

// Row is a tuple of values, positionally matching a table's columns.
type Row []Value

// Clone returns a copy of the row.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}
