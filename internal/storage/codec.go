package storage

// Value-level binary codec shared by every on-disk representation of
// row data: the WAL's register/checkpoint blobs (internal/storage/wal)
// and the page cache's spill files (pagecache.go) encode values through
// these exact helpers, so "one codec" is a structural property rather
// than a convention — a value that round-trips through a checkpoint
// round-trips through a page file byte-for-byte. The encoding is
// deterministic (no maps, no pointers, varint-packed) which is what
// lets both layers compare or replay blobs without canonicalization.

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// AppendString appends a uvarint-length-prefixed string.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendBool appends a single 0/1 byte.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendValue appends the deterministic encoding of one value: a kind
// byte followed by a kind-specific payload.
func AppendValue(b []byte, v Value) []byte {
	b = append(b, byte(v.Kind))
	switch v.Kind {
	case KindInt:
		b = binary.AppendVarint(b, v.I)
	case KindFloat:
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v.F))
	case KindString:
		b = AppendString(b, v.S)
	case KindBool:
		b = AppendBool(b, v.B)
	case KindTime:
		b = binary.AppendVarint(b, v.I)
		b = AppendBool(b, v.TZKnown)
		if v.TZKnown {
			b = binary.AppendVarint(b, int64(v.TZOffsetMin))
		}
	}
	return b
}

// AppendRow appends a row as its uvarint arity followed by each
// value's AppendValue encoding: the row layout of register and
// checkpoint blobs and of page spill records.
func AppendRow(b []byte, r Row) []byte {
	b = binary.AppendUvarint(b, uint64(len(r)))
	for _, v := range r {
		b = AppendValue(b, v)
	}
	return b
}

// RowLen returns len(AppendRow(nil, r)) without encoding the row, so a
// writer can size a whole blob's buffer before filling it.
func RowLen(r Row) int {
	n := uvarintLen(uint64(len(r)))
	for _, v := range r {
		n++ // kind byte
		switch v.Kind {
		case KindInt:
			n += varintLen(v.I)
		case KindFloat:
			n += 8
		case KindString:
			n += uvarintLen(uint64(len(v.S))) + len(v.S)
		case KindBool:
			n++
		case KindTime:
			n += varintLen(v.I) + 1
			if v.TZKnown {
				n += varintLen(int64(v.TZOffsetMin))
			}
		}
	}
	return n
}

// uvarintLen is the length of binary.AppendUvarint's encoding of x.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// varintLen is the length of binary.AppendVarint's zig-zag encoding.
func varintLen(x int64) int { return uvarintLen(uint64(x<<1) ^ uint64(x>>63)) }

// ByteReader is a cursor over an encoded blob; the first malformed
// read sets Err and every later read returns a zero value, so decode
// paths check Err at their section boundaries instead of per call.
type ByteReader struct {
	Buf []byte
	Off int
	Err error
}

// Fail marks the reader truncated at the current offset (used by
// callers that bounds-check sub-slices themselves).
func (r *ByteReader) Fail() {
	if r.Err == nil {
		r.Err = fmt.Errorf("storage: truncated blob at byte %d", r.Off)
	}
}

// Byte reads one byte.
func (r *ByteReader) Byte() byte {
	if r.Err != nil || r.Off >= len(r.Buf) {
		r.Fail()
		return 0
	}
	v := r.Buf[r.Off]
	r.Off++
	return v
}

// Bool reads a 0/1 byte.
func (r *ByteReader) Bool() bool { return r.Byte() != 0 }

// Uvarint reads an unsigned varint.
func (r *ByteReader) Uvarint() uint64 {
	if r.Err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.Buf[r.Off:])
	if n <= 0 {
		r.Fail()
		return 0
	}
	r.Off += n
	return v
}

// Varint reads a signed varint.
func (r *ByteReader) Varint() int64 {
	if r.Err != nil {
		return 0
	}
	v, n := binary.Varint(r.Buf[r.Off:])
	if n <= 0 {
		r.Fail()
		return 0
	}
	r.Off += n
	return v
}

// Uint64 reads a fixed-width little-endian uint64.
func (r *ByteReader) Uint64() uint64 {
	if r.Err != nil || r.Off+8 > len(r.Buf) {
		r.Fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.Buf[r.Off:])
	r.Off += 8
	return v
}

// Str reads a uvarint-length-prefixed string.
func (r *ByteReader) Str() string {
	n := int(r.Uvarint())
	if r.Err != nil || n < 0 || r.Off+n > len(r.Buf) {
		r.Fail()
		return ""
	}
	s := string(r.Buf[r.Off : r.Off+n])
	r.Off += n
	return s
}

// DecodeValue reads one AppendValue encoding. An unknown kind byte
// sets r.Err and returns Null.
func DecodeValue(r *ByteReader) Value {
	switch ValueKind(r.Byte()) {
	case KindNull:
		return Null()
	case KindInt:
		return Int(r.Varint())
	case KindFloat:
		return Float(math.Float64frombits(r.Uint64()))
	case KindString:
		return Str(r.Str())
	case KindBool:
		return Bool(r.Bool())
	case KindTime:
		us := r.Varint()
		if r.Bool() {
			return TimeTZ(us, int16(r.Varint()))
		}
		return Time(us)
	default:
		if r.Err == nil {
			r.Err = fmt.Errorf("storage: unknown value kind in blob")
		}
		return Null()
	}
}
