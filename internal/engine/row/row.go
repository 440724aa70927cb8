// Package row defines tuple schemas, a compact binary tuple encoding,
// and an order-preserving key encoding (memcmp-comparable), used by the
// storage and execution layers of the engine.
package row

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Type is a column type.
type Type int

// Column types supported by the engine.
const (
	Int64 Type = iota
	Float64
	String
	Bytes
)

func (t Type) String() string {
	switch t {
	case Int64:
		return "INT64"
	case Float64:
		return "FLOAT64"
	case String:
		return "STRING"
	case Bytes:
		return "BYTES"
	}
	return "UNKNOWN"
}

// Column describes one column.
type Column struct {
	Name string
	Type Type
}

// Schema is an ordered set of columns.
type Schema struct {
	Columns []Column
	byName  map[string]int
}

// NewSchema builds a schema; column names must be unique.
func NewSchema(cols ...Column) *Schema {
	s := &Schema{Columns: cols, byName: make(map[string]int, len(cols))}
	for i, c := range cols {
		if _, dup := s.byName[c.Name]; dup {
			panic("row: duplicate column " + c.Name)
		}
		s.byName[c.Name] = i
	}
	return s
}

// Ordinal returns a column's index, or -1.
func (s *Schema) Ordinal(name string) int {
	if i, ok := s.byName[name]; ok {
		return i
	}
	return -1
}

// MustOrdinal is Ordinal but panics on unknown columns (schema bugs are
// programming errors).
func (s *Schema) MustOrdinal(name string) int {
	i := s.Ordinal(name)
	if i < 0 {
		panic("row: unknown column " + name)
	}
	return i
}

// Len returns the column count.
func (s *Schema) Len() int { return len(s.Columns) }

// Names returns the column names in order.
func (s *Schema) Names() []string {
	names := make([]string, len(s.Columns))
	for i, c := range s.Columns {
		names[i] = c.Name
	}
	return names
}

// Project returns a schema of the named columns.
func (s *Schema) Project(names ...string) *Schema {
	cols := make([]Column, len(names))
	for i, n := range names {
		cols[i] = s.Columns[s.MustOrdinal(n)]
	}
	return NewSchema(cols...)
}

// Tuple is one row: values parallel to the schema's columns. Values are
// int64, float64, string or []byte.
type Tuple []interface{}

// ErrCorrupt indicates an undecodable tuple image.
var ErrCorrupt = errors.New("row: corrupt tuple encoding")

// Encode appends the tuple's binary image to dst and returns it.
func Encode(dst []byte, s *Schema, t Tuple) ([]byte, error) {
	if len(t) != s.Len() {
		return nil, fmt.Errorf("row: tuple arity %d does not match schema %d", len(t), s.Len())
	}
	var scratch [8]byte
	for i, c := range s.Columns {
		switch c.Type {
		case Int64:
			v, ok := t[i].(int64)
			if !ok {
				return nil, typeErr(c, t[i])
			}
			binary.BigEndian.PutUint64(scratch[:], uint64(v))
			dst = append(dst, scratch[:]...)
		case Float64:
			v, ok := t[i].(float64)
			if !ok {
				return nil, typeErr(c, t[i])
			}
			binary.BigEndian.PutUint64(scratch[:], math.Float64bits(v))
			dst = append(dst, scratch[:]...)
		case String:
			v, ok := t[i].(string)
			if !ok {
				return nil, typeErr(c, t[i])
			}
			if len(v) > math.MaxUint16 {
				return nil, fmt.Errorf("row: string too long (%d)", len(v))
			}
			binary.BigEndian.PutUint16(scratch[:2], uint16(len(v)))
			dst = append(dst, scratch[:2]...)
			dst = append(dst, v...)
		case Bytes:
			v, ok := t[i].([]byte)
			if !ok {
				return nil, typeErr(c, t[i])
			}
			if len(v) > math.MaxUint16 {
				return nil, fmt.Errorf("row: bytes too long (%d)", len(v))
			}
			binary.BigEndian.PutUint16(scratch[:2], uint16(len(v)))
			dst = append(dst, scratch[:2]...)
			dst = append(dst, v...)
		}
	}
	return dst, nil
}

func typeErr(c Column, v interface{}) error {
	return fmt.Errorf("row: column %s expects %v, got %T", c.Name, c.Type, v)
}

// Decode parses one tuple image into a tuple the caller owns.
func Decode(s *Schema, b []byte) (Tuple, error) { return DecodeCols(nil, s, b, nil) }

// DecodeCols parses one tuple image into dst, reusing its storage when
// it is large enough, materialising only the columns at the listed
// ordinals (ascending; nil = every column) and stepping over the rest by
// length. The tuple is parallel to ords. The whole image is still
// validated: what Decode rejects, DecodeCols rejects. A slot of dst that
// already holds an equal Int64, Float64 (bit-equal) or String value keeps
// that boxed value; Bytes values are always fresh copies.
func DecodeCols(dst Tuple, s *Schema, b []byte, ords []int) (Tuple, error) {
	n := len(ords)
	if ords == nil {
		n = s.Len()
	}
	if cap(dst) < n {
		dst = make(Tuple, n)
	}
	dst = dst[:n]
	if err := decodeInto(dst, s, b, ords, false); err != nil {
		return nil, err
	}
	return dst, nil
}

// DecodeColumn extracts a single column from a tuple image without
// materializing the rest — the hot path for scans that aggregate one
// column (the engine's RangeScan does exactly this). It returns at the
// column: the image past it is not looked at.
func DecodeColumn(s *Schema, b []byte, ord int) (interface{}, error) {
	var v [1]interface{}
	err := decodeInto(v[:], s, b, []int{ord}, true)
	return v[0], err
}

// decodeInto is the one decode loop: it walks the image column by
// column, checking every length, and stores column ords[k] in dst[k]
// (nil ords = all columns). With early set it returns once the last
// listed column is stored; otherwise the image must end exactly at the
// last column.
func decodeInto(dst Tuple, s *Schema, b []byte, ords []int, early bool) error {
	// next is the ordinal of the next column to store: one comparison a
	// column on the skip path.
	all := ords == nil
	k, next := 0, -1
	if all {
		next = 0
	} else if len(ords) > 0 {
		next = ords[0]
	}
	off := 0
	for i := range s.Columns {
		typ := s.Columns[i].Type
		end := off + 8
		if typ >= String { // String and Bytes: a 2-byte length, then the bytes
			if len(b) < off+2 {
				return ErrCorrupt
			}
			end = off + 2 + (int(b[off])<<8 | int(b[off+1]))
		}
		if len(b) < end {
			return ErrCorrupt
		}
		if i == next {
			// An equal value already in the slot stays: boxing a fresh
			// one would allocate.
			switch typ {
			case Int64:
				if v := int64(binary.BigEndian.Uint64(b[off:])); dst[k] != v {
					dst[k] = v
				}
			case Float64:
				v := binary.BigEndian.Uint64(b[off:])
				if f, ok := dst[k].(float64); !ok || math.Float64bits(f) != v {
					dst[k] = math.Float64frombits(v)
				}
			case String:
				if x, ok := dst[k].(string); !ok || x != string(b[off+2:end]) {
					dst[k] = string(b[off+2 : end])
				}
			case Bytes:
				dst[k] = append([]byte(nil), b[off+2:end]...)
			}
			k++
			switch {
			case all:
				next = k
			case k < len(ords):
				next = ords[k]
			case early:
				return nil
			default:
				next = -1
			}
		}
		off = end
	}
	if off != len(b) || k != len(dst) {
		return ErrCorrupt
	}
	return nil
}

// EncodedSize returns the byte length of the tuple's image.
func EncodedSize(s *Schema, t Tuple) int {
	n := 0
	for i, c := range s.Columns {
		switch c.Type {
		case Int64, Float64:
			n += 8
		case String:
			n += 2 + len(t[i].(string))
		case Bytes:
			n += 2 + len(t[i].([]byte))
		}
	}
	return n
}

// --- Order-preserving key encoding --------------------------------------

// EncodeKey appends an order-preserving (bytes.Compare-compatible)
// encoding of the values to dst. Int64 uses sign-flipped big-endian;
// Float64 uses the IEEE total-order trick; String/Bytes use 0x00-escaped
// termination so prefixes order correctly.
func EncodeKey(dst []byte, vals ...interface{}) []byte {
	var scratch [8]byte
	for _, v := range vals {
		switch x := v.(type) {
		case int64:
			binary.BigEndian.PutUint64(scratch[:], uint64(x)^(1<<63))
			dst = append(dst, scratch[:]...)
		case int:
			binary.BigEndian.PutUint64(scratch[:], uint64(int64(x))^(1<<63))
			dst = append(dst, scratch[:]...)
		case float64:
			binary.BigEndian.PutUint64(scratch[:], floatKey(math.Float64bits(x)))
			dst = append(dst, scratch[:]...)
		case string:
			dst = appendEscaped(dst, []byte(x))
		case []byte:
			dst = appendEscaped(dst, x)
		default:
			panic(fmt.Sprintf("row: unsupported key type %T", v))
		}
	}
	return dst
}

// floatKey maps a Float64's bits onto the IEEE total order as unsigned
// integers: negatives flipped whole, positives above them.
func floatKey(bits uint64) uint64 {
	if bits&(1<<63) != 0 {
		return ^bits
	}
	return bits | 1<<63
}

// AppendKeyOf appends to dst the key EncodeKey gives for the columns at
// ords of the tuple image b, read from the image in place: it boxes
// nothing. The whole image is validated first, so what Decode rejects,
// AppendKeyOf rejects.
func AppendKeyOf(dst []byte, s *Schema, b []byte, ords []int) ([]byte, error) {
	if end, err := colOffset(s, b, s.Len()); err != nil || end != len(b) {
		return dst, ErrCorrupt
	}
	for _, o := range ords {
		off, _ := colOffset(s, b, o)
		switch s.Columns[o].Type {
		case Int64:
			dst = binary.BigEndian.AppendUint64(dst, binary.BigEndian.Uint64(b[off:])^(1<<63))
		case Float64:
			dst = binary.BigEndian.AppendUint64(dst, floatKey(binary.BigEndian.Uint64(b[off:])))
		default: // String and Bytes: a 2-byte length, then the bytes
			dst = appendEscaped(dst, b[off+2:off+2+(int(b[off])<<8|int(b[off+1]))])
		}
	}
	return dst, nil
}

// colOffset returns the offset in image b at which column n starts (for
// n == s.Len(), where the image ends), checking every length before it.
func colOffset(s *Schema, b []byte, n int) (int, error) {
	off := 0
	for _, c := range s.Columns[:n] {
		end := off + 8
		if c.Type >= String {
			if len(b) < off+2 {
				return 0, ErrCorrupt
			}
			end = off + 2 + (int(b[off])<<8 | int(b[off+1]))
		}
		if len(b) < end {
			return 0, ErrCorrupt
		}
		off = end
	}
	return off, nil
}

// appendEscaped writes b with 0x00 -> 0x00 0xFF escaping and a 0x00 0x00
// terminator, preserving lexicographic order across segments.
func appendEscaped(dst, b []byte) []byte {
	for _, c := range b {
		if c == 0x00 {
			dst = append(dst, 0x00, 0xFF)
		} else {
			dst = append(dst, c)
		}
	}
	return append(dst, 0x00, 0x00)
}

// KeyOfColumns encodes the named columns of a tuple as a key.
func KeyOfColumns(s *Schema, t Tuple, cols ...string) []byte {
	vals := make([]interface{}, len(cols))
	for i, c := range cols {
		vals[i] = t[s.MustOrdinal(c)]
	}
	return EncodeKey(nil, vals...)
}
