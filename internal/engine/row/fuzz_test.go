package row

import (
	"bytes"
	"math"
	"testing"
)

// tpchSchemas are the column types of the TPC-H tables the workload
// loads (internal/workload/tpch), whose rows a grace hash join spills
// and reads its keys back from.
func tpchSchemas() []*Schema {
	cols := func(types ...Type) *Schema {
		c := make([]Column, len(types))
		for i, t := range types {
			c[i] = Column{Name: string(rune('a' + i)), Type: t}
		}
		return NewSchema(c...)
	}
	I, F, S := Int64, Float64, String
	return []*Schema{
		cols(I, S),                // region
		cols(I, S, I),             // nation
		cols(I, S, I, F),          // supplier
		cols(I, S, I, F, S),       // customer
		cols(I, S, S, S, I, S, F), // part
		cols(I, I, I, F),          // partsupp
		cols(I, I, S, F, I, S),    // orders
		cols(I, I, I, I, F, F, F, F, S, S, I, I, S), // lineitem
	}
}

// keyOrds lists the columns mask picks, in schema order or, with the
// mask's top bit set, reversed: a join's key columns need not ascend.
func keyOrds(s *Schema, mask uint16) []int {
	var ords []int
	for i := 0; i < s.Len() && i < 15; i++ {
		if mask&(1<<i) != 0 {
			ords = append(ords, i)
		}
	}
	if mask&(1<<15) != 0 {
		for i, j := 0, len(ords)-1; i < j; i, j = i+1, j-1 {
			ords[i], ords[j] = ords[j], ords[i]
		}
	}
	return ords
}

// FuzzAppendKeyOf reads keys out of arbitrary images: AppendKeyOf accepts
// exactly the images DecodeCols accepts, and then gives the bytes
// EncodeKey gives for the decoded key columns. Neither panics.
func FuzzAppendKeyOf(f *testing.F) {
	schemas := tpchSchemas()
	for i, s := range schemas {
		t := make(Tuple, s.Len())
		for c, col := range s.Columns {
			switch col.Type {
			case Int64:
				t[c] = int64(c*1_000_003 - 7)
			case Float64:
				t[c] = []float64{-0.0, 17.25, -999.5, math.Inf(-1), math.NaN()}[c%5]
			case String:
				t[c] = string([]byte{'k', 0x00, byte(c), 0xFF})[:c%5]
			}
		}
		img, err := Encode(nil, s, t)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(i), uint16(1), img)
		f.Add(uint8(i), uint16(0x8000|0x7FFF), img)
		f.Add(uint8(i), uint16(3), img[:len(img)-1])
		f.Add(uint8(i), uint16(2), append(img, 0))
	}
	f.Fuzz(func(t *testing.T, which uint8, mask uint16, img []byte) {
		s := schemas[int(which)%len(schemas)]
		ords := keyOrds(s, mask)
		key, kerr := AppendKeyOf([]byte("prefix"), s, img, ords)
		tup, derr := DecodeCols(nil, s, img, nil)
		if (kerr == nil) != (derr == nil) {
			t.Fatalf("AppendKeyOf: %v, DecodeCols: %v", kerr, derr)
		}
		if derr != nil {
			return
		}
		vals := make([]interface{}, len(ords))
		for i, o := range ords {
			vals[i] = tup[o]
		}
		if want := EncodeKey([]byte("prefix"), vals...); !bytes.Equal(key, want) {
			t.Fatalf("key of columns %v: %x, EncodeKey of %v gives %x", ords, key, vals, want)
		}
	})
}

// A key read from the image allocates nothing.
func TestAppendKeyOfAllocatesNothing(t *testing.T) {
	s := tpchSchemas()[7]
	img, err := Encode(nil, s, Tuple{int64(1), int64(2), int64(3), int64(4), 1.0, 2.0, 0.1, 0.2, "N", "O", int64(9), int64(10), "TRUCK"})
	if err != nil {
		t.Fatal(err)
	}
	ords, key := []int{0, 12}, make([]byte, 0, 64)
	if n := testing.AllocsPerRun(100, func() { key, _ = AppendKeyOf(key[:0], s, img, ords) }); n != 0 {
		t.Errorf("AppendKeyOf allocated %.0f times", n)
	}
}
