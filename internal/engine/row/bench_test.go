package row

import "testing"

func benchSchema() *Schema {
	return NewSchema(
		Column{Name: "a", Type: Int64},
		Column{Name: "b", Type: Float64},
		Column{Name: "c", Type: String},
		Column{Name: "d", Type: Int64},
	)
}

func BenchmarkEncode(b *testing.B) {
	s := benchSchema()
	t := Tuple{int64(42), 3.25, "some string value", int64(7)}
	buf := make([]byte, 0, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if buf, err = Encode(buf[:0], s, t); err != nil {
			b.Fatal(err)
		}
	}
}

// lineitem is the shape the executor decodes most: TPC-H lineitem, 16
// columns of which 7 are strings.
func lineitem() (*Schema, []byte) {
	s := NewSchema(
		Column{Name: "orderkey", Type: Int64}, Column{Name: "partkey", Type: Int64},
		Column{Name: "suppkey", Type: Int64}, Column{Name: "linenumber", Type: Int64},
		Column{Name: "quantity", Type: Float64}, Column{Name: "extendedprice", Type: Float64},
		Column{Name: "discount", Type: Float64}, Column{Name: "tax", Type: Float64},
		Column{Name: "returnflag", Type: String}, Column{Name: "linestatus", Type: String},
		Column{Name: "shipdate", Type: String}, Column{Name: "commitdate", Type: String},
		Column{Name: "receiptdate", Type: String}, Column{Name: "shipinstruct", Type: String},
		Column{Name: "shipmode", Type: String}, Column{Name: "acctbal", Type: Float64},
	)
	enc, err := Encode(nil, s, Tuple{int64(1), int64(155190), int64(7706), int64(1),
		17.0, 21168.23, 0.04, 0.02, "N", "O", "1996-03-13", "1996-02-12", "1996-03-22",
		"DELIVER IN PERSON", "TRUCK", 711.56})
	if err != nil {
		panic(err)
	}
	return s, enc
}

var (
	sink      interface{}
	sinkTuple Tuple
)

func BenchmarkDecode(b *testing.B) {
	s, enc := lineitem()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, err := Decode(s, enc)
		if err != nil {
			b.Fatal(err)
		}
		sink = t
	}
}

// BenchmarkDecodeCols4of16 is the needed-column decode of a lineitem
// scan under an aggregate: four columns materialised, twelve stepped
// over.
func BenchmarkDecodeCols4of16(b *testing.B) {
	s, enc := lineitem()
	ords := []int{s.MustOrdinal("quantity"), s.MustOrdinal("extendedprice"), s.MustOrdinal("discount"), s.MustOrdinal("shipdate")}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, err := DecodeCols(nil, s, enc, ords)
		if err != nil {
			b.Fatal(err)
		}
		sinkTuple = t // a Tuple sink: boxing it into sink would count an allocation of the benchmark's own
	}
}

// BenchmarkDecodeColumn reads the last column, past every other one.
func BenchmarkDecodeColumn(b *testing.B) {
	s, enc := lineitem()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := DecodeColumn(s, enc, s.Len()-1)
		if err != nil {
			b.Fatal(err)
		}
		sink = v
	}
}

func BenchmarkEncodeKey(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = EncodeKey(nil, int64(i), "segment", 3.5)
	}
}
