package row

import (
	"bytes"
	"math"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func testSchema() *Schema {
	return NewSchema(
		Column{"id", Int64},
		Column{"balance", Float64},
		Column{"name", String},
		Column{"blob", Bytes},
	)
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	s := testSchema()
	in := Tuple{int64(-42), 3.25, "hello", []byte{1, 2, 3}}
	b, err := Encode(nil, s, in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Decode(s, b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip: %v != %v", in, out)
	}
	if len(b) != EncodedSize(s, in) {
		t.Fatalf("EncodedSize = %d, actual %d", EncodedSize(s, in), len(b))
	}
	// The tuple shares nothing with the image: scans and spill readers
	// decode out of buffers they overwrite next.
	for i := range b {
		b[i] = 0xEE
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("tuple changed with its image: %v", out)
	}
}

func TestEncodeTypeMismatch(t *testing.T) {
	s := testSchema()
	if _, err := Encode(nil, s, Tuple{"oops", 1.0, "x", []byte{}}); err == nil {
		t.Fatal("wrong type accepted")
	}
	if _, err := Encode(nil, s, Tuple{int64(1)}); err == nil {
		t.Fatal("wrong arity accepted")
	}
}

func TestDecodeCorrupt(t *testing.T) {
	s := testSchema()
	good, _ := Encode(nil, s, Tuple{int64(1), 2.0, "abc", []byte{9}})
	for _, cut := range []int{1, 8, 17, len(good) - 1} {
		if _, err := Decode(s, good[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	if _, err := Decode(s, append(good, 0)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
}

func TestSchemaOrdinalsAndProject(t *testing.T) {
	s := testSchema()
	if s.Ordinal("name") != 2 || s.Ordinal("nope") != -1 {
		t.Fatal("ordinal lookup broken")
	}
	p := s.Project("name", "id")
	if p.Len() != 2 || p.Columns[0].Name != "name" || p.Columns[1].Type != Int64 {
		t.Fatal("projection broken")
	}
}

// Property: Encode/Decode round-trips arbitrary tuples.
func TestRoundTripProperty(t *testing.T) {
	s := NewSchema(Column{"a", Int64}, Column{"b", Float64}, Column{"c", String})
	f := func(a int64, b float64, c string) bool {
		if math.IsNaN(b) {
			return true
		}
		if len(c) > 1000 {
			c = c[:1000]
		}
		in := Tuple{a, b, c}
		enc, err := Encode(nil, s, in)
		if err != nil {
			return false
		}
		out, err := Decode(s, enc)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(in, out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: int64 key encoding preserves order.
func TestKeyOrderInt64Property(t *testing.T) {
	f := func(a, b int64) bool {
		ka := EncodeKey(nil, a)
		kb := EncodeKey(nil, b)
		cmp := bytes.Compare(ka, kb)
		switch {
		case a < b:
			return cmp < 0
		case a > b:
			return cmp > 0
		default:
			return cmp == 0
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// Property: float64 key encoding preserves order (non-NaN).
func TestKeyOrderFloat64Property(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		ka := EncodeKey(nil, a)
		kb := EncodeKey(nil, b)
		cmp := bytes.Compare(ka, kb)
		switch {
		case a < b:
			return cmp < 0
		case a > b:
			return cmp > 0
		default:
			return cmp == 0
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// Property: string key encoding preserves order, including embedded NULs.
func TestKeyOrderStringProperty(t *testing.T) {
	f := func(a, b string) bool {
		ka := EncodeKey(nil, a)
		kb := EncodeKey(nil, b)
		cmp := bytes.Compare(ka, kb)
		want := 0
		if a < b {
			want = -1
		} else if a > b {
			want = 1
		}
		return sign(cmp) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func sign(x int) int {
	if x < 0 {
		return -1
	}
	if x > 0 {
		return 1
	}
	return 0
}

// Composite keys: (a, b) sorts like sorting on a then b, even when string
// segments are prefixes of one another.
func TestCompositeKeyOrder(t *testing.T) {
	type pair struct {
		s string
		n int64
	}
	pairs := []pair{{"a", 5}, {"a", -1}, {"ab", 0}, {"a\x00b", 2}, {"", 9}, {"a", 5}}
	keys := make([][]byte, len(pairs))
	for i, pr := range pairs {
		keys[i] = EncodeKey(nil, pr.s, pr.n)
	}
	idx := []int{0, 1, 2, 3, 4, 5}
	sort.Slice(idx, func(i, j int) bool { return bytes.Compare(keys[idx[i]], keys[idx[j]]) < 0 })
	sorted := make([]pair, len(idx))
	for i, j := range idx {
		sorted[i] = pairs[j]
	}
	want := []pair{{"", 9}, {"a", -1}, {"a", 5}, {"a", 5}, {"a\x00b", 2}, {"ab", 0}}
	if !reflect.DeepEqual(sorted, want) {
		t.Fatalf("composite order = %v, want %v", sorted, want)
	}
}

func TestKeyOfColumns(t *testing.T) {
	s := testSchema()
	tp := Tuple{int64(7), 1.5, "abc", []byte{1}}
	k1 := KeyOfColumns(s, tp, "name", "id")
	k2 := EncodeKey(nil, "abc", int64(7))
	if !bytes.Equal(k1, k2) {
		t.Fatal("KeyOfColumns disagrees with EncodeKey")
	}
}

func TestDecodeColumnMatchesDecode(t *testing.T) {
	s := testSchema()
	in := Tuple{int64(-42), 3.25, "hello", []byte{1, 2, 3}}
	b, _ := Encode(nil, s, in)
	for i := range in {
		got, err := DecodeColumn(s, b, i)
		if err != nil {
			t.Fatalf("col %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, in[i]) {
			t.Fatalf("col %d = %v, want %v", i, got, in[i])
		}
	}
	if _, err := DecodeColumn(s, b[:5], 3); err == nil {
		t.Fatal("truncated image accepted")
	}
}

// TestDecodeColsProperty: for random tuples and every subset of the
// columns, the set decoder returns Decode's values at those ordinals,
// also into a tuple that held the last subset's values, and it rejects
// every truncation and every overlong image that Decode rejects —
// skipped columns are still walked.
func TestDecodeColsProperty(t *testing.T) {
	s := testSchema()
	var dst Tuple
	f := func(id int64, bal float64, name string, blob []byte) bool {
		if len(name) > 1000 || len(blob) > 1000 {
			return true
		}
		if blob == nil {
			blob = []byte{}
		}
		b, err := Encode(nil, s, Tuple{id, bal, name, blob})
		if err != nil {
			return false
		}
		full, err := Decode(s, b)
		if err != nil {
			return false
		}
		for mask := 0; mask < 1<<s.Len(); mask++ {
			ords := []int{}
			var want Tuple
			for o := 0; o < s.Len(); o++ {
				if mask&(1<<o) != 0 {
					ords = append(ords, o)
					want = append(want, full[o])
				}
			}
			got, err := DecodeCols(dst, s, b, ords)
			if err != nil || len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
				t.Logf("subset %v: got %v (%v), want %v", ords, got, err, want)
				return false
			}
			dst = got
			for cut := 0; cut < len(b); cut++ {
				if _, derr := Decode(s, b[:cut]); derr == nil {
					continue // a shorter image that is itself valid
				}
				if _, err := DecodeCols(nil, s, b[:cut], ords); err == nil {
					t.Logf("subset %v accepted the image cut to %d of %d bytes", ords, cut, len(b))
					return false
				}
			}
			if _, err := DecodeCols(nil, s, append(b[:len(b):len(b)], 0), ords); err == nil {
				t.Logf("subset %v accepted a trailing byte", ords)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	// A list that is not ascending ordinals of the schema is refused,
	// not half-filled.
	b, _ := Encode(nil, s, Tuple{int64(1), 2.0, "x", []byte{3}})
	for _, ords := range [][]int{{1, 0}, {0, 0}, {4}, {-1}} {
		if _, err := DecodeCols(nil, s, b, ords); err == nil {
			t.Errorf("ordinals %v accepted", ords)
		}
	}
}

// TestDecodeColsReusesDst: decoding into a tuple that already holds the
// image's values reuses its storage and keeps its boxed values, so only
// the Bytes copy allocates; a value that differs only in its float bits
// or in its type is replaced.
func TestDecodeColsReusesDst(t *testing.T) {
	s := testSchema()
	b, _ := Encode(nil, s, Tuple{int64(1 << 40), math.Copysign(0, -1), "name", []byte{7}})
	dst, err := DecodeCols(nil, s, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	fixed := []int{0, 1, 2}
	narrow, _ := DecodeCols(nil, s, b, fixed)
	allocs := testing.AllocsPerRun(100, func() {
		again, err := DecodeCols(narrow, s, b, fixed)
		if err != nil || &again[0] != &narrow[0] {
			t.Fatalf("decode into a large enough tuple moved it (%v)", err)
		}
	})
	if allocs != 0 {
		t.Errorf("re-decoding equal Int64, Float64 and String values allocates %.0f times, want 0", allocs)
	}
	// +0 equals -0 but has other bits; a string "1099511627776" is not
	// the int64; a fresh Bytes copy never aliases the old one.
	old := dst[3].([]byte)
	dst[0], dst[1], dst[2] = "1099511627776", 0.0, int64(0)
	got, err := DecodeCols(dst, s, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != any(int64(1<<40)) || !math.Signbit(got[1].(float64)) || got[2] != any("name") {
		t.Errorf("reused tuple decoded as %v", got)
	}
	if nb := got[3].([]byte); &nb[0] == &old[0] {
		t.Error("Bytes value reused, want a fresh copy")
	}
}
