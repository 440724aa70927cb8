package page

import (
	"bytes"
	"slices"
	"testing"
	"testing/quick"
)

func freshPage(t Type) *Page {
	pg := Wrap(make([]byte, Size))
	pg.Init(7, t)
	return pg
}

func TestInitAndHeader(t *testing.T) {
	pg := freshPage(TypeHeap)
	if pg.PageNo() != 7 || pg.PageType() != TypeHeap || pg.NumSlots() != 0 {
		t.Fatal("header fields wrong after Init")
	}
	pg.SetLSN(99)
	pg.SetNext(123456789)
	if pg.LSN() != 99 || pg.Next() != 123456789 {
		t.Fatal("LSN/Next round trip failed")
	}
}

func TestInsertGet(t *testing.T) {
	pg := freshPage(TypeHeap)
	recs := [][]byte{[]byte("alpha"), []byte("beta"), []byte("gamma")}
	for i, r := range recs {
		slot, err := pg.Insert(r)
		if err != nil {
			t.Fatal(err)
		}
		if slot != i {
			t.Fatalf("slot = %d, want %d", slot, i)
		}
	}
	for i, r := range recs {
		got, err := pg.Get(i)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, r) {
			t.Fatalf("slot %d = %q, want %q", i, got, r)
		}
	}
}

func TestInsertUntilFull(t *testing.T) {
	pg := freshPage(TypeHeap)
	rec := make([]byte, 100)
	n := 0
	for {
		if _, err := pg.Insert(rec); err != nil {
			if err != ErrPageFull {
				t.Fatal(err)
			}
			break
		}
		n++
	}
	// 8192 - 32 header = 8160 usable; each record costs 104 bytes.
	if n < 75 || n > 80 {
		t.Fatalf("fit %d 100-byte records, expected ~78", n)
	}
	if pg.FreeSpace() >= 104 {
		t.Fatalf("free space %d should not fit another record", pg.FreeSpace())
	}
}

func TestDeleteAndLive(t *testing.T) {
	pg := freshPage(TypeHeap)
	pg.Insert([]byte("a"))
	pg.Insert([]byte("b"))
	pg.Insert([]byte("c"))
	if err := pg.Delete(1); err != nil {
		t.Fatal(err)
	}
	if pg.Live() != 2 {
		t.Fatalf("live = %d", pg.Live())
	}
	if _, err := pg.Get(1); err != ErrBadSlot {
		t.Fatalf("get deleted slot: %v", err)
	}
	if err := pg.Delete(1); err != ErrBadSlot {
		t.Fatalf("double delete: %v", err)
	}
	if err := pg.Delete(99); err != ErrBadSlot {
		t.Fatalf("delete out of range: %v", err)
	}
}

func TestUpdateInPlaceAndGrow(t *testing.T) {
	pg := freshPage(TypeHeap)
	pg.Insert([]byte("abcdef"))
	if err := pg.Update(0, []byte("xyz")); err != nil {
		t.Fatal(err)
	}
	got, _ := pg.Get(0)
	if string(got) != "xyz" {
		t.Fatalf("in-place update got %q", got)
	}
	if err := pg.Update(0, bytes.Repeat([]byte("L"), 500)); err != nil {
		t.Fatal(err)
	}
	got, _ = pg.Get(0)
	if len(got) != 500 || got[0] != 'L' {
		t.Fatalf("grown update got %d bytes", len(got))
	}
}

func TestCompactReclaimsSpace(t *testing.T) {
	pg := freshPage(TypeHeap)
	rec := make([]byte, 1000)
	for i := 0; i < 8; i++ {
		if _, err := pg.Insert(rec); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := pg.Insert(rec); err != ErrPageFull {
		t.Fatal("page should be full")
	}
	pg.Delete(0)
	pg.Delete(3)
	pg.SetLSN(42)
	pg.SetNext(77)
	pg.Compact()
	if pg.Live() != 6 || pg.NumSlots() != 6 {
		t.Fatalf("after compact: live=%d slots=%d", pg.Live(), pg.NumSlots())
	}
	if pg.LSN() != 42 || pg.Next() != 77 || pg.PageNo() != 7 {
		t.Fatal("compact lost header fields")
	}
	if _, err := pg.Insert(rec); err != nil {
		t.Fatalf("insert after compact: %v", err)
	}
}

func TestSealVerify(t *testing.T) {
	pg := freshPage(TypeBTreeLeaf)
	pg.Insert([]byte("payload"))
	pg.Seal()
	if err := pg.Verify(); err != nil {
		t.Fatal(err)
	}
	pg.Bytes()[5000] ^= 0xFF
	if err := pg.Verify(); err != ErrChecksum {
		t.Fatalf("corruption not detected: %v", err)
	}
}

// Property: any sequence of inserts below capacity round-trips.
func TestInsertRoundTripProperty(t *testing.T) {
	f := func(recs [][]byte) bool {
		pg := freshPage(TypeHeap)
		var kept [][]byte
		for _, r := range recs {
			if len(r) > 2000 {
				r = r[:2000]
			}
			if _, err := pg.Insert(r); err != nil {
				break
			}
			kept = append(kept, r)
		}
		for i, want := range kept {
			got, err := pg.Get(i)
			if err != nil || !bytes.Equal(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestWrapRejectsWrongSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Wrap accepted wrong-size buffer")
		}
	}()
	Wrap(make([]byte, 100))
}

// slotRecs returns every slot's record in slot order, dead ones included.
func slotRecs(pg *Page) []string {
	var out []string
	for i := 0; i < pg.NumSlots(); i++ {
		rec, _ := pg.Slot(i)
		out = append(out, string(rec))
	}
	return out
}

func TestInsertAtFrontMiddleEnd(t *testing.T) {
	pg := freshPage(TypeBTreeLeaf)
	for _, r := range []string{"b", "d"} {
		if _, err := pg.Insert([]byte(r)); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		at  int
		rec string
	}{{0, "a"}, {2, "c"}, {4, "e"}} {
		if err := pg.InsertAt(c.at, []byte(c.rec)); err != nil {
			t.Fatalf("InsertAt(%d): %v", c.at, err)
		}
	}
	want := []string{"a", "b", "c", "d", "e"}
	if got := slotRecs(pg); !slices.Equal(got, want) {
		t.Fatalf("slots = %q, want %q", got, want)
	}
	for i, w := range want {
		if got, err := pg.Get(i); err != nil || string(got) != w {
			t.Fatalf("Get(%d) = %q, %v; want %q", i, got, err, w)
		}
	}
}

// InsertAt appends the record bytes exactly as Insert does: the same
// records leave the same free space whatever slot each one takes.
func TestInsertAtFreeSpaceMatchesInsert(t *testing.T) {
	appended, placed := freshPage(TypeHeap), freshPage(TypeHeap)
	for i := 0; i < 50; i++ {
		rec := bytes.Repeat([]byte{byte(i)}, 1+i%17)
		if _, err := appended.Insert(rec); err != nil {
			t.Fatal(err)
		}
		if err := placed.InsertAt(i/2, rec); err != nil {
			t.Fatal(err)
		}
		if appended.FreeSpace() != placed.FreeSpace() {
			t.Fatalf("after %d records: free %d after Insert, %d after InsertAt", i+1, appended.FreeSpace(), placed.FreeSpace())
		}
	}
	big := make([]byte, placed.FreeSpace()+1)
	if err := placed.InsertAt(0, big); err != ErrPageFull {
		t.Fatalf("InsertAt of a record that does not fit: %v", err)
	}
	if _, err := appended.Insert(big); err != ErrPageFull {
		t.Fatalf("Insert of a record that does not fit: %v", err)
	}
}

func TestInsertAtRejectsOutOfRange(t *testing.T) {
	pg := freshPage(TypeHeap)
	pg.Insert([]byte("a"))
	for _, i := range []int{-1, 2, 99} {
		if err := pg.InsertAt(i, []byte("x")); err != ErrBadSlot {
			t.Fatalf("InsertAt(%d): %v, want ErrBadSlot", i, err)
		}
	}
	if pg.NumSlots() != 1 {
		t.Fatalf("a rejected InsertAt changed the page: %d slots", pg.NumSlots())
	}
}

// A dead slot keeps its place and its record until Compact, which drops
// it and keeps the order of the live slots.
func TestCompactPreservesSlotOrder(t *testing.T) {
	pg := freshPage(TypeBTreeLeaf)
	for _, r := range []string{"e", "a", "c"} {
		pg.Insert([]byte(r))
	}
	pg.InsertAt(2, []byte("b"))
	pg.InsertAt(4, []byte("d"))
	// Slots: e a b c d.
	if err := pg.Delete(2); err != nil {
		t.Fatal(err)
	}
	if rec, live := pg.Slot(2); live || string(rec) != "b" {
		t.Fatalf("dead slot 2 = %q live=%v, want its record \"b\" and dead", rec, live)
	}
	if err := pg.Update(3, []byte("cccc")); err != nil {
		t.Fatal(err)
	}
	pg.Compact()
	want := []string{"e", "a", "cccc", "d"}
	if got := slotRecs(pg); !slices.Equal(got, want) || pg.Live() != len(want) {
		t.Fatalf("after Compact slots = %q (live %d), want %q", got, pg.Live(), want)
	}
}
