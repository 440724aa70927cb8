// Package catalog maintains table and index metadata and implements the
// table abstraction: a clustered B+tree keyed on the primary key holding
// full rows, plus any number of secondary B+trees mapping secondary keys
// to primary keys (the structures DTA recommends in the paper's tuned
// TPC setups).
package catalog

import (
	"bytes"
	"errors"
	"fmt"
	"sort"

	"remotedb/internal/engine/btree"
	"remotedb/internal/engine/buffer"
	"remotedb/internal/engine/row"
	"remotedb/internal/rmem"
	"remotedb/internal/sim"
)

// Errors returned by catalog operations.
var (
	ErrTableExists = errors.New("catalog: table already exists")
	ErrNoTable     = errors.New("catalog: table does not exist")
	ErrNoIndex     = errors.New("catalog: index does not exist")
	ErrNotFound    = errors.New("catalog: row not found")
)

// Catalog is the schema registry for one database.
type Catalog struct {
	bp     *buffer.Pool
	tables map[string]*Table
}

// New creates an empty catalog over a buffer pool.
func New(bp *buffer.Pool) *Catalog {
	return &Catalog{bp: bp, tables: make(map[string]*Table)}
}

// Table is a clustered table with optional secondary indexes and,
// when pushdown is enabled, a remote pushable segment mirroring the
// rows (see PushSegment).
type Table struct {
	Name      string
	Schema    *row.Schema
	PK        []string
	Clustered *btree.Tree
	Secondary map[string]*Index
	Push      *PushSegment // nil unless a pushable mirror was built
}

// PushFile is the surface a pushable segment's backing file must offer:
// donor-side evaluated range reads plus a plain fetch path for the
// fetch-all placement. core.File implements it.
type PushFile interface {
	PushRead(p *sim.Proc, off, n int64, q *rmem.PushQuery) ([]byte, rmem.PushStats, error)
	ReadAt(p *sim.Proc, b []byte, off int64) error
	PushChunk() int
}

// PushSegment is a table's remote pushable mirror: the rows as a
// chunk-aligned, length-prefixed record log in PK order. Records never
// cross a Chunk boundary, so any chunk-aligned byte range evaluates in
// isolation — per-partition pushdown falls out of splitting [0, Bytes)
// at chunk boundaries.
type PushSegment struct {
	File  PushFile
	Rows  int64
	Bytes int64 // log bytes (including chunk padding)
	Chunk int
}

// SetPushSegment installs (or clears) the table's pushable mirror.
func (t *Table) SetPushSegment(seg *PushSegment) { t.Push = seg }

// Partition splits the segment into dop chunk-aligned byte ranges of
// near-equal size; fewer ranges return when the segment is small.
func (seg *PushSegment) Partition(dop int) [][2]int64 {
	if dop < 1 {
		dop = 1
	}
	if seg.Chunk <= 0 {
		// Unchunked log: records may cross any byte boundary, so the
		// only safe range is the whole segment.
		if seg.Bytes == 0 {
			return nil
		}
		return [][2]int64{{0, seg.Bytes}}
	}
	chunks := seg.Bytes / int64(seg.Chunk)
	if chunks < int64(dop) {
		dop = int(chunks)
		if dop < 1 {
			dop = 1
		}
	}
	per := (chunks + int64(dop) - 1) / int64(dop)
	var out [][2]int64
	for off := int64(0); off < seg.Bytes; off += per * int64(seg.Chunk) {
		end := off + per*int64(seg.Chunk)
		if end > seg.Bytes {
			end = seg.Bytes
		}
		out = append(out, [2]int64{off, end})
	}
	return out
}

// Index is a secondary index: key = indexed columns + PK (for uniqueness),
// value = the encoded PK key of the clustered tree.
type Index struct {
	Name  string
	Table *Table
	Cols  []string
	Tree  *btree.Tree
}

// CreateTable registers a table clustered on pk.
func (c *Catalog) CreateTable(p *sim.Proc, name string, schema *row.Schema, pk ...string) (*Table, error) {
	if _, dup := c.tables[name]; dup {
		return nil, ErrTableExists
	}
	if len(pk) == 0 {
		return nil, errors.New("catalog: table needs a primary key")
	}
	for _, col := range pk {
		if schema.Ordinal(col) < 0 {
			return nil, fmt.Errorf("catalog: pk column %q not in schema", col)
		}
	}
	tree, err := btree.New(p, c.bp, name+"/clustered")
	if err != nil {
		return nil, err
	}
	t := &Table{
		Name:      name,
		Schema:    schema,
		PK:        pk,
		Clustered: tree,
		Secondary: make(map[string]*Index),
	}
	c.tables[name] = t
	return t, nil
}

// Table returns a registered table.
func (c *Catalog) Table(name string) (*Table, error) {
	t, ok := c.tables[name]
	if !ok {
		return nil, ErrNoTable
	}
	return t, nil
}

// CreateIndex builds a secondary index over cols; existing rows are
// indexed immediately.
func (c *Catalog) CreateIndex(p *sim.Proc, idxName, tableName string, cols ...string) (*Index, error) {
	t, err := c.Table(tableName)
	if err != nil {
		return nil, err
	}
	if _, dup := t.Secondary[idxName]; dup {
		return nil, fmt.Errorf("catalog: index %q exists", idxName)
	}
	for _, col := range cols {
		if t.Schema.Ordinal(col) < 0 {
			return nil, fmt.Errorf("catalog: index column %q not in schema", col)
		}
	}
	tree, err := btree.New(p, c.bp, idxName)
	if err != nil {
		return nil, err
	}
	idx := &Index{Name: idxName, Table: t, Cols: cols, Tree: tree}
	t.Secondary[idxName] = idx

	// Backfill from existing rows.
	it, err := t.Clustered.Scan(p, nil)
	if err != nil {
		return nil, err
	}
	defer it.Close()
	var pairs []btree.Pair
	for {
		pair, ok, err := it.Next(p)
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		tuple, err := row.Decode(t.Schema, pair.Val)
		if err != nil {
			return nil, err
		}
		pairs = append(pairs, btree.Pair{Key: idx.keyFor(tuple, pair.Key), Val: append([]byte(nil), pair.Key...)})
	}
	if len(pairs) > 0 {
		// Entries arrive in PK order; sort by index key for bulk load.
		sortPairs(pairs)
		if err := tree.BulkLoad(p, pairs, 0.9); err != nil {
			return nil, err
		}
	}
	return idx, nil
}

// Index returns a secondary index by name.
func (t *Table) Index(name string) (*Index, error) {
	idx, ok := t.Secondary[name]
	if !ok {
		return nil, ErrNoIndex
	}
	return idx, nil
}

// PKKey encodes the primary key of a tuple.
func (t *Table) PKKey(tuple row.Tuple) []byte {
	return row.KeyOfColumns(t.Schema, tuple, t.PK...)
}

// keyFor builds the secondary-index key: indexed columns then the PK key
// (guaranteeing uniqueness for duplicate secondary values).
func (idx *Index) keyFor(tuple row.Tuple, pkKey []byte) []byte {
	k := row.KeyOfColumns(idx.Table.Schema, tuple, idx.Cols...)
	return append(k, pkKey...)
}

// Insert adds a row and maintains all secondary indexes.
func (t *Table) Insert(p *sim.Proc, tuple row.Tuple) error {
	img, err := row.Encode(nil, t.Schema, tuple)
	if err != nil {
		return err
	}
	pk := t.PKKey(tuple)
	if err := t.Clustered.Insert(p, pk, img); err != nil {
		return err
	}
	for _, idx := range t.Secondary {
		if err := idx.Tree.Insert(p, idx.keyFor(tuple, pk), pk); err != nil {
			return fmt.Errorf("catalog: index %s: %w", idx.Name, err)
		}
	}
	return nil
}

// Get fetches a row by primary key values.
func (t *Table) Get(p *sim.Proc, pkVals ...interface{}) (row.Tuple, error) {
	key := row.EncodeKey(nil, pkVals...)
	img, err := t.Clustered.Search(p, key)
	if err == btree.ErrNotFound {
		return nil, ErrNotFound
	}
	if err != nil {
		return nil, err
	}
	return row.Decode(t.Schema, img)
}

// Update replaces a row (matched by its primary key), maintaining
// secondary indexes whose columns changed.
func (t *Table) Update(p *sim.Proc, tuple row.Tuple) error {
	pk := t.PKKey(tuple)
	oldImg, err := t.Clustered.Search(p, pk)
	if err == btree.ErrNotFound {
		return ErrNotFound
	}
	if err != nil {
		return err
	}
	oldTuple, err := row.Decode(t.Schema, oldImg)
	if err != nil {
		return err
	}
	img, err := row.Encode(nil, t.Schema, tuple)
	if err != nil {
		return err
	}
	if err := t.Clustered.Update(p, pk, img); err != nil {
		return err
	}
	for _, idx := range t.Secondary {
		oldKey := idx.keyFor(oldTuple, pk)
		newKey := idx.keyFor(tuple, pk)
		if string(oldKey) == string(newKey) {
			continue
		}
		if err := idx.Tree.Delete(p, oldKey); err != nil && err != btree.ErrNotFound {
			return err
		}
		if err := idx.Tree.Put(p, newKey, pk); err != nil {
			return err
		}
	}
	return nil
}

// Delete removes a row by primary key values.
func (t *Table) Delete(p *sim.Proc, pkVals ...interface{}) error {
	key := row.EncodeKey(nil, pkVals...)
	img, err := t.Clustered.Search(p, key)
	if err == btree.ErrNotFound {
		return ErrNotFound
	}
	if err != nil {
		return err
	}
	tuple, err := row.Decode(t.Schema, img)
	if err != nil {
		return err
	}
	if err := t.Clustered.Delete(p, key); err != nil {
		return err
	}
	for _, idx := range t.Secondary {
		if err := idx.Tree.Delete(p, idx.keyFor(tuple, key)); err != nil && err != btree.ErrNotFound {
			return err
		}
	}
	return nil
}

// BulkLoad loads rows (sorted or not) into an empty table and its
// existing secondary indexes.
func (t *Table) BulkLoad(p *sim.Proc, tuples []row.Tuple) error {
	pairs := make([]btree.Pair, len(tuples))
	for i, tuple := range tuples {
		img, err := row.Encode(nil, t.Schema, tuple)
		if err != nil {
			return err
		}
		pairs[i] = btree.Pair{Key: t.PKKey(tuple), Val: img}
	}
	sortPairs(pairs)
	if err := t.Clustered.BulkLoad(p, pairs, 0.9); err != nil {
		return err
	}
	for _, idx := range t.Secondary {
		ipairs := make([]btree.Pair, len(tuples))
		for i, tuple := range tuples {
			pk := t.PKKey(tuple)
			ipairs[i] = btree.Pair{Key: idx.keyFor(tuple, pk), Val: pk}
		}
		sortPairs(ipairs)
		if err := idx.Tree.BulkLoad(p, ipairs, 0.9); err != nil {
			return err
		}
	}
	return nil
}

// ScanRange decodes rows with from <= pk < to.
func (t *Table) ScanRange(p *sim.Proc, from, to []byte, limit int) ([]row.Tuple, error) {
	pairs, err := t.Clustered.ScanRange(p, from, to, limit)
	if err != nil {
		return nil, err
	}
	out := make([]row.Tuple, len(pairs))
	for i, pair := range pairs {
		out[i], err = row.Decode(t.Schema, pair.Val)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// SeekRange returns the primary keys of rows whose indexed columns fall
// in [fromVals, toVals); lookup of the rows themselves is the caller's
// choice (index-only vs. lookup join).
func (idx *Index) SeekRange(p *sim.Proc, from, to []byte, limit int) ([][]byte, error) {
	pairs, err := idx.Tree.ScanRange(p, from, to, limit)
	if err != nil {
		return nil, err
	}
	out := make([][]byte, len(pairs))
	for i, pair := range pairs {
		out[i] = pair.Val
	}
	return out, nil
}

// LookupRow fetches the row for a clustered-tree key, materialising the
// columns at ords (ascending; nil = the full row).
func (t *Table) LookupRow(p *sim.Proc, pkKey []byte, ords []int) (row.Tuple, error) {
	img, err := t.Clustered.Search(p, pkKey)
	if err == btree.ErrNotFound {
		return nil, ErrNotFound
	}
	if err != nil {
		return nil, err
	}
	return row.DecodeCols(nil, t.Schema, img, ords)
}

func sortPairs(pairs []btree.Pair) {
	sort.Slice(pairs, func(i, j int) bool {
		return bytes.Compare(pairs[i].Key, pairs[j].Key) < 0
	})
}
