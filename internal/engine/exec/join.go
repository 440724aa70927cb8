package exec

import (
	"bytes"
	"fmt"

	"remotedb/internal/engine/catalog"
	"remotedb/internal/engine/row"
	"remotedb/internal/engine/tempdb"
)

// HashJoin joins Build ⋈ Probe on equality of the named columns. If the
// build side exceeds the memory grant, both sides are partitioned to
// TempDB (grace hash join) and joined partition by partition — the spill
// the paper's Hash+Sort micro-benchmark (Figure 14) is built around.
type HashJoin struct {
	Build, Probe         Op
	BuildCols, ProbeCols []string
	Partitions           int // grace fan-out (default 8)
	// RemoteProbe changes the spill strategy: instead of partitioning
	// both sides to TempDB and rejoining partition by partition, the
	// build side spills into a bucketed remote hash table
	// (tempdb.HashTable) and the probe side streams through untouched,
	// probing buckets with one-sided reads — the probe side never
	// spills, and build memory stays at one block per bucket.
	RemoteProbe bool

	// Out lists the columns the join emits, build side first, each under
	// its output name. Nil emits every column of both sides under
	// JoinNames' names.
	Out []JoinCol

	schema  *row.Schema
	outBuf  []row.Tuple   // rows emit built, lent one at a time
	slab    []interface{} // outBuf's values
	outPos  int
	ht      map[string][]row.Tuple
	kept    keeper    // ht's rows
	prow    row.Tuple // probe row decoded from a partition file
	brow    row.Tuple // build row decoded from a bucket or partition file
	rtab    *tempdb.HashTable
	probing bool

	// spill state
	spilled     bool
	buildFiles  []*tempdb.SpillFile
	probeFiles  []*tempdb.SpillFile
	curPart     int
	partReader  *tempdb.Reader
	probeSchema *row.Schema
	buildSchema *row.Schema
	probeOrds   []int
	buildOrds   []int
	outBuild    []int  // build-side ordinals emitted
	outProbe    []int  // probe-side ordinals emitted
	key, key2   []byte // equality-key scratch
	img         []byte // spill-image scratch: Append and Put copy it
}

// JoinCol is one output column of a join: column Col of the build side
// (or, with Probe set, of the probe side), emitted under the name As.
type JoinCol struct {
	Probe bool
	Col   string
	As    string
}

// JoinNames returns the output names of a join that emits every column
// of both sides: duplicates are disambiguated with a _N suffix (chained
// joins can carry already-suffixed names, so probe until free).
func JoinNames(build, probe []string) []string {
	seen := make(map[string]bool, len(build)+len(probe))
	out := make([]string, 0, len(build)+len(probe))
	for _, base := range append(append([]string(nil), build...), probe...) {
		name := base
		for n := 1; seen[name]; n++ {
			name = fmt.Sprintf("%s_%d", base, n)
		}
		seen[name] = true
		out = append(out, name)
	}
	return out
}

// Schema returns the emitted columns, build side then probe side, and
// resolves them to the ordinals emit copies.
func (j *HashJoin) Schema() *row.Schema {
	if j.schema != nil {
		return j.schema
	}
	build, probe := j.Build.Schema(), j.Probe.Schema()
	out := j.Out
	if out == nil {
		for i, as := range JoinNames(build.Names(), probe.Names()) {
			if i < build.Len() {
				out = append(out, JoinCol{Col: build.Columns[i].Name, As: as})
			} else {
				out = append(out, JoinCol{Probe: true, Col: probe.Columns[i-build.Len()].Name, As: as})
			}
		}
	}
	j.outBuild, j.outProbe = nil, nil
	var cols []row.Column
	for _, oc := range out {
		side, ords := build, &j.outBuild
		if oc.Probe {
			side, ords = probe, &j.outProbe
		}
		o := side.MustOrdinal(oc.Col)
		*ords = append(*ords, o)
		cols = append(cols, row.Column{Name: oc.As, Type: side.Columns[o].Type})
	}
	j.schema = row.NewSchema(cols...)
	return j.schema
}

// appendKey appends the equality key of t's ords columns to dst.
func appendKey(dst []byte, t row.Tuple, ords []int) []byte {
	for _, o := range ords {
		dst = row.EncodeKey(dst, t[o])
	}
	return dst
}

// Open materializes the build side (and spills both sides if needed).
func (j *HashJoin) Open(c *Ctx) error {
	err := j.open(c)
	if err != nil {
		j.releaseSpill() // nobody closes an operator that failed to open
	}
	return err
}

func (j *HashJoin) open(c *Ctx) error {
	if j.Partitions <= 0 {
		j.Partitions = 8
	}
	// Reset run state so a join instantiated once can be re-opened.
	j.outBuf, j.outPos = nil, 0
	j.probing, j.spilled = false, false
	j.curPart, j.partReader = 0, nil
	j.buildFiles, j.probeFiles = nil, nil
	j.rtab = nil
	j.buildSchema = j.Build.Schema()
	j.probeSchema = j.Probe.Schema()
	j.buildOrds = nil
	for _, col := range j.BuildCols {
		j.buildOrds = append(j.buildOrds, j.buildSchema.MustOrdinal(col))
	}
	j.probeOrds = nil
	for _, col := range j.ProbeCols {
		j.probeOrds = append(j.probeOrds, j.probeSchema.MustOrdinal(col))
	}
	j.Schema() // resolves outBuild/outProbe

	// An input that opened is closed on every way out of here: nobody
	// closes an operator that failed to open, and a parallel input left
	// open keeps its producers parked. On failure the spill space goes
	// back first — shutting a parallel input down takes an I/O's time,
	// and a query waiting for TempDB space should not wait for that too.
	if err := j.Build.Open(c); err != nil {
		return err
	}
	err := j.readBuild(c)
	if err != nil {
		j.releaseSpill()
	}
	if cerr := j.Build.Close(c); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}

	if !j.spilled {
		j.probing = true
		return j.Probe.Open(c)
	}
	if j.rtab != nil {
		// Remote probing: the probe side streams straight through and
		// never touches TempDB.
		if err := j.rtab.Flush(c.P); err != nil {
			return err
		}
		j.probing = true
		return j.Probe.Open(c)
	}
	for _, f := range j.buildFiles {
		if err := f.Flush(c.P); err != nil {
			return err
		}
	}

	if err := j.Probe.Open(c); err != nil {
		return err
	}
	err = j.partitionProbe(c)
	if err != nil {
		j.releaseSpill()
	}
	if cerr := j.Probe.Close(c); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	for _, f := range j.probeFiles {
		if err := f.Flush(c.P); err != nil {
			return err
		}
	}
	j.curPart = -1
	return nil
}

// spillBuild routes one build row to its partition file (or, with
// RemoteProbe, its remote bucket).
func (j *HashJoin) spillBuild(c *Ctx, t row.Tuple) error {
	img, err := row.Encode(j.img[:0], j.buildSchema, t)
	if err != nil {
		return err
	}
	j.img = img
	j.key = appendKey(j.key[:0], t, j.buildOrds)
	if j.rtab != nil {
		return j.rtab.Put(c.P, partOf(j.key, j.rtab.Buckets()), img)
	}
	return j.buildFiles[partOf(j.key, j.Partitions)].Append(c.P, img)
}

// readBuild is phase 1: read the build side, hashing into memory until
// the grant is exhausted; on cut-over, dump the hash table to partitions
// and route the rest of the input straight to them (grace hash join).
func (j *HashJoin) readBuild(c *Ctx) error {
	j.ht = make(map[string][]row.Tuple)
	var used int64
	for {
		t, ok, err := j.Build.Next(c)
		if err != nil || !ok {
			return err
		}
		c.chargeCPU(c.CPU.PerHash)
		if !j.spilled {
			used += int64(row.EncodedSize(j.buildSchema, t)) + 48
			if c.Grant <= 0 || used <= c.Grant {
				j.key = appendKey(j.key[:0], t, j.buildOrds)
				k := string(j.key)
				j.ht[k] = append(j.ht[k], j.kept.keep(t))
				continue
			}
			// Cut over to the grace path (or, with RemoteProbe, to the
			// remote hash table).
			j.spilled = true
			c.SpilledParts++
			if j.RemoteProbe {
				j.rtab = c.Temp.NewHashTable("hj-remote", 0, 0)
			} else {
				j.buildFiles = make([]*tempdb.SpillFile, j.Partitions)
				j.probeFiles = make([]*tempdb.SpillFile, j.Partitions)
				for i := range j.buildFiles {
					j.buildFiles[i] = c.Temp.NewFile(fmt.Sprintf("hj-build-%d", i))
					j.probeFiles[i] = c.Temp.NewFile(fmt.Sprintf("hj-probe-%d", i))
				}
			}
			for _, rows := range j.ht {
				for _, bt := range rows {
					if err := j.spillBuild(c, bt); err != nil {
						return err
					}
				}
			}
			clear(j.ht) // its buckets serve the partitions
		}
		if err := j.spillBuild(c, t); err != nil {
			return err
		}
	}
}

// partitionProbe routes the probe side to its partition files.
func (j *HashJoin) partitionProbe(c *Ctx) error {
	for {
		t, ok, err := j.Probe.Next(c)
		if err != nil || !ok {
			return err
		}
		img, err := row.Encode(j.img[:0], j.probeSchema, t)
		if err != nil {
			return err
		}
		j.img = img
		c.chargeCPU(c.CPU.PerHash)
		j.key = appendKey(j.key[:0], t, j.probeOrds)
		if err := j.probeFiles[partOf(j.key, j.Partitions)].Append(c.P, img); err != nil {
			return err
		}
	}
}

func partOf(key []byte, n int) int {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * 16777619
	}
	return int(h % uint32(n))
}

// Next produces the next joined row.
func (j *HashJoin) Next(c *Ctx) (row.Tuple, bool, error) {
	for {
		if j.outPos < len(j.outBuf) {
			t := j.outBuf[j.outPos]
			j.outPos++
			return t, true, nil
		}
		j.outBuf, j.slab = j.outBuf[:0], j.slab[:0]
		j.outPos = 0

		if !j.spilled {
			// In-memory: stream the probe side.
			t, ok, err := j.Probe.Next(c)
			if err != nil {
				return nil, false, err
			}
			if !ok {
				return nil, false, nil
			}
			c.chargeCPU(c.CPU.PerHash)
			j.key = appendKey(j.key[:0], t, j.probeOrds)
			for _, b := range j.ht[string(j.key)] {
				j.outBuf = append(j.outBuf, j.emit(b, t))
			}
			continue
		}

		if j.rtab != nil {
			// Remote: one bucket-chain read per probe row; the bucket
			// bounds the candidates, the exact key filters them.
			t, ok, err := j.Probe.Next(c)
			if err != nil {
				return nil, false, err
			}
			if !ok {
				return nil, false, nil
			}
			j.key = appendKey(j.key[:0], t, j.probeOrds)
			c.chargeCPU(c.CPU.PerHash)
			err = j.rtab.Probe(c.P, partOf(j.key, j.rtab.Buckets()), func(img []byte) error {
				bt, err := row.DecodeCols(j.brow, j.buildSchema, img, nil)
				if err != nil {
					return err
				}
				j.brow = bt
				c.chargeCPU(c.CPU.PerRow)
				j.key2 = appendKey(j.key2[:0], bt, j.buildOrds)
				if bytes.Equal(j.key2, j.key) {
					j.outBuf = append(j.outBuf, j.emit(bt, t))
				}
				return nil
			})
			if err != nil {
				return nil, false, err
			}
			continue
		}

		// Grace: stream the current partition's probe file.
		if j.partReader != nil {
			img, ok, err := j.partReader.Next(c.P)
			if err != nil {
				return nil, false, err
			}
			if ok {
				if err := j.probeImage(c, img); err != nil {
					return nil, false, err
				}
				continue
			}
			j.partReader = nil
		}
		// Advance to the next partition: load its build side.
		j.curPart++
		if j.curPart >= j.Partitions {
			return nil, false, nil
		}
		clear(j.ht)
		br := j.buildFiles[j.curPart].NewReader()
		for {
			img, ok, err := br.Next(c.P)
			if err != nil {
				return nil, false, err
			}
			if !ok {
				break
			}
			t, err := row.DecodeCols(j.brow, j.buildSchema, img, nil)
			if err != nil {
				return nil, false, err
			}
			j.brow = t
			c.chargeCPU(c.CPU.PerHash + c.CPU.PerRow)
			j.key = appendKey(j.key[:0], t, j.buildOrds)
			k := string(j.key)
			j.ht[k] = append(j.ht[k], j.kept.keep(t))
		}
		j.partReader = j.probeFiles[j.curPart].NewReader()
	}
}

// probeImage joins one spilled probe row against the partition loaded
// in ht. Its key is read from the image, and the row is decoded only when
// the partition holds build rows under that key.
func (j *HashJoin) probeImage(c *Ctx, img []byte) error {
	key, err := row.AppendKeyOf(j.key[:0], j.probeSchema, img, j.probeOrds)
	if err != nil {
		return err
	}
	j.key = key
	c.chargeCPU(c.CPU.PerHash + c.CPU.PerRow)
	build := j.ht[string(j.key)]
	if len(build) == 0 {
		return nil
	}
	t, err := row.DecodeCols(j.prow, j.probeSchema, img, nil)
	if err != nil {
		return err
	}
	j.prow = t
	for _, b := range build {
		j.outBuf = append(j.outBuf, j.emit(b, t))
	}
	return nil
}

// emit builds one output row from a matching build/probe pair in the
// slab, which Next reuses once every row built in it has been lent.
func (j *HashJoin) emit(b, p row.Tuple) row.Tuple {
	n := len(j.slab)
	for _, o := range j.outBuild {
		j.slab = append(j.slab, b[o])
	}
	for _, o := range j.outProbe {
		j.slab = append(j.slab, p[o])
	}
	return j.slab[n:len(j.slab):len(j.slab)]
}

// Close releases join state (recycling any spill extents).
func (j *HashJoin) Close(c *Ctx) error {
	j.ht = nil
	j.outBuf, j.slab = nil, nil
	remote := j.rtab != nil
	j.releaseSpill()
	if remote || !j.spilled {
		return j.Probe.Close(c)
	}
	return nil
}

// releaseSpill gives the join's TempDB space back.
func (j *HashJoin) releaseSpill() {
	for _, f := range j.buildFiles {
		f.Release()
	}
	for _, f := range j.probeFiles {
		f.Release()
	}
	j.buildFiles, j.probeFiles = nil, nil
	if j.rtab != nil {
		j.rtab.Release()
		j.rtab = nil
	}
}

// Spilled reports whether the join went through TempDB.
func (j *HashJoin) Spilled() bool { return j.spilled }

// IndexNestedLoopJoin probes an index of the inner table for every outer
// row — the plan whose crossover against HashJoin Figure 15b sweeps.
type IndexNestedLoopJoin struct {
	Outer     Op
	OuterCols []string       // equality columns on the outer side
	Inner     *catalog.Index // index on the inner table over the same columns
	Fetch     bool           // look up full inner rows (vs index-only PK)
	InnerCols []string       // inner-row columns to fetch, in schema order (nil = all)

	schema    *row.Schema
	outerOrds []int
	innerOrds []int
	buf       []row.Tuple
	pos       int
}

// Schema returns outer columns followed by the fetched inner columns.
func (j *IndexNestedLoopJoin) Schema() *row.Schema {
	if j.schema == nil {
		var cols []row.Column
		cols = append(cols, j.Outer.Schema().Columns...)
		seen := make(map[string]bool)
		for _, c := range cols {
			seen[c.Name] = true
		}
		for _, c := range projected(j.Inner.Table.Schema, j.InnerCols).Columns {
			if seen[c.Name] {
				c.Name = c.Name + "_inner"
			}
			cols = append(cols, c)
		}
		j.schema = row.NewSchema(cols...)
	}
	return j.schema
}

// Open opens the outer side.
func (j *IndexNestedLoopJoin) Open(c *Ctx) error {
	j.outerOrds = nil
	for _, col := range j.OuterCols {
		j.outerOrds = append(j.outerOrds, j.Outer.Schema().MustOrdinal(col))
	}
	var err error
	if j.innerOrds, err = colOrds(j.Inner.Table.Schema, j.InnerCols); err != nil {
		return err
	}
	return j.Outer.Open(c)
}

// Next produces the next joined row.
func (j *IndexNestedLoopJoin) Next(c *Ctx) (row.Tuple, bool, error) {
	for {
		if j.pos < len(j.buf) {
			t := j.buf[j.pos]
			j.pos++
			return t, true, nil
		}
		j.buf = j.buf[:0]
		j.pos = 0
		outer, ok, err := j.Outer.Next(c)
		if err != nil || !ok {
			return nil, false, err
		}
		vals := make([]interface{}, len(j.outerOrds))
		for i, o := range j.outerOrds {
			vals[i] = outer[o]
		}
		from := row.EncodeKey(nil, vals...)
		to := append(append([]byte(nil), from...), 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF)
		pks, err := j.Inner.SeekRange(c.P, from, to, 0)
		if err != nil {
			return nil, false, err
		}
		for _, pk := range pks {
			c.chargeCPU(c.CPU.PerRow)
			inner, err := j.Inner.Table.LookupRow(c.P, pk, j.innerOrds)
			if err != nil {
				return nil, false, err
			}
			j.buf = append(j.buf, concat(outer, inner))
		}
	}
}

func concat(a, b row.Tuple) row.Tuple {
	out := make(row.Tuple, 0, len(a)+len(b))
	out = append(out, a...)
	out = append(out, b...)
	return out
}

// Close closes the outer side.
func (j *IndexNestedLoopJoin) Close(c *Ctx) error { return j.Outer.Close(c) }
