package main

import (
	"bytes"
	_ "embed"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"
)

// newRand returns one of the benchmark's own PRNGs. The seed given on
// the command line feeds these (keys, op mix, offsets) and the kernel;
// the benchmark never draws from a proc's p.Rand().
func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// client is one closed-loop client: it issues its next op only when the
// previous one has returned.
type client struct {
	id  int
	rng *rand.Rand
	ops int // ops issued in the current phase

	buf   []byte // fileapi_mix: I/O buffer
	vec   []Vec
	order []int // tpch_streams: the current pass's query order
}

// workload is one set of inputs. Sizes are fixed per workload; README.md
// gives each size relative to the caches beneath it.
type workload interface {
	params() params
	// load fills the bed and warms it; it is the timed part of set-up
	// after bed assembly.
	load(p *Proc, r *run) error
	// op runs one operation, checks its output, and returns its kind.
	op(p *Proc, r *run, c *client) (kind string, err error)
	// verify runs after the measured phases, untimed.
	verify(p *Proc, r *run) error
}

// params are a workload's constants.
type params struct {
	bed     bedSpec
	clients int
	// passLen is how many ops a client runs between two looks at the
	// clock: 1 for the window workloads, the query list's length for
	// tpch_streams, whose streams always finish the list they started.
	passLen int
	tailPct float64 // the percentile reported as sim_lat_tail_us
	// fixedUnit converts -fixed N into fixed work: a virtual window for
	// the window workloads; 0 for tpch_streams, where N counts passes per
	// stream.
	fixedUnit time.Duration
}

func newWorkload(cfg config) (workload, error) {
	switch cfg.workload {
	case "rangescan_ro":
		return &rangescan{}, nil
	case "rangescan_rw":
		return &rangescan{updateFraction: 0.2}, nil
	case "fileapi_mix":
		return &fileapi{breakOracleAt: cfg.breakOracleAt}, nil
	case "tpch_streams":
		return &tpchStreams{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", cfg.workload, workloadNames)
}

var workloadNames = []string{"rangescan_ro", "rangescan_rw", "fileapi_mix", "tpch_streams"}

// ---- rangescan_ro, rangescan_rw (paper Fig 9/10 and Fig 7/8) ----------

const (
	rsRows     = 250000 // Customer rows: 63 MB of pages, 4x the local pool
	rsRange    = 100    // keys per query
	rsQueryCPU = 700 * time.Microsecond
)

type rangescan struct {
	updateFraction float64
	updated        []int32 // row updates issued, per key
}

func (w *rangescan) params() params {
	return params{
		bed:     bedSpec{localBytes: 16 << 20, bpextBytes: 64 << 20, tempBytes: 8 << 20, donors: 1, mrBytes: 8 << 20},
		clients: 80, passLen: 1, tailPct: 0.99, fixedUnit: time.Millisecond,
	}
}

func (w *rangescan) load(p *Proc, r *run) error {
	if err := r.bed.loadCustomer(p, rsRows); err != nil {
		return err
	}
	if err := r.bed.flush(p); err != nil {
		return err
	}
	w.updated = make([]int32, rsRows)
	// Warm-up: one pass over the table pushes every page through the pool
	// into the extension, then the clients run until the pool holds what
	// random range scans keep there. Updates need longer: dirty pages and
	// the log take a few hundred virtual milliseconds to build up.
	if _, err := r.bed.verifyCustomer(p, w.updated); err != nil {
		return err
	}
	warm := 60 * time.Millisecond
	if w.updateFraction > 0 {
		warm = 300 * time.Millisecond
	}
	return r.warm(p, warm)
}

func (w *rangescan) op(p *Proc, r *run, c *client) (string, error) {
	start := c.rng.Int63n(rsRows - rsRange)
	update := w.updateFraction > 0 && c.rng.Float64() < w.updateFraction
	kind := "op.scan"
	if update {
		kind = "op.update"
	}
	s := r.tr.begin(p, kind, 0)
	err := r.bed.rangeQuery(p, start, rsRange, update, rsQueryCPU, w.updated)
	r.tr.end(p, s)
	return kind, err
}

func (w *rangescan) verify(p *Proc, r *run) error {
	short, err := r.bed.verifyCustomer(p, w.updated)
	if err != nil {
		return err
	}
	var issued int64
	for _, n := range w.updated {
		issued += int64(n)
	}
	if issued > 0 {
		r.notef("row updates issued %d, lost to races between overlapping update queries %d (the engine has no row locks)", issued, short)
	}
	return nil
}

// ---- fileapi_mix (paper Table 2 API, Fig 3/4 territory) ---------------

const (
	faFileBytes = 64 << 20
	faPage      = 8192
	faVecLen    = 16
	faWindows   = 251 // distinct block contents
)

// fileapi drives the remote file API directly on the protected stack.
// Block content is a pure function of offset (a window of one random
// strip, stamped with the offset) and writers rewrite that same content,
// so every read can be checked byte for byte whatever the interleaving.
type fileapi struct {
	strip []byte
	// breakOracleAt makes the check of that read (counted from 1 after
	// set-up) expect other bytes; a test uses it to show that a violation
	// is counted.
	breakOracleAt int
	checks        int  // checks made since set-up finished
	loaded        bool // set-up has finished
}

func (w *fileapi) params() params {
	return params{
		bed:     bedSpec{rawBytes: faFileBytes, donors: 4, mrBytes: 8 << 20, protected: true},
		clients: 8, passLen: 1, tailPct: 0.99, fixedUnit: time.Millisecond,
	}
}

func (w *fileapi) content(off int64) []byte {
	i := (off / faPage) % faWindows * 8
	return w.strip[i : i+faPage]
}

func (w *fileapi) fill(b []byte, off int64) {
	copy(b, w.content(off))
	binary.LittleEndian.PutUint64(b, uint64(off))
}

func (w *fileapi) check(b []byte, off int64) error {
	if w.loaded {
		w.checks++
		if w.checks == w.breakOracleAt {
			off += faPage
		}
	}
	if binary.LittleEndian.Uint64(b) != uint64(off) || !bytes.Equal(b[8:], w.content(off)[8:]) {
		return fmt.Errorf("%w: block at %d holds other bytes than were written", errOracle, off)
	}
	return nil
}

func (w *fileapi) load(p *Proc, r *run) error {
	w.strip = make([]byte, faPage+faWindows*8)
	newRand(r.cfg.seed).Read(w.strip)
	// Write every block once: a framed block that was never written is
	// served as zeros without touching the wire.
	buf := make([]byte, faVecLen*faPage)
	vecs := make([]Vec, faVecLen)
	for off := int64(0); off < faFileBytes; off += int64(len(buf)) {
		for i := range vecs {
			o := off + int64(i)*faPage
			vecs[i] = Vec{Off: o, Buf: buf[i*faPage : (i+1)*faPage]}
			w.fill(vecs[i].Buf, o)
		}
		if err := r.bed.raw.WriteAtV(p, vecs); err != nil {
			return fmt.Errorf("fill: %w", err)
		}
	}
	// Warm-up: the hedging thresholds and donor health scores are learned
	// from the first reads.
	if err := r.warm(p, 50*time.Millisecond); err != nil {
		return err
	}
	w.loaded = true
	return nil
}

func (w *fileapi) op(p *Proc, r *run, c *client) (string, error) {
	if c.buf == nil {
		c.buf = make([]byte, faVecLen*faPage)
		c.vec = make([]Vec, faVecLen)
	}
	f := r.bed.raw
	randOff := func() int64 { return c.rng.Int63n(faFileBytes/faPage) * faPage }
	u := c.rng.Float64()
	var kind string
	var err error
	switch {
	case u < 0.6:
		kind = "op.read"
		off := randOff()
		s := r.tr.begin(p, kind, faPage)
		err = f.ReadAt(p, c.buf[:faPage], off)
		r.tr.end(p, s)
		if err == nil {
			err = w.check(c.buf[:faPage], off)
		}
	case u < 0.8:
		kind = "op.readv"
		for i := range c.vec {
			c.vec[i] = Vec{Off: randOff(), Buf: c.buf[i*faPage : (i+1)*faPage]}
		}
		s := r.tr.begin(p, kind, faVecLen*faPage)
		err = f.ReadAtV(p, c.vec)
		r.tr.end(p, s)
		for _, v := range c.vec {
			if err == nil {
				err = w.check(v.Buf, v.Off)
			}
		}
	default:
		kind = "op.write"
		off := randOff()
		w.fill(c.buf[:faPage], off)
		s := r.tr.begin(p, kind, faPage)
		err = f.WriteAt(p, c.buf[:faPage], off)
		r.tr.end(p, s)
	}
	return kind, err
}

func (w *fileapi) verify(p *Proc, r *run) error { return nil }

// ---- tpch_streams (paper Fig 18/19) ----------------------------------

//go:embed expected.json
var expectedJSON []byte

// tpchExpected holds the row count every execution of a query must
// return at the benchmark's scale factor.
type tpchExpected struct {
	SF   float64          `json:"sf"`
	Rows map[string]int64 `json:"rows"`
}

const tpchSF = 0.004

var (
	tpchQueries = []int{1, 3, 5, 6, 10, 12, 14, 18}
	tpchKinds   = func() map[int]string {
		m := map[int]string{}
		for _, q := range tpchQueries {
			m[q] = fmt.Sprintf("op.q%d", q)
		}
		return m
	}()
)

type tpchStreams struct {
	want map[int]int64
}

func (w *tpchStreams) params() params {
	return params{
		// TempDB: five streams x one spilled join x 16 partition files x
		// one 4 MB extent each. With less, queries fail with an untyped
		// "access beyond file size" (see README, findings).
		bed:     bedSpec{localBytes: 1 << 20, bpextBytes: 16 << 20, tempBytes: 320 << 20, grantBytes: 48 << 10, donors: 2, mrBytes: 16 << 20},
		clients: 5, passLen: len(tpchQueries), tailPct: 0.90,
	}
}

func (w *tpchStreams) load(p *Proc, r *run) error {
	var exp tpchExpected
	if err := json.Unmarshal(expectedJSON, &exp); err != nil {
		return fmt.Errorf("expected.json: %w", err)
	}
	if exp.SF != tpchSF {
		return fmt.Errorf("expected.json is for scale factor %v, the benchmark runs %v", exp.SF, tpchSF)
	}
	w.want = map[int]int64{}
	for _, q := range tpchQueries {
		n, ok := exp.Rows[fmt.Sprint(q)]
		if !ok {
			return fmt.Errorf("expected.json has no row count for query %d", q)
		}
		w.want[q] = n
	}
	if err := r.bed.loadTPCH(p, tpchSF); err != nil {
		return err
	}
	if err := r.bed.flush(p); err != nil {
		return err
	}
	// Warm pass: the paper measures warmed systems, and the plan cache
	// and the extension fill here.
	for _, q := range tpchQueries {
		if err := w.query(p, r, q); err != nil {
			return fmt.Errorf("warm pass: %w", err)
		}
	}
	return nil
}

func (w *tpchStreams) query(p *Proc, r *run, q int) error {
	rows, err := r.bed.runQuery(p, q)
	if err != nil {
		return fmt.Errorf("q%d: %w", q, err)
	}
	if rows != w.want[q] {
		return fmt.Errorf("%w: q%d returned %d rows, expected.json says %d", errOracle, q, rows, w.want[q])
	}
	return nil
}

func (w *tpchStreams) op(p *Proc, r *run, c *client) (string, error) {
	i := c.ops % len(tpchQueries)
	if i == 0 {
		// A new pass: this stream's PRNG picks the order.
		c.order = append(c.order[:0], tpchQueries...)
		c.rng.Shuffle(len(c.order), func(a, b int) { c.order[a], c.order[b] = c.order[b], c.order[a] })
	}
	q := c.order[i]
	kind := tpchKinds[q]
	s := r.tr.begin(p, kind, 0)
	err := w.query(p, r, q)
	r.tr.end(p, s)
	return kind, err
}

func (w *tpchStreams) verify(p *Proc, r *run) error { return nil }
