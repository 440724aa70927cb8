package main

// adapter.go is the only file of the benchmark that imports
// remotedb/internal/...: bed assembly, the calls the workloads make into
// each layer (wrapped in spans), counter snapshots, error classification
// and the probe entry points. A later change to a product API touches
// this one file.

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"remotedb/internal/broker"
	"remotedb/internal/broker/metastore"
	"remotedb/internal/cluster"
	"remotedb/internal/core"
	"remotedb/internal/engine"
	"remotedb/internal/engine/catalog"
	"remotedb/internal/engine/page"
	"remotedb/internal/engine/plan"
	"remotedb/internal/engine/row"
	"remotedb/internal/engine/txn"
	"remotedb/internal/fault"
	"remotedb/internal/rmem"
	"remotedb/internal/sim"
	"remotedb/internal/vfs"
	productwl "remotedb/internal/workload"
	"remotedb/internal/workload/tpch"
)

// The other files name simulator types through these aliases.
type (
	Proc       = sim.Proc
	VectorFile = vfs.VectorFile
	Vec        = vfs.Vec
)

// runSim runs fn as the root proc of a fresh kernel and returns once the
// event queue has drained. fn must close its bed before returning, or
// the background procs keep the queue alive up to the limit.
func runSim(seed int64, fn func(p *Proc) error) error {
	k := sim.New(seed)
	var err error
	k.Go("benchmark", func(p *sim.Proc) { err = fn(p) })
	k.Run(1000 * time.Hour)
	if k.Halted() {
		return errors.New("simulation hit its virtual-time limit: a proc never finished")
	}
	return err
}

// spawn starts a client proc on p's kernel.
func spawn(p *Proc, name string, fn func(p *Proc)) { p.Kernel().Go(name, fn) }

// waitGroup is the simulator's wait group (a sync.WaitGroup would block
// the one OS thread the kernel hands around).
type waitGroup = sim.WaitGroup

func newWaitGroup(p *Proc) *waitGroup { return sim.NewWaitGroup(p.Kernel()) }

// bedSpec sizes one bed. The design is always the paper's Custom: RDMA,
// synchronous completion, preregistered staging buffers.
type bedSpec struct {
	localBytes int64 // buffer pool; 0 = no engine (fileapi_mix)
	bpextBytes int64
	tempBytes  int64
	grantBytes int64 // per-query memory grant; 0 = engine default
	donors     int
	mrBytes    int
	// protected turns on what PRs 5-10 built: integrity frames,
	// replication 2, hedged reads, donor health checks.
	protected bool
	rawBytes  int64 // fileapi_mix: one file used through the Table 2 API
}

// bed is one assembled test bed.
type bed struct {
	tr   *tracer
	db   *cluster.Server
	mems []*cluster.Server
	brk  *broker.Cluster
	fs   *core.FS
	eng  *engine.Engine // nil when the spec has no engine
	raw  VectorFile     // decorated raw file, when the spec has one

	createSim time.Duration // virtual time of FS.Create + OpenConn for the bed's files

	customer *catalog.Table
	acctOrd  int
	tpch     *tpch.DB

	spilledParts, spilledRuns int64 // summed over runQuery calls
}

// newBed assembles a bed the way internal/exp.NewBed does for the
// Custom design, but with every engine file behind a span-recording
// decorator.
func newBed(p *Proc, spec bedSpec, tr *tracer) (*bed, error) {
	k := p.Kernel()
	b := &bed{tr: tr}
	b.db = cluster.NewServer(k, "db1", cluster.DefaultConfig())

	store := metastore.New(k, 10*time.Microsecond)
	b.brk = broker.NewCluster(p, store, 1, broker.DefaultConfig())
	repl := 1
	stripeCap := int64(spec.mrBytes)
	if spec.protected {
		repl = 2
		stripeCap = core.StripeCapacity(spec.mrBytes, 0)
	}
	var stripes int64
	for _, n := range []int64{spec.bpextBytes, spec.tempBytes, spec.rawBytes} {
		stripes += (n + stripeCap - 1) / stripeCap
	}
	// Spare MRs per donor: the probes lease a scratch file and one bare
	// MR on top of the workload's files.
	mrs := int((stripes*int64(repl)+int64(spec.donors)-1)/int64(spec.donors)) + 4
	for i := 0; i < spec.donors; i++ {
		m := cluster.NewServer(k, fmt.Sprintf("mem%d", i+1), cluster.DefaultConfig())
		b.mems = append(b.mems, m)
		if _, err := b.brk.AddProxy(p, m, spec.mrBytes, mrs); err != nil {
			return nil, fmt.Errorf("add donor: %w", err)
		}
	}
	client := rmem.NewClient(p, b.db, rmem.DefaultClientConfig())
	fsCfg := core.DefaultConfig()
	if spec.protected {
		fsCfg.Integrity = true
		fsCfg.Replication = repl
		fsCfg.Hedging = true
		fsCfg.HealthChecks = true
	}
	b.fs = core.NewFS(p, b.brk, client, fsCfg)

	create := func(role string, size int64) (VectorFile, error) {
		if size == 0 {
			return nil, nil
		}
		t0 := p.Now()
		f, err := b.fs.Create(p, role, size)
		if err != nil {
			return nil, fmt.Errorf("create %s: %w", role, err)
		}
		if err := f.OpenConn(p); err != nil {
			return nil, fmt.Errorf("open %s: %w", role, err)
		}
		b.createSim += p.Now() - t0
		return &tracedRemote{tracedFile: newTracedFile(f, role, tr), remoteState: f}, nil
	}
	var err error
	if b.raw, err = create("raw", spec.rawBytes); err != nil {
		return nil, err
	}
	if spec.localBytes == 0 {
		return b, nil
	}
	temp, err := create("temp", spec.tempBytes)
	if err != nil {
		return nil, err
	}
	bpext, err := create("bpext", spec.bpextBytes)
	if err != nil {
		return nil, err
	}
	ecfg := engine.DefaultConfig(int(spec.localBytes / page.Size))
	if spec.grantBytes > 0 {
		ecfg.Grant = spec.grantBytes
	}
	ecfg.BPExtSlots = int(spec.bpextBytes / page.Size)
	files := engine.Files{
		Data:  newTracedFile(vfs.NewDeviceFile("data", b.db.HDD), "data", tr),
		Log:   newTracedFile(vfs.NewDeviceFile("log", b.db.HDD), "log", tr),
		Temp:  temp,
		BPExt: bpext,
	}
	// No salvage callbacks are wired: the benchmark injects no faults and
	// leases auto-renew, so no stripe is ever re-leased.
	if b.eng, err = engine.New(p, b.db, files, ecfg); err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	return b, nil
}

// close stops the bed's background procs so the kernel's queue drains.
func (b *bed) close(p *Proc) {
	if b.eng != nil {
		b.eng.Shutdown()
	}
	b.brk.StopExpireLoop()
	b.fs.CloseAll(p)
}

// flush writes every dirty page back, as the paper's runs do after a load.
func (b *bed) flush(p *Proc) error { return b.eng.BP.FlushAll(p) }

// counters returns the cumulative public counters of every layer.
// Metrics are differences of two snapshots.
func (b *bed) counters() map[string]int64 {
	c := map[string]int64{
		"nic.rx":        b.db.NIC.BytesRecv,
		"nic.tx":        b.db.NIC.BytesSent,
		"cpu.db":        b.db.CPUBusyNanos(),
		"rmem.reads":    b.fs.Client.Reads,
		"rmem.writes":   b.fs.Client.Writes,
		"rmem.rt":       b.fs.Client.RoundTrips,
		"rmem.rbytes":   b.fs.Client.BytesRead,
		"rmem.wbytes":   b.fs.Client.BytesWrt,
		"rmem.waits":    b.fs.Client.StagingContention.Waits,
		"rmem.waitns":   int64(b.fs.Client.StagingContention.WaitTime),
		"core.hedged":   b.fs.HedgedReads,
		"core.wins":     b.fs.HedgeWins,
		"core.failover": b.fs.Failovers.N,
		"core.corrupt":  b.fs.Corruptions.N,
		"core.brown":    b.fs.Brownouts,
		"core.quar":     b.fs.Quarantines,
		"core.migr":     b.fs.ProactiveMigrations,
	}
	c["disk.reads"], c["disk.writes"], _, c["disk.wbytes"] = b.db.HDD.Stats()
	for _, m := range b.mems {
		c["cpu.donor"] += m.CPUBusyNanos()
	}
	for i := 0; i < b.brk.ShardCount(); i++ {
		c["broker.grants"] += b.brk.Shard(i).Grants
		c["broker.renewals"] += b.brk.Shard(i).Renewals
	}
	if b.eng == nil {
		return c
	}
	s := b.eng.BP.Stats
	c["buf.hits"], c["buf.exthits"], c["buf.diskreads"] = s.Hits, s.ExtHits, s.DiskReads
	c["buf.evictdirty"], c["buf.extwrites"], c["buf.writer"] = s.EvictDirty, s.ExtWrites, s.WriterIO
	c["buf.ra"], c["buf.rawaste"] = s.ReadAheadPages, s.ReadAheadWasted
	c["txn.appends"], c["txn.flushes"], c["txn.bytes"] = b.eng.Log.Appends, b.eng.Log.Flushes, b.eng.Log.BytesWrote
	c["plan.hits"], c["plan.misses"] = b.eng.Planner.Hits, b.eng.Planner.Misses
	c["temp.spilled"], c["temp.read"] = b.eng.Temp.BytesSpilled, b.eng.Temp.BytesRead
	c["exec.parts"], c["exec.runs"] = b.spilledParts, b.spilledRuns
	return c
}

// dbCores and nicBytesPerSec turn busy time and bytes into utilizations.
func (b *bed) dbCores() int            { return b.db.Cores() }
func (b *bed) nicBytesPerSec() float64 { return b.db.NIC.Config().PayloadBytesPerSec }

// faultClass names the taxonomy class of a failed op. "untyped" breaks
// the paper's Table 1 contract: every failure of the best-effort tier
// must be classifiable with errors.Is.
func faultClass(err error) string {
	switch {
	case errors.Is(err, errOracle):
		return "oracle"
	case errors.Is(err, fault.ErrCorrupt):
		return "corrupt"
	case errors.Is(err, fault.ErrSlow):
		return "slow"
	case errors.Is(err, fault.ErrUnavailable):
		return "unavailable"
	case errors.Is(err, fault.ErrRetryable), errors.Is(err, fault.ErrRevoked),
		errors.Is(err, fault.ErrNotFound), errors.Is(err, fault.ErrClosed):
		return "other_typed"
	}
	return "untyped"
}

// errOracle marks an op whose output the benchmark found wrong.
var errOracle = errors.New("oracle violation")

// ---- rangescan ------------------------------------------------------

// loadCustomer loads the paper's RangeScan table.
func (b *bed) loadCustomer(p *Proc, rows int) error {
	t, err := productwl.LoadCustomer(p, b.eng, rows)
	if err != nil {
		return fmt.Errorf("load customer: %w", err)
	}
	b.customer, b.acctOrd = t, t.Schema.MustOrdinal("acctbal")
	return nil
}

// acctbalUpdates returns how many +1 updates an acctbal value carries on
// top of what LoadCustomer stored for key, or -1 if it is not a whole
// non-negative number of them.
func acctbalUpdates(key int64, acctbal float64) int64 {
	d := acctbal - float64(key%10000)/100
	r := math.Round(d)
	if r < 0 || math.Abs(d-r) > 1e-6 {
		return -1
	}
	return int64(r)
}

// rangeQuery is workload.RangeScan.QueryOnce with the same CPU charges,
// a span around each layer call, and the oracle: exactly n contiguous
// keys from start, each acctbal a whole number of updates above its
// loaded value. updated[key] counts the row updates issued.
func (b *bed) rangeQuery(p *Proc, start int64, n int, update bool, queryCPU time.Duration, updated []int32) error {
	tr := b.tr
	s := tr.begin(p, "cluster.work", 0)
	b.eng.Server.Work(p, queryCPU)
	tr.end(p, s)

	from := row.EncodeKey(nil, start)
	to := row.EncodeKey(nil, start+int64(n))
	s = tr.begin(p, "btree.scanrange", 0)
	pairs, err := b.customer.Clustered.ScanRange(p, from, to, 0)
	tr.end(p, s)
	if err != nil {
		return err
	}
	if len(pairs) != n {
		return fmt.Errorf("%w: scan at %d returned %d keys, want %d", errOracle, start, len(pairs), n)
	}
	s = tr.begin(p, "row.decode", 0)
	var want []byte
	for i, pair := range pairs {
		key := start + int64(i)
		want = row.EncodeKey(want[:0], key)
		if !bytes.Equal(pair.Key, want) {
			tr.end(p, s)
			return fmt.Errorf("%w: scan at %d: key %d is not %d", errOracle, start, i, key)
		}
		v, err := row.DecodeColumn(b.customer.Schema, pair.Val, b.acctOrd)
		if err != nil {
			tr.end(p, s)
			return err
		}
		if acctbalUpdates(key, v.(float64)) < 0 {
			tr.end(p, s)
			return fmt.Errorf("%w: key %d: acctbal %v", errOracle, key, v)
		}
	}
	tr.end(p, s)

	var lastLSN uint64
	if update {
		for i, pair := range pairs {
			t, err := row.Decode(b.customer.Schema, pair.Val)
			if err != nil {
				return err
			}
			t[b.acctOrd] = t[b.acctOrd].(float64) + 1
			img, err := row.Encode(nil, b.customer.Schema, t)
			if err != nil {
				return err
			}
			lastLSN = b.eng.Log.Append(txn.RecUpdate, img[:32])
			s = tr.begin(p, "btree.update", 0)
			err = b.customer.Clustered.Update(p, pair.Key, img)
			tr.end(p, s)
			if err != nil {
				return err
			}
			updated[start+int64(i)]++
		}
	}
	s = tr.begin(p, "cluster.work", 0)
	b.eng.Server.Work(p, time.Duration(n)*300*time.Nanosecond)
	tr.end(p, s)
	if lastLSN > 0 {
		lastLSN = b.eng.Log.Append(txn.RecCommit, nil)
		s = tr.begin(p, "txn.commit", 0)
		err = b.eng.Log.Commit(p, lastLSN)
		tr.end(p, s)
		if err != nil {
			return err
		}
	}
	return nil
}

// verifyCustomer scans the whole table after the run. The engine has no
// row locks, so two overlapping update queries can lose an update: a row
// may carry fewer updates than were issued (the shortfall is returned),
// never more, and never a fractional one.
func (b *bed) verifyCustomer(p *Proc, updated []int32) (shortfall int64, err error) {
	it, err := b.customer.Clustered.Scan(p, nil)
	if err != nil {
		return 0, err
	}
	for key := int64(0); ; key++ {
		pair, ok, err := it.Next(p)
		if err != nil {
			return 0, err
		}
		if !ok {
			if key != int64(len(updated)) {
				return 0, fmt.Errorf("%w: table has %d rows, want %d", errOracle, key, len(updated))
			}
			return shortfall, nil
		}
		v, err := row.DecodeColumn(b.customer.Schema, pair.Val, b.acctOrd)
		if err != nil {
			return 0, err
		}
		got := acctbalUpdates(key, v.(float64))
		if got < 0 || got > int64(updated[key]) {
			return 0, fmt.Errorf("%w: key %d carries %d updates (acctbal %v), %d were issued", errOracle, key, got, v, updated[key])
		}
		shortfall += int64(updated[key]) - got
	}
}

// ---- tpch -----------------------------------------------------------

func (b *bed) loadTPCH(p *Proc, sf float64) error {
	db, err := tpch.Load(p, b.eng, sf)
	if err != nil {
		return fmt.Errorf("load tpch: %w", err)
	}
	b.tpch = db
	return nil
}

// runQuery executes one TPC-H query and returns its row count.
func (b *bed) runQuery(p *Proc, id int) (rows int64, err error) {
	ctx := b.eng.NewCtx(p)
	err = tpch.QueryByID(id).Run(ctx, b.tpch)
	b.spilledParts += ctx.SpilledParts
	b.spilledRuns += ctx.SpilledRuns
	return ctx.RowsOut, err
}

// ---- probes ---------------------------------------------------------
//
// Each probe times one layer's public entry point from a single proc on
// the workload's warm bed, after the clients have stopped. sim_us is
// virtual time, host_ns wall time on an otherwise idle simulator.

// timeHost runs fn n times and returns wall ns, mallocs and allocated
// bytes per call.
func timeHost(n int, fn func()) (ns, mallocs, bytes float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	el := time.Since(t0)
	runtime.ReadMemStats(&m1)
	f := float64(n)
	return float64(el.Nanoseconds()) / f, float64(m1.Mallocs-m0.Mallocs) / f, float64(m1.TotalAlloc-m0.TotalAlloc) / f
}

// medianSimUs runs fn n times and returns the median virtual µs of a call.
func medianSimUs(p *Proc, n int, fn func()) float64 {
	d := make([]int64, n)
	for i := range d {
		t0 := p.Now()
		fn()
		d[i] = int64(p.Now() - t0)
	}
	slices.Sort(d)
	return float64(percentile(d, 0.5)) / 1e3
}

// probes fills out with the probe metrics and returns the first error a
// probe hit.
func (b *bed) probes(p *Proc, out map[string]float64) error {
	var first error
	note := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	k := p.Kernel()
	const page8k = 8192

	// sim: one Sleep is one heap push, one event and two channel handoffs
	// through the kernel goroutine; a ping-pong adds the wakeup of a peer.
	out["sim.sleep_host_ns"], out["sim.sleep_allocs"], _ = timeHost(20000, func() { p.Sleep(time.Nanosecond) })
	ping, pong := sim.NewChan[int](k), sim.NewChan[int](k)
	const trips = 10000
	k.Go("probe-pong", func(q *sim.Proc) {
		for i := 0; i < trips; i++ {
			v, _ := ping.Recv(q)
			pong.Send(v)
		}
	})
	out["sim.pingpong_host_ns"], _, _ = timeHost(trips, func() {
		ping.Send(1)
		pong.Recv(p)
	})

	// broker: lease one MR and give it back.
	spec := broker.RequestSpec{Holder: "probe", N: 1, Place: broker.PlaceSpread}
	out["broker.request_release_sim_us"] = medianSimUs(p, 9, func() {
		ls, err := b.brk.Request(p, spec)
		note(err)
		for _, l := range ls {
			b.brk.Release(p, l)
		}
	})

	// rmem: one-sided reads against a bare leased MR.
	ls, err := b.brk.Request(p, spec)
	if err != nil {
		return fmt.Errorf("probe lease: %w", err)
	}
	mr, cl, tp := ls[0].MR, b.fs.Client, b.fs.Transport
	rng := newRand(1)
	buf := make([]byte, 16*page8k)
	mrOff := func() int { return rng.Intn(mr.Size()/page8k) * page8k }
	read8k := func() { note(tp.Read(p, cl, mr, mrOff(), buf[:page8k])) }
	out["rmem.read_8k_sim_us"] = medianSimUs(p, 201, read8k)
	out["rmem.read_8k_host_ns"], _, _ = timeHost(2000, read8k)
	iov := make([]rmem.IOVec, 16)
	out["rmem.readv_16x8k_sim_us"] = medianSimUs(p, 101, func() {
		for i := range iov {
			iov[i] = rmem.IOVec{MR: mr, Off: mrOff(), Buf: buf[i*page8k : (i+1)*page8k]}
		}
		for _, err := range cl.ReadV(p, tp, iov) {
			note(err)
		}
	})
	b.brk.Release(p, ls[0])

	// core: the Table 2 API on a scratch file with the bed's FS settings
	// (framed, replicated and hedged on fileapi_mix; bare elsewhere).
	const scratch = 2 << 20
	f, err := b.fs.Create(p, "probe", scratch)
	if err != nil {
		return fmt.Errorf("probe file: %w", err)
	}
	note(f.OpenConn(p))
	for off := 0; off < scratch; off += len(buf) {
		note(f.WriteAt(p, buf, int64(off))) // a never-written framed block is served without the wire
	}
	fOff := func() int64 { return int64(rng.Intn(scratch/page8k)) * page8k }
	readAt := func() { note(f.ReadAt(p, buf[:page8k], fOff())) }
	out["core.readat_8k_sim_us"] = medianSimUs(p, 201, readAt)
	out["core.readat_8k_host_ns"], _, out["core.readat_8k_alloc_bytes"] = timeHost(2000, readAt)
	vecs := make([]Vec, 16)
	out["core.readatv_16x8k_sim_us"] = medianSimUs(p, 101, func() {
		for i := range vecs {
			vecs[i] = Vec{Off: fOff(), Buf: buf[i*page8k : (i+1)*page8k]}
		}
		note(f.ReadAtV(p, vecs))
	})
	out["core.writeat_8k_sim_us"] = medianSimUs(p, 201, func() { note(f.WriteAt(p, buf[:page8k], fOff())) })
	note(b.fs.Delete(p, "probe"))

	if b.eng != nil {
		b.engineProbes(p, out, note)
	}
	return first
}

func (b *bed) engineProbes(p *Proc, out map[string]float64, note func(error)) {
	bp := b.eng.BP
	// Any table will do for the generic probes: customer on the
	// rangescan beds, orders on the TPC-H bed.
	tbl := b.customer
	if tbl == nil {
		tbl = b.tpch.Orders
	}
	tree := tbl.Clustered

	// buffer: the hit path on the root page, then extension hits found by
	// faulting pages that are not in RAM.
	out["buffer.get_hit_host_ns"], out["buffer.get_hit_allocs"], _ = timeHost(20000, func() {
		h, err := bp.Get(p, tree.Root())
		note(err)
		if err == nil {
			h.Release()
		}
	})
	var ext []int64
	for no := uint64(1); no <= bp.PageCount() && len(ext) < 201; no++ {
		if bp.InRAM(no) {
			continue
		}
		before, t0 := bp.Stats.ExtHits, p.Now()
		h, err := bp.Get(p, no)
		if err != nil {
			note(err)
			break
		}
		if bp.Stats.ExtHits == before+1 {
			ext = append(ext, int64(p.Now()-t0))
		}
		h.Release()
	}
	if len(ext) > 0 {
		slices.Sort(ext)
		out["buffer.get_exthit_sim_us"] = float64(percentile(ext, 0.5)) / 1e3
	}

	// btree and row: a 100-key clustered scan whose pages are resident
	// (the first call faults them in), and the single-column decode.
	var val []byte
	scan := func() {
		pairs, err := tree.ScanRange(p, nil, nil, 100)
		note(err)
		if len(pairs) > 0 {
			val = pairs[0].Val
		}
	}
	scan()
	out["btree.scanrange100_host_ns"], _, _ = timeHost(500, scan)
	if val != nil {
		ord := tbl.Schema.Len() - 1
		out["row.decode_column_host_ns"], _, _ = timeHost(100000, func() {
			_, err := row.DecodeColumn(tbl.Schema, val, ord)
			note(err)
		})
	}

	// plan: lowering a plan whose decisions are cached.
	lower := func() {
		_, err := b.eng.Planner.Lower(b.eng.NewCtx(p), plan.ScanRange(tbl, nil, nil))
		note(err)
	}
	lower()
	out["plan.lower_cached_host_ns"], _, _ = timeHost(2000, lower)

	// tempdb: spill 1 MB of 1 KB records and force it out.
	rec := make([]byte, 1024)
	out["tempdb.spill_1mb_sim_us"] = medianSimUs(p, 5, func() {
		sf := b.eng.Temp.NewFile("probe")
		for i := 0; i < 1024; i++ {
			note(sf.Append(p, rec))
		}
		note(sf.Flush(p))
		sf.Release()
	})
}
