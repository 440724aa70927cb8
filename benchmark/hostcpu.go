package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"strings"
)

// hostcpu.go turns a runtime/pprof CPU profile into host time per layer.
// The standard library writes the profile (gzipped profile.proto) but
// exports no reader, so this file decodes the four message types it
// needs: Profile, Sample, Location (with Line) and Function.

// pbuf is a protobuf decoding cursor.
type pbuf struct {
	b   []byte
	err error
}

func (p *pbuf) varint() uint64 {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			p.err = io.ErrUnexpectedEOF
			return 0
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v
		}
	}
	p.err = errors.New("pprof: varint overflows 64 bits")
	return 0
}

// next returns the next field: its number, and either its varint value
// or its length-delimited bytes.
func (p *pbuf) next() (field int, val uint64, data []byte) {
	key := p.varint()
	field = int(key >> 3)
	switch key & 7 {
	case 0:
		val = p.varint()
	case 1:
		p.skip(8)
	case 2:
		n := p.varint()
		if n > uint64(len(p.b)) {
			p.err = io.ErrUnexpectedEOF
			return
		}
		data, p.b = p.b[:n], p.b[n:]
	case 5:
		p.skip(4)
	default:
		p.err = errors.New("pprof: unsupported wire type")
	}
	return
}

func (p *pbuf) skip(n int) {
	if n > len(p.b) {
		p.err = io.ErrUnexpectedEOF
		return
	}
	p.b = p.b[n:]
}

func (p *pbuf) more() bool { return p.err == nil && len(p.b) > 0 }

// uints appends a repeated varint field, packed or not.
func uints(dst []uint64, val uint64, data []byte) []uint64 {
	if data == nil {
		return append(dst, val)
	}
	q := pbuf{b: data}
	for q.more() {
		dst = append(dst, q.varint())
	}
	return dst
}

// stackSample is one profile sample: its call stack as function names,
// innermost first, and its value in the profile's last sample type (cpu
// nanoseconds).
type stackSample struct {
	funcs []string
	value int64
}

// profileStacks decodes a gzipped profile.proto.
func profileStacks(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		locs  []uint64
		value int64
	}
	var samples []sample
	locFuncs := map[uint64][]uint64{} // location id -> function ids, innermost inlined call first
	funcName := map[uint64]uint64{}
	var strs []string

	top := pbuf{b: raw}
	for top.more() {
		field, _, data := top.next()
		m := pbuf{b: data}
		switch field {
		case 2: // Sample
			var locs, vals []uint64
			for m.more() {
				f, v, d := m.next()
				switch f {
				case 1:
					locs = uints(locs, v, d)
				case 2:
					vals = uints(vals, v, d)
				}
			}
			if len(locs) > 0 && len(vals) > 0 {
				samples = append(samples, sample{locs, int64(vals[len(vals)-1])})
			}
		case 4: // Location
			var id uint64
			var fns []uint64
			for m.more() {
				f, v, d := m.next()
				switch f {
				case 1:
					id = v
				case 4: // Line
					l := pbuf{b: d}
					for l.more() {
						if lf, lv, _ := l.next(); lf == 1 {
							fns = append(fns, lv)
						}
					}
					if l.err != nil {
						return nil, l.err
					}
				}
			}
			locFuncs[id] = fns
		case 5: // Function
			var id, name uint64
			for m.more() {
				f, v, _ := m.next()
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			funcName[id] = name
		case 6:
			strs = append(strs, string(data))
		}
		if m.err != nil {
			return nil, m.err
		}
	}
	if top.err != nil {
		return nil, top.err
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		st := stackSample{value: s.value}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if i := funcName[fn]; i < uint64(len(strs)) {
					st.funcs = append(st.funcs, strs[i])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// hostLayers are the buckets of the host-time split, in the order of the
// hostcpu.*_share metrics.
var hostLayers = []string{"sim", "runtime_sched", "runtime_gc", "core", "rmem", "hw", "buffer", "btree",
	"page_row", "exec_plan", "tempdb", "txn", "bench", "other"}

var pkgLayer = map[string]string{
	"remotedb/internal/sim":            "sim",
	"remotedb/internal/core":           "core",
	"remotedb/internal/rmem":           "rmem",
	"remotedb/internal/hw/nic":         "hw",
	"remotedb/internal/hw/disk":        "hw",
	"remotedb/internal/cluster":        "hw",
	"remotedb/internal/engine/buffer":  "buffer",
	"remotedb/internal/engine/btree":   "btree",
	"remotedb/internal/engine/page":    "page_row",
	"remotedb/internal/engine/row":     "page_row",
	"remotedb/internal/engine/exec":    "exec_plan",
	"remotedb/internal/engine/plan":    "exec_plan",
	"remotedb/internal/engine/opt":     "exec_plan",
	"remotedb/internal/engine/catalog": "exec_plan",
	"remotedb/internal/workload/tpch":  "exec_plan", // predicates and plans the executor runs
	"remotedb/internal/engine/tempdb":  "tempdb",
	"remotedb/internal/engine/txn":     "txn",
	"remotedb/benchmark":               "bench",
	"main":                             "bench",
}

// Runtime functions by what they do for this program: handing the one
// running proc between goroutines (channels, parking, futexes, the
// scheduler), or allocating and collecting. Names are matched by prefix
// after "runtime." with receiver punctuation dropped.
var (
	schedPrefixes = []string{"chan", "hchan", "send", "recv", "waitq", "sudog", "acquireSudog", "releaseSudog",
		"gopark", "park", "goready", "ready", "schedule", "findRunnable", "runq", "globrunq", "wakep", "stopm",
		"startm", "mPark", "handoffp", "injectglist", "execute", "gogo", "mcall", "gosched", "dropg",
		"casgstatus", "futex", "note", "lock", "unlock", "sema", "usleep", "osyield", "netpoll", "epoll",
		"selectgo", "sellock", "selunlock", "resetspinning", "checkTimers", "timers", "pidle", "releasep",
		"acquirep", "nanotime", "newproc", "gfget", "gfput", "mLockProfile", "procyield", "mutex"}
	gcPrefixes = []string{"gc", "malloc", "scan", "mark", "sweep", "grey", "heapBits", "bgsweep", "bgscavenge",
		"mspan", "mcache", "mcentral", "mheap", "pageAlloc", "pageCache", "palloc", "nextFree", "wbBuf", "wbZero",
		"wbMove", "memclr", "newobject", "newarray", "makeslice", "growslice", "scavenge", "spanOf", "spanClass",
		"findObject", "typePointers", "limiterEvent", "deductAssistCredit", "activeSweep", "publicationBarrier",
		"profilealloc", "spanSet", "mSpanStateBox", "lfstack", "stackpool", "stackalloc", "stackfree",
		"bulkBarrier", "roundupsize", "fixalloc", "persistentalloc", "sysAlloc", "sysUsed", "sysUnused", "sysFree",
		"madvise", "mmap", "munmap", "heapSetType", "writeHeapBits", "arena"}
)

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// hostLayer maps a Go function name to its bucket.
func hostLayer(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments may hold slashes and dots
	}
	slash := strings.LastIndexByte(fn, '/') + 1
	dot := strings.IndexByte(fn[slash:], '.')
	if dot < 0 {
		return "other"
	}
	pkg, name := fn[:slash+dot], fn[slash+dot+1:]
	if l, ok := pkgLayer[pkg]; ok {
		return l
	}
	if pkg != "runtime" {
		return "other"
	}
	name = strings.NewReplacer("(*", "", ")", "").Replace(name)
	switch {
	case hasAnyPrefix(name, gcPrefixes):
		return "runtime_gc"
	case hasAnyPrefix(name, schedPrefixes):
		return "runtime_sched"
	}
	return "other"
}

// hostShares splits a CPU profile's time over hostLayers. It is flat
// time by package, except that a leaf which belongs to no layer (memmove,
// a map or compare helper, crc32, container/heap) is charged to its
// nearest caller that does: a copy made by core is core's time, one made
// inside malloc the collector's.
func hostShares(gz []byte) (map[string]float64, error) {
	stacks, err := profileStacks(gz)
	if err != nil {
		return nil, err
	}
	var total int64
	by := map[string]int64{}
	for _, s := range stacks {
		layer := "other"
		for _, fn := range s.funcs {
			if l := hostLayer(fn); l != "other" {
				layer = l
				break
			}
		}
		by[layer] += s.value
		total += s.value
	}
	if total == 0 {
		return nil, errors.New("pprof: CPU profile holds no samples")
	}
	out := map[string]float64{}
	for _, l := range hostLayers {
		out[l] = float64(by[l]) / float64(total)
	}
	return out, nil
}
