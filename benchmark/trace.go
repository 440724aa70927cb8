package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
)

// span is one traced interval in virtual time. Wall time is deliberately
// absent: the simulator runs one proc at a time, so the wall time between
// a span's start and end includes other procs' work. Host attribution is
// the CPU profile's job (hostcpu.go).
type span struct {
	ID       int32  `json:"id"`
	Parent   int32  `json:"parent"` // -1: no enclosing span on this proc
	Proc     int32  `json:"proc"`
	Name     string `json:"name"`
	SimStart int64  `json:"sim_start"` // virtual ns
	SimEnd   int64  `json:"sim_end"`
	Bytes    int64  `json:"bytes"`
}

// tracer records spans while on. Parentage comes from a span stack per
// simulated proc: a client pushes its op span, the adapter pushes the
// layer calls it makes, and the file decorators push the I/O beneath
// them. A proc the benchmark did not start (lazy writer, extension
// flusher, readahead, parallel workers) has an empty stack, so its I/O
// shows up as root spans: "detached" work.
type tracer struct {
	on    bool
	spans []span
	procs map[*Proc]*procTrace
}

// procTrace is one proc's number in the span file and its open spans.
type procTrace struct {
	id    int32
	stack []int32
}

func newTracer() *tracer { return &tracer{procs: make(map[*Proc]*procTrace)} }

// begin opens a span on p and returns its id (-1 while tracing is off).
// It charges no virtual time, which is why a traced and an untraced run
// of the same virtual window produce identical simulated results.
func (t *tracer) begin(p *Proc, name string, bytes int64) int32 {
	if !t.on {
		return -1
	}
	pt := t.procs[p]
	if pt == nil {
		pt = &procTrace{id: int32(len(t.procs))}
		t.procs[p] = pt
	}
	parent := int32(-1)
	if n := len(pt.stack); n > 0 {
		parent = pt.stack[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Proc: pt.id, Name: name, SimStart: int64(p.Now()), SimEnd: -1, Bytes: bytes})
	pt.stack = append(pt.stack, id)
	return id
}

// end closes the span begin returned.
func (t *tracer) end(p *Proc, id int32) {
	if id < 0 {
		return
	}
	t.spans[id].SimEnd = int64(p.Now())
	pt := t.procs[p]
	pt.stack = pt.stack[:len(pt.stack)-1]
}

// layerOf maps a span name to the layer its self time is charged to.
func layerOf(name string) string {
	switch {
	case strings.HasPrefix(name, "btree."):
		return "btree"
	case strings.HasPrefix(name, "txn."):
		return "txn"
	case strings.HasPrefix(name, "vfs.data."), strings.HasPrefix(name, "vfs.log."):
		return "disk"
	case strings.HasPrefix(name, "vfs."):
		return "core" // bpext, temp and the raw file of fileapi_mix are core.File
	}
	return "engine" // op.*, cluster.work, row.decode
}

// traceSummary is what the per-layer metrics need from the spans.
type traceSummary struct {
	selfByLayer map[string]int64   // virtual ns of self time inside op trees
	opTotal     int64              // summed op span durations
	detached    int64              // summed durations of root spans that are not ops
	durs        map[string][]int64 // span durations by name
	bytes       map[string]int64   // summed span bytes by name
}

// summarize computes self times (a span's duration minus the part its
// children cover) and splits the summed op latency by layer. Children of
// one span run on one proc, one after the other, so they never overlap
// and self time cannot go negative.
func (t *tracer) summarize() traceSummary {
	s := traceSummary{selfByLayer: map[string]int64{}, durs: map[string][]int64{}, bytes: map[string]int64{}}
	self := make([]int64, len(t.spans))
	inOp := make([]bool, len(t.spans))
	for i := range t.spans {
		sp := &t.spans[i]
		if sp.SimEnd < 0 {
			continue // still open when the phase was cut; never the case after a drain
		}
		d := sp.SimEnd - sp.SimStart
		self[i] += d
		s.durs[sp.Name] = append(s.durs[sp.Name], d)
		s.bytes[sp.Name] += sp.Bytes
		if sp.Parent >= 0 {
			self[sp.Parent] -= d
			inOp[i] = inOp[sp.Parent] // parents precede children in t.spans
		} else if strings.HasPrefix(sp.Name, "op.") {
			inOp[i] = true
			s.opTotal += d
		} else {
			s.detached += d
		}
	}
	for i := range t.spans {
		if inOp[i] {
			s.selfByLayer[layerOf(t.spans[i].Name)] += self[i]
		}
	}
	return s
}

// writeSpans dumps the spans as JSON lines.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedFile is the seam decorator: a vfs.VectorFile that records one
// span per call. Name, Size and Close pass through to the wrapped file.
type tracedFile struct {
	VectorFile
	tr    *tracer
	names [4]string // span names: read, readv, write, writev
}

func newTracedFile(f VectorFile, role string, tr *tracer) *tracedFile {
	pre := "vfs." + role + "."
	return &tracedFile{VectorFile: f, tr: tr, names: [4]string{pre + "read", pre + "readv", pre + "write", pre + "writev"}}
}

func (f *tracedFile) vecBytes(vecs []Vec) int64 {
	var n int64
	if !f.tr.on {
		return 0
	}
	for _, v := range vecs {
		n += int64(len(v.Buf))
	}
	return n
}

func (f *tracedFile) ReadAt(p *Proc, b []byte, off int64) error {
	s := f.tr.begin(p, f.names[0], int64(len(b)))
	err := f.VectorFile.ReadAt(p, b, off)
	f.tr.end(p, s)
	return err
}

func (f *tracedFile) ReadAtV(p *Proc, vecs []Vec) error {
	s := f.tr.begin(p, f.names[1], f.vecBytes(vecs))
	err := f.VectorFile.ReadAtV(p, vecs)
	f.tr.end(p, s)
	return err
}

func (f *tracedFile) WriteAt(p *Proc, b []byte, off int64) error {
	s := f.tr.begin(p, f.names[2], int64(len(b)))
	err := f.VectorFile.WriteAt(p, b, off)
	f.tr.end(p, s)
	return err
}

func (f *tracedFile) WriteAtV(p *Proc, vecs []Vec) error {
	s := f.tr.begin(p, f.names[3], f.vecBytes(vecs))
	err := f.VectorFile.WriteAtV(p, vecs)
	f.tr.end(p, s)
	return err
}

// remoteState is what the buffer pool asks of a remote extension file
// beyond vfs.File; the decorator of a remote file must keep answering.
type remoteState interface {
	Degraded() bool
	Unavailable() bool
}

type tracedRemote struct {
	*tracedFile
	remoteState
}
