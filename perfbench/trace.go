package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"

	"repro"
)

// Span kinds. The kv kinds are opened by the benchmark around its own
// kv.Store calls (in-process only); the db kinds by tracedDB around every
// call kv makes into the repro facade.
const (
	spanKVPut = iota
	spanKVGet
	spanDBBegin
	spanDBSetRange
	spanDBWrite
	spanDBCommit
	spanDBAbort
	spanDBRead
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"kv.put", "kv.get", "db.begin", "db.setrange", "db.write", "db.commit", "db.abort", "db.read",
}

// span is one traced call: times are wall nanoseconds since the tracer
// started, parent indexes the kept span list (-1 for none) and op is the
// benchmark op that caused it (0 when the caller is not the benchmark,
// as for calls kvserver makes).
type span struct {
	Name   string `json:"name"`
	Op     uint64 `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// keepSpans bounds the spans kept for the end-of-run dump; every span,
// kept or not, feeds the per-kind totals.
const keepSpans = 1 << 16

// tracer records spans at the layer boundaries the benchmark can see.
// Totals cover every span; the first keepSpans spans are kept whole.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	count [numSpanKinds]int64
	total [numSpanKinds]int64 // ns, full span durations
	self  [numSpanKinds]int64 // ns, duration minus child spans
	bytes [numSpanKinds]int64 // bytes moved by db.read / db.write
	// child[p][k] counts kind-k spans under a kv.put (p=0) or kv.get
	// (p=1) span; childBytes their bytes.
	child      [2][numSpanKinds]int64
	childBytes [2][numSpanKinds]int64
	kept       []span

	// The open kv span (in-process callers are serial, so at most one).
	parentKind  int
	parentOp    uint64
	parentStart int64
	parentIdx   int
	childNs     int64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), parentKind: -1, kept: make([]span, 0, keepSpans)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// keep appends a span to the dump while there is room and returns its
// index, or -1.
func (t *tracer) keep(kind int, op uint64, parent int, start, end int64) int {
	if len(t.kept) == cap(t.kept) {
		return -1
	}
	t.kept = append(t.kept, span{Name: spanNames[kind], Op: op, Parent: parent, Start: start, End: end})
	return len(t.kept) - 1
}

// openOp starts the kv span of benchmark op opID.
func (t *tracer) openOp(kind int, opID uint64) {
	start := t.now()
	t.mu.Lock()
	t.parentKind, t.parentOp, t.parentStart, t.childNs = kind, opID, start, 0
	t.parentIdx = t.keep(kind, opID, -1, start, 0)
	t.mu.Unlock()
}

// closeOp ends the open kv span; its self time is what its db children
// did not cover.
func (t *tracer) closeOp() {
	end := t.now()
	t.mu.Lock()
	k := t.parentKind
	d := end - t.parentStart
	t.count[k]++
	t.total[k] += d
	t.self[k] += d - t.childNs
	if t.parentIdx >= 0 {
		t.kept[t.parentIdx].End = end
	}
	t.parentKind = -1
	t.mu.Unlock()
}

// record ends a db span that started at start.
func (t *tracer) record(kind int, start int64, n int) {
	end := t.now()
	d := end - start
	t.mu.Lock()
	t.count[kind]++
	t.total[kind] += d
	t.self[kind] += d
	t.bytes[kind] += int64(n)
	var op uint64
	parent := -1
	if p := t.parentKind; p >= 0 {
		t.childNs += d
		t.child[p][kind]++
		t.childBytes[p][kind] += int64(n)
		op, parent = t.parentOp, t.parentIdx
	}
	t.keep(kind, op, parent, start, end)
	t.mu.Unlock()
}

// traceTotals is a copy of the tracer's counters.
type traceTotals struct {
	count, total, self, bytes [numSpanKinds]int64
	child, childBytes         [2][numSpanKinds]int64
}

func (t *tracer) totals() traceTotals {
	t.mu.Lock()
	defer t.mu.Unlock()
	return traceTotals{t.count, t.total, t.self, t.bytes, t.child, t.childBytes}
}

// reset drops everything recorded so far: the measured phase starts.
func (t *tracer) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.count, t.total, t.self, t.bytes = [numSpanKinds]int64{}, [numSpanKinds]int64{}, [numSpanKinds]int64{}, [numSpanKinds]int64{}
	t.child, t.childBytes = [2][numSpanKinds]int64{}, [2][numSpanKinds]int64{}
	t.kept = t.kept[:0]
	t.parentKind = -1
}

// dump writes the kept spans to path, one JSON object per line.
func (t *tracer) dump(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.kept {
		if err := enc.Encode(s); err != nil {
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

// deployment is the surface kv.Open and kvserver need: the data plane
// plus the Admin surface kvserver type-asserts to heal.
type deployment interface {
	repro.DB
	repro.Admin
}

// tracedDB forwards every DB and Admin call to the deployment, timing
// the data-plane calls kv makes: Begin, Read, ReadAt, and each method of
// the transactions Begin returns.
type tracedDB struct {
	deployment
	t *tracer
}

func (d *tracedDB) Begin() (repro.Tx, error) {
	s := d.t.now()
	tx, err := d.deployment.Begin()
	d.t.record(spanDBBegin, s, 0)
	if err != nil {
		return nil, err
	}
	return &tracedTx{tx: tx, t: d.t}, nil
}

func (d *tracedDB) Read(off int, dst []byte) error {
	s := d.t.now()
	err := d.deployment.Read(off, dst)
	d.t.record(spanDBRead, s, len(dst))
	return err
}

func (d *tracedDB) ReadAt(off int, dst []byte, opts repro.ReadOpts) (repro.ReadResult, error) {
	s := d.t.now()
	res, err := d.deployment.ReadAt(off, dst, opts)
	d.t.record(spanDBRead, s, len(dst))
	return res, err
}

// tracedTx times one transaction's calls.
type tracedTx struct {
	tx repro.Tx
	t  *tracer
}

func (x *tracedTx) SetRange(off, n int) error {
	s := x.t.now()
	err := x.tx.SetRange(off, n)
	x.t.record(spanDBSetRange, s, 0)
	return err
}

func (x *tracedTx) Write(off int, src []byte) error {
	s := x.t.now()
	err := x.tx.Write(off, src)
	x.t.record(spanDBWrite, s, len(src))
	return err
}

func (x *tracedTx) Read(off int, dst []byte) error {
	s := x.t.now()
	err := x.tx.Read(off, dst)
	x.t.record(spanDBRead, s, len(dst))
	return err
}

func (x *tracedTx) Commit() error {
	s := x.t.now()
	err := x.tx.Commit()
	x.t.record(spanDBCommit, s, 0)
	return err
}

func (x *tracedTx) Abort() error {
	s := x.t.now()
	err := x.tx.Abort()
	x.t.record(spanDBAbort, s, 0)
	return err
}
