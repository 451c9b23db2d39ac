package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/dm"
	"repro/internal/live"
	"repro/internal/pool"
)

// Spans are recorded from the benchmark's own files, around the calls
// into each layer; nothing inside the program is instrumented. The
// tracer is nil on every untraced run, and every method is a no-op on a
// nil receiver, so call sites need no branches.

type spanKind uint8

const (
	spanOp         spanKind = iota // one driver operation, the root
	spanFillVerify                 // the driver filling or checking payload bytes
	spanStage                      // pool StageRef
	spanRead                       // pool ReadRef / ReadRefLease and their *From forms
	spanFree                       // pool FreeRef
	spanMap                        // pool MapRef
)

var spanNames = [...]string{"driver.op", "apps.fill_verify", "pool.StageRef", "pool.ReadRef", "pool.FreeRef", "pool.MapRef"}

// span is {name, start, end, worker, parent} plus the ref key a DM call
// touched. parent is a span id (index+1), 0 for none. Service-tier
// sessions do not know which driver operation caused a call (that
// context is the program's TraceID, which nothing outside can read), so
// their spans start parentless and are linked afterwards through the
// ref key the driver staged under that operation.
type span struct {
	start, end int64 // ns since tracer base
	parent     int64
	key        uint64
	kind       spanKind
	worker     int8 // -1 = a service-tier session
}

type tracer struct {
	base    time.Time
	spans   []span
	next    atomic.Int64
	dropped atomic.Int64
}

// newTracer sizes the in-memory span buffer for a window; spans past it
// are counted, not stored.
func newTracer(window time.Duration) *tracer {
	n := int(window.Seconds()*400e3) + 1024
	return &tracer{base: time.Now(), spans: make([]span, n)}
}

// now returns the span clock, or 0 on a nil tracer without reading the
// clock at all.
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.base))
}

// claim takes the next span id, or 0 (and counts a drop) when the
// buffer is full.
func (t *tracer) claim() int64 {
	i := t.next.Add(1) - 1
	if int(i) >= len(t.spans) {
		t.dropped.Add(1)
		return 0
	}
	return i + 1
}

// add records a finished span that began at start and returns its id.
func (t *tracer) add(kind spanKind, worker int, parent, start int64, key uint64) int64 {
	if t == nil {
		return 0
	}
	end := int64(time.Since(t.base))
	id := t.claim()
	if id != 0 {
		t.spans[id-1] = span{start: start, end: end, parent: parent, key: key, kind: kind, worker: int8(worker)}
	}
	return id
}

// reserve claims an id for a root span before its children run, so they
// can name it as parent; finish fills it in.
func (t *tracer) reserve() int64 {
	if t == nil {
		return 0
	}
	return t.claim()
}

func (t *tracer) finish(id int64, kind spanKind, worker int, start int64) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1] = span{start: start, end: int64(time.Since(t.base)), kind: kind, worker: int8(worker)}
}

// recorded returns the stored spans; call after every recorder stopped.
func (t *tracer) recorded() []span {
	n := int(t.next.Load())
	if n > len(t.spans) {
		n = len(t.spans)
	}
	return t.spans[:n]
}

// linkByKey gives parentless DM spans the operation that staged the ref
// they touch, when the span lies inside that operation.
func linkByKey(spans []span) {
	owner := make(map[uint64]int64)
	for _, s := range spans {
		if s.kind == spanStage && s.parent != 0 {
			owner[s.key] = s.parent
		}
	}
	for i := range spans {
		s := &spans[i]
		if s.parent != 0 || s.kind == spanOp || s.kind == spanFillVerify {
			continue
		}
		if id, ok := owner[s.key]; ok {
			if op := spans[id-1]; s.start >= op.start && s.end <= op.end {
				s.parent = id
			}
		}
	}
}

// selfTime is a span's duration minus the part of it its children
// cover; overlapping children are counted once.
func selfTime(parent span, children []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := max(c.start, parent.start), min(c.end, parent.end)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	covered, edge := int64(0), parent.start
	for _, v := range ivs {
		if v.b <= edge {
			continue
		}
		covered += v.b - max(v.a, edge)
		edge = v.b
	}
	return parent.end - parent.start - covered
}

// traceTotals are the span sums of one window, in nanoseconds.
type traceTotals struct {
	ops                               int64
	fillVerify, stage, read, free, op int64
	opSelf                            int64
}

// summarize links the spans and sums them over operations that ended
// inside [from, to).
func summarize(spans []span, from, to int64) traceTotals {
	linkByKey(spans)
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	var t traceTotals
	for i, s := range spans {
		if s.kind != spanOp || s.end < from || s.end >= to {
			continue
		}
		t.ops++
		t.op += s.end - s.start
		kids := children[int64(i+1)]
		t.opSelf += selfTime(s, kids)
		for _, c := range kids {
			d := c.end - c.start
			switch c.kind {
			case spanFillVerify:
				t.fillVerify += d
			case spanStage:
				t.stage += d
			case spanRead:
				t.read += d
			case spanFree:
				t.free += d
			}
		}
	}
	return t
}

// writeTrace dumps the spans as JSON lines to dir/trace-<name>.jsonl.
func writeTrace(dir, name string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+name+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var line []byte
	for i, s := range spans {
		line = append(line[:0], `{"id":`...)
		line = strconv.AppendInt(line, int64(i+1), 10)
		line = append(line, `,"name":"`...)
		line = append(line, spanNames[s.kind]...)
		line = append(line, `","start":`...)
		line = strconv.AppendInt(line, s.start, 10)
		line = append(line, `,"end":`...)
		line = strconv.AppendInt(line, s.end, 10)
		line = append(line, `,"worker":`...)
		line = strconv.AppendInt(line, int64(s.worker), 10)
		line = append(line, `,"parent":`...)
		line = strconv.AppendInt(line, s.parent, 10)
		line = append(line, `,"ref":`...)
		line = strconv.AppendUint(line, s.key, 10)
		line = append(line, "}\n"...)
		w.Write(line) // a failed write resurfaces from Flush
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("write %s: %w", path, err)
	}
	return path, f.Close()
}

// tracedDM is the session handed to the liverpc deployments on a traced
// run: a *pool.Client whose DM calls record a span each. Embedding keeps
// the rest of the surface (LocatedRefs, Replicas, CreateRef, Free,
// Close), so liverpc still sees a LocatedDM, ReplicatedDM and BufDM.
type tracedDM struct {
	*pool.Client
	tr     *tracer
	worker int
	// cur is the running operation's span id for a session one driver
	// worker owns (set by that worker, read only on its goroutine); nil
	// for service-tier sessions.
	cur *int64
}

func (d *tracedDM) parent() int64 {
	if d.cur == nil {
		return 0
	}
	return *d.cur
}

func (d *tracedDM) StageRef(data []byte) (dm.Ref, error) {
	t0 := d.tr.now()
	ref, err := d.Client.StageRef(data)
	d.tr.add(spanStage, d.worker, d.parent(), t0, ref.Key)
	return ref, err
}

func (d *tracedDM) ReadRef(ref dm.Ref, off int64, dst []byte) error {
	t0 := d.tr.now()
	err := d.Client.ReadRef(ref, off, dst)
	d.tr.add(spanRead, d.worker, d.parent(), t0, ref.Key)
	return err
}

func (d *tracedDM) ReadRefFrom(ref dm.Ref, hints []uint32, off int64, dst []byte) error {
	t0 := d.tr.now()
	err := d.Client.ReadRefFrom(ref, hints, off, dst)
	d.tr.add(spanRead, d.worker, d.parent(), t0, ref.Key)
	return err
}

func (d *tracedDM) ReadRefLease(ref dm.Ref, off, size int64) (*live.Buf, error) {
	t0 := d.tr.now()
	b, err := d.Client.ReadRefLease(ref, off, size)
	d.tr.add(spanRead, d.worker, d.parent(), t0, ref.Key)
	return b, err
}

func (d *tracedDM) ReadRefLeaseFrom(ref dm.Ref, hints []uint32, off, size int64) (*live.Buf, error) {
	t0 := d.tr.now()
	b, err := d.Client.ReadRefLeaseFrom(ref, hints, off, size)
	d.tr.add(spanRead, d.worker, d.parent(), t0, ref.Key)
	return b, err
}

func (d *tracedDM) FreeRef(ref dm.Ref) error {
	t0 := d.tr.now()
	err := d.Client.FreeRef(ref)
	d.tr.add(spanFree, d.worker, d.parent(), t0, ref.Key)
	return err
}

func (d *tracedDM) MapRef(ref dm.Ref) (dm.RemoteAddr, error) {
	t0 := d.tr.now()
	addr, err := d.Client.MapRef(ref)
	d.tr.add(spanMap, d.worker, d.parent(), t0, ref.Key)
	return addr, err
}
