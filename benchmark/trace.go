package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"gcore"
)

// recorder keeps spans in memory during a traced window: the engine's
// operator spans, received through the public TraceHandler hook, and
// client spans the benchmark opens around its own calls into the
// program (HTTP requests, MutateGraph, parser.Parse). It computes each
// engine span's self time as its duration minus the part of its
// interval that its child spans cover.
//
// Engine spans carry no request or parent identifier, so parentage is
// rebuilt from the goroutine that emits them: spans on one goroutine
// nest as a stack. A span opened on a goroutine with no open span is
// either a statement (a root) or a worker span of the internal/par
// pool; a worker span is attached to the most recently opened span of
// a plausible parent kind on another goroutine. With two concurrent
// clients that choice can cross requests, so attribution is per
// workload (summed over the window), not per request.
type recorder struct {
	origin time.Time

	mu     sync.Mutex
	nextID int64
	stacks map[uint64][]*frame
	spans  []spanRecord
}

type frame struct {
	id       int64
	op       gcore.Op
	start    time.Time
	children [][2]time.Time
}

// spanRecord is one finished span as written to the span dump.
type spanRecord struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent,omitempty"`
	Name    string `json:"name"`
	Class   string `json:"class,omitempty"`
	StartUS int64  `json:"start_us"`
	DurUS   int64  `json:"dur_us"`
	SelfUS  int64  `json:"self_us"`
	Depth   int    `json:"depth,omitempty"`
	RowsIn  int64  `json:"rows_in,omitempty"`
	RowsOut int64  `json:"rows_out,omitempty"`
	Pops    int64  `json:"pops,omitempty"`
	Bytes   int64  `json:"bytes,omitempty"`

	dur, self time.Duration
	op        gcore.Op
	engine    bool
}

func newRecorder() *recorder {
	return &recorder{origin: time.Now(), stacks: map[uint64][]*frame{}}
}

// goid returns the calling goroutine's identifier, parsed from the
// runtime's stack header ("goroutine 123 [running]:").
func goid() uint64 {
	var buf [32]byte
	n := runtime.Stack(buf[:], false)
	b := bytes.TrimPrefix(buf[:n], []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		id, _ := strconv.ParseUint(string(b[:i]), 10, 64)
		return id
	}
	return 0
}

// SpanStart implements gcore.TraceHandler.
func (r *recorder) SpanStart(op gcore.Op, _ int) {
	g := goid()
	now := time.Now()
	r.mu.Lock()
	r.nextID++
	r.stacks[g] = append(r.stacks[g], &frame{id: r.nextID, op: op, start: now})
	r.mu.Unlock()
}

// SpanEnd implements gcore.TraceHandler.
func (r *recorder) SpanEnd(sp gcore.Span) {
	g := goid()
	end := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.stacks[g]
	if len(st) == 0 || st[len(st)-1].op != sp.Op {
		// A span whose start was not observed (tracing switched on
		// mid-statement) carries no usable interval.
		return
	}
	f := st[len(st)-1]
	if len(st) == 1 {
		delete(r.stacks, g)
	} else {
		r.stacks[g] = st[:len(st)-1]
	}
	var parent *frame
	if len(st) > 1 {
		parent = st[len(st)-2]
	} else if sp.Op != gcore.OpStatement {
		parent = r.openParent(f)
	}
	dur := end.Sub(f.start)
	self := dur - covered(f.start, end, f.children)
	rec := spanRecord{
		ID: f.id, Name: sp.Op.String(), StartUS: f.start.Sub(r.origin).Microseconds(),
		DurUS: dur.Microseconds(), SelfUS: self.Microseconds(), Depth: int(sp.Depth),
		RowsIn: sp.RowsIn, RowsOut: sp.RowsOut, Pops: sp.Pops,
		dur: dur, self: self, op: sp.Op, engine: true,
	}
	if parent != nil {
		rec.Parent = parent.id
		parent.children = append(parent.children, [2]time.Time{f.start, end})
	}
	r.spans = append(r.spans, rec)
}

// openParent picks the parent of a worker span: the most recently
// opened span on another goroutine that started before it, preferring
// a path step for kernel spans and a residual filter otherwise.
func (r *recorder) openParent(f *frame) *frame {
	want := gcore.OpResidual
	switch f.op {
	case gcore.OpShortest, gcore.OpReach, gcore.OpAllPaths:
		want = gcore.OpPath
	}
	var best, any *frame
	for _, st := range r.stacks {
		for _, c := range st {
			if c == f || c.start.After(f.start) {
				continue
			}
			if any == nil || c.start.After(any.start) {
				any = c
			}
			if c.op == want && (best == nil || c.start.After(best.start)) {
				best = c
			}
		}
	}
	if best != nil {
		return best
	}
	return any
}

// covered returns how much of [start, end] the union of the child
// intervals covers.
func covered(start, end time.Time, children [][2]time.Time) time.Duration {
	if len(children) == 0 {
		return 0
	}
	iv := make([][2]time.Time, 0, len(children))
	for _, c := range children {
		s, e := c[0], c[1]
		if s.Before(start) {
			s = start
		}
		if e.After(end) {
			e = end
		}
		if e.After(s) {
			iv = append(iv, [2]time.Time{s, e})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0].Before(iv[j][0]) })
	var total time.Duration
	var curS, curE time.Time
	for i, c := range iv {
		if i == 0 || c[0].After(curE) {
			if i > 0 {
				total += curE.Sub(curS)
			}
			curS, curE = c[0], c[1]
			continue
		}
		if c[1].After(curE) {
			curE = c[1]
		}
	}
	if len(iv) > 0 {
		total += curE.Sub(curS)
	}
	return total
}

// client records a span the benchmark opened around its own call.
func (r *recorder) client(name, class string, start time.Time, bytes int64) {
	if r == nil {
		return
	}
	end := time.Now()
	dur := end.Sub(start)
	r.mu.Lock()
	r.nextID++
	r.spans = append(r.spans, spanRecord{
		ID: r.nextID, Name: name, Class: class, StartUS: start.Sub(r.origin).Microseconds(),
		DurUS: dur.Microseconds(), SelfUS: dur.Microseconds(), Bytes: bytes,
		dur: dur, self: dur,
	})
	r.mu.Unlock()
}

// finished returns the spans recorded so far.
func (r *recorder) finished() []spanRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]spanRecord(nil), r.spans...)
}

// dump writes the spans as JSON lines to path.
func (r *recorder) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.finished() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing span dump: %w", err)
	}
	return nil
}
