package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer. Parent is the id of the span open
// when this one began (0 for a root); Op is the operation the span
// belongs to (setupOp for set-up repetitions).
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Op     int           `json:"op"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// setupOp marks spans recorded during set-up; their repetition index is
// kept in negative op ids (-1, -2, ...).
func setupOp(rep int) int { return -1 - rep }

// tracer records spans in memory. Spans nest by call order: begin pushes
// onto a stack and end pops, so every span must be begun and ended on
// the benchmark's driving goroutine (the engines call the source layer
// on the goroutine that runs the session, so the timing driver's spans
// qualify).
type tracer struct {
	t0    time.Time
	op    int
	stack []int
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// setOp sets the operation id stamped on spans begun from now on.
func (t *tracer) setOp(op int) { t.op = op }

// begin opens a span named name under the innermost open span and
// returns its id.
func (t *tracer) begin(name string) int {
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: t.op, Name: name, Start: time.Since(t.t0)})
	t.stack = append(t.stack, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	n := len(t.stack)
	if n == 0 || t.stack[n-1] != id {
		panic(fmt.Sprintf("perfbench: span %d ended out of order", id))
	}
	t.stack = t.stack[:n-1]
	t.spans[id-1].End = time.Since(t.t0)
}

// selfTimes sums, per operation and span name, each span's self time:
// its duration minus the part of its interval covered by its children.
// Overlapping children are counted once.
func selfTimes(spans []span) map[int]map[string]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]map[string]time.Duration)
	for _, s := range spans {
		self := s.End - s.Start - covered(s, children[s.ID])
		m := out[s.Op]
		if m == nil {
			m = make(map[string]time.Duration)
			out[s.Op] = m
		}
		m[s.Name] += self
	}
	return out
}

// covered is the length of the union of the children's intervals
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi time.Duration
	for i, x := range iv {
		switch {
		case i == 0:
			curLo, curHi = x[0], x[1]
		case x[0] > curHi:
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		case x[1] > curHi:
			curHi = x[1]
		}
	}
	if len(iv) > 0 {
		total += curHi - curLo
	}
	return total
}

// writeSpans writes the recorded spans as JSON lines to path.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
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
