package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// kinds is how many latency classes a workload reports (a, b, c).
const kinds = 3

// recorder collects one phase of a workload: per-class latencies,
// completed and failed operations, open-loop generator lag and the
// spans of every operation.
type recorder struct {
	limit time.Duration // goodput latency limit

	lat      [kinds]samples
	ops      atomic.Int64 // completed correctly
	good     atomic.Int64 // … and within limit
	attempts atomic.Int64
	failed   atomic.Int64

	failMu sync.Mutex
	fails  []string // the first few failure messages

	lag        samples // open loop: send time minus due time
	backlogMax atomic.Int64

	tr *tracer // nil: spans off
}

func newRecorder(limit time.Duration, tr *tracer) *recorder {
	return &recorder{limit: limit, tr: tr}
}

// done records one attempted operation of class k that took d; a
// non-nil err counts it as failed.
func (r *recorder) done(k int, d time.Duration, err error) {
	r.attempts.Add(1)
	if err != nil {
		r.fail(err)
		return
	}
	r.ops.Add(1)
	if d <= r.limit {
		r.good.Add(1)
	}
	if k >= 0 {
		r.lat[k].add(d)
	}
}

// check records one attempted correctness check outside the timed
// operations.
func (r *recorder) check(err error) {
	r.attempts.Add(1)
	if err != nil {
		r.fail(err)
	}
}

func (r *recorder) fail(err error) {
	r.failed.Add(1)
	r.failMu.Lock()
	if len(r.fails) < 8 {
		r.fails = append(r.fails, err.Error())
	}
	r.failMu.Unlock()
}

// absorb adds another recorder's attempts and failures (warm-up and
// post-run checks count towards correctness, not towards latency).
func (r *recorder) absorb(o *recorder) {
	r.attempts.Add(o.attempts.Load())
	r.failed.Add(o.failed.Load())
	o.failMu.Lock()
	for _, f := range o.fails {
		if len(r.fails) < 8 {
			r.fails = append(r.fails, f)
		}
	}
	o.failMu.Unlock()
}

// span is one traced interval: an operation (parent 0) or a call the
// benchmark made inside one.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are summarised, and written out,
// when the run ends.
type tracer struct {
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// opSpan is the trace context of one operation, carried in its
// context so that the HTTP transport can attach its spans.
type opSpan struct {
	tr    *tracer
	id    int64
	start time.Time
	http  atomic.Int64 // HTTP exchange time inside the operation
}

type opSpanKey struct{}

// begin starts an operation span. It works on a nil tracer, where it
// only accumulates HTTP time.
func (t *tracer) begin(ctx context.Context, start time.Time) (context.Context, *opSpan) {
	op := &opSpan{tr: t, start: start}
	if t != nil {
		op.id = t.next.Add(1)
	}
	return context.WithValue(ctx, opSpanKey{}, op), op
}

func spanOf(ctx context.Context) *opSpan {
	op, _ := ctx.Value(opSpanKey{}).(*opSpan)
	return op
}

// child records a call made inside the operation.
func (op *opSpan) child(name string, start, end time.Time) {
	if op == nil || op.tr == nil {
		return
	}
	op.tr.add(span{ID: op.tr.next.Add(1), Parent: op.id, Name: name, Start: int64(start.Sub(op.tr.t0)), End: int64(end.Sub(op.tr.t0))})
}

// end records the operation itself.
func (op *opSpan) end(name string, end time.Time) {
	if op.tr == nil {
		return
	}
	op.tr.add(span{ID: op.id, Name: name, Start: int64(op.start.Sub(op.tr.t0)), End: int64(end.Sub(op.tr.t0))})
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// layerTimes sums each span name's self time (its duration minus the
// part its children cover) and returns the totals with the summed
// operation time. All spans of an operation are its children; one that
// lies inside another (an HTTP exchange inside a client call) is taken
// out of the outer one's self time.
func (t *tracer) layerTimes() (self map[string]int64, opTotal int64, ops int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	byParent := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			byParent[s.Parent] = append(byParent[s.Parent], s)
		}
	}
	self = map[string]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			continue
		}
		ops++
		d := s.End - s.Start
		opTotal += d
		covered := coverage(byParent[s.ID])
		self["op"] += d - covered
		kids := byParent[s.ID]
		for _, c := range kids {
			var inner []span
			for _, x := range kids {
				if x.ID != c.ID && x.Start >= c.Start && x.End <= c.End {
					inner = append(inner, x)
				}
			}
			self[c.Name] += c.End - c.Start - coverage(inner)
		}
	}
	return self, opTotal, ops
}

// counts is the number of spans of each name.
func (t *tracer) counts() map[string]int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := map[string]int64{}
	for _, s := range t.spans {
		n[s.Name]++
	}
	return n
}

// coverage is the length of the union of the spans' intervals.
func coverage(spans []span) int64 {
	if len(spans) == 0 {
		return 0
	}
	s := append([]span(nil), spans...)
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j].Start < s[j-1].Start; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	var total int64
	curS, curE := s[0].Start, s[0].End
	for _, x := range s[1:] {
		if x.Start > curE {
			total += curE - curS
			curS, curE = x.Start, x.End
			continue
		}
		if x.End > curE {
			curE = x.End
		}
	}
	return total + curE - curS
}
