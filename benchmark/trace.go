package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/bits"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"poi360/internal/lte"
	"poi360/internal/netsim"
	"poi360/internal/obs"
	"poi360/internal/simclock"
)

// maxRawSpans bounds the raw spans kept for the last traced rep (≈7 MB of
// JSON lines). A session-grid rep fires a few million clock events; the
// per-op aggregates below see every one of them, the raw list keeps the
// first maxRawSpans.
const maxRawSpans = 1 << 16

// span is one completed interval at a layer seam.
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"` // 0 = root
	Op      string `json:"op"`     // "layer.op"
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
	Rep     int    `json:"rep"`
}

// opID indexes tracer.ops.
type opID int

// opStats aggregates every span of one layer.op across the traced reps.
type opStats struct {
	name   string
	count  int64
	durNS  int64
	selfNS int64
	hist   [histBuckets]int64 // self times, log-linear buckets
}

// open is one span in progress; childNS sums its finished direct children.
type open struct {
	id      int64
	op      opID
	startNS int64
	childNS int64
}

// tracer records spans from the benchmark's own seams. A nil *tracer is the
// tracing-off state: op and begin/end are no-ops, so the harness calls them
// unconditionally.
//
// A span's self time is its duration minus the durations of its direct
// children, so the self times of a span tree sum to the root's duration.
type tracer struct {
	t0     time.Time
	stack  []open
	nextID int64
	rep    int
	ops    []opStats
	byName map[string]opID
	raw    []span // raw spans of the current rep, up to maxRawSpans
	missed int64  // raw spans beyond maxRawSpans
}

func newTracer() *tracer {
	return &tracer{
		t0:     time.Now(),
		stack:  make([]open, 0, 64),
		byName: map[string]opID{},
		raw:    make([]span, 0, maxRawSpans),
	}
}

// op interns a "layer.op" name. Seams intern once, outside the hot path.
func (t *tracer) op(name string) opID {
	if t == nil {
		return 0
	}
	if id, ok := t.byName[name]; ok {
		return id
	}
	t.ops = append(t.ops, opStats{name: name})
	id := opID(len(t.ops) - 1)
	t.byName[name] = id
	return id
}

// startRep labels the spans that follow and drops the previous rep's raw
// spans, so the ones left at the end are the last rep's.
func (t *tracer) startRep(n int) {
	if t == nil {
		return
	}
	t.rep, t.raw, t.missed = n, t.raw[:0], 0
}

func (t *tracer) begin(op opID) {
	if t == nil {
		return
	}
	t.nextID++
	t.stack = append(t.stack, open{id: t.nextID, op: op, startNS: int64(time.Since(t.t0))})
}

func (t *tracer) end() {
	if t == nil {
		return
	}
	n := len(t.stack) - 1
	o := t.stack[n]
	t.stack = t.stack[:n]
	dur := int64(time.Since(t.t0)) - o.startNS
	self := dur - o.childNS
	var parent int64
	if n > 0 {
		t.stack[n-1].childNS += dur
		parent = t.stack[n-1].id
	}
	st := &t.ops[o.op]
	st.count++
	st.durNS += dur
	st.selfNS += self
	st.hist[histBucket(self)]++
	if len(t.raw) < maxRawSpans {
		t.raw = append(t.raw, span{ID: o.id, Parent: parent, Op: st.name, StartNS: o.startNS, DurNS: dur, Rep: t.rep})
	} else {
		t.missed++
	}
}

// stat returns the aggregate for a layer.op (zero if never recorded).
func (t *tracer) stat(name string) opStats {
	if id, ok := t.byName[name]; ok {
		return t.ops[id]
	}
	return opStats{name: name}
}

// selfNSByPrefix sums the self time of every op whose name starts with p.
func (t *tracer) selfNSByPrefix(p string) (selfNS int64) {
	for i := range t.ops {
		if strings.HasPrefix(t.ops[i].name, p) {
			selfNS += t.ops[i].selfNS
		}
	}
	return selfNS
}

func (t *tracer) spans() int64 {
	var n int64
	for i := range t.ops {
		n += t.ops[i].count
	}
	return n
}

// Log-linear histogram: 8 sub-buckets per power of two, ≈6 % resolution.
const (
	histSub     = 8
	histBuckets = 64 * histSub
)

func histBucket(ns int64) int {
	if ns < histSub {
		if ns < 0 {
			return 0
		}
		return int(ns)
	}
	e := bits.Len64(uint64(ns)) - 1 // ≥ 3
	return (e-2)*histSub + int((uint64(ns)>>(uint(e)-3))&(histSub-1))
}

// histLower is the smallest value that lands in bucket b.
func histLower(b int) int64 {
	if b < histSub {
		return int64(b)
	}
	e := b/histSub + 2
	return int64(histSub+b%histSub) << (uint(e) - 3)
}

// quantileNS reads quantile q of the self-time histogram (bucket lower bound).
func (s *opStats) quantileNS(q float64) int64 {
	if s.count == 0 {
		return 0
	}
	want := int64(q * float64(s.count-1))
	var seen int64
	for b, c := range s.hist {
		seen += c
		if seen > want {
			return histLower(b)
		}
	}
	return histLower(histBuckets - 1)
}

// opSummary is the per-op line of the trace file and the printed table.
type opSummary struct {
	Op      string `json:"op"`
	Count   int64  `json:"count"`
	SelfNS  int64  `json:"self_ns"`
	SelfP50 int64  `json:"self_p50_ns"`
	SelfP99 int64  `json:"self_p99_ns"`
}

func (t *tracer) summaries() []opSummary {
	out := make([]opSummary, 0, len(t.ops))
	for i := range t.ops {
		s := &t.ops[i]
		out = append(out, opSummary{Op: s.name, Count: s.count, SelfNS: s.selfNS, SelfP50: s.quantileNS(0.5), SelfP99: s.quantileNS(0.99)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfNS > out[j].SelfNS })
	return out
}

// writeTo writes the trace as JSON lines: one "summary" line per layer.op
// over all traced reps, then the raw spans of the last rep.
func (t *tracer) writeTo(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.summaries() {
		if err := enc.Encode(struct {
			Type string `json:"type"`
			opSummary
		}{"summary", s}); err != nil {
			f.Close()
			return err
		}
	}
	if t.missed > 0 {
		fmt.Fprintf(w, "{\"type\":\"truncated\",\"spans_not_kept\":%d}\n", t.missed)
	}
	for i := range t.raw {
		if err := enc.Encode(&t.raw[i]); err != nil {
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

// tracedSched hands a component a scheduler whose every callback runs inside
// a span labelled with the component's layer. It forwards to the underlying
// scheduler call for call, so event order and sequence numbers — hence the
// simulated trajectory — are exactly those of the unwrapped run. Nothing in
// the tree type-asserts its Scheduler.
type tracedSched struct {
	simclock.Scheduler
	tr *tracer
	op opID
}

// traceSched wraps s for one component; with tracing off it returns s itself.
func traceSched(tr *tracer, s simclock.Scheduler, layerOp string) simclock.Scheduler {
	if tr == nil {
		return s
	}
	return &tracedSched{Scheduler: s, tr: tr, op: tr.op(layerOp)}
}

func (s *tracedSched) wrap(fn func()) func() {
	return func() {
		s.tr.begin(s.op)
		fn()
		s.tr.end()
	}
}

func (s *tracedSched) wrapArg(fn func(any)) func(any) {
	return func(a any) {
		s.tr.begin(s.op)
		fn(a)
		s.tr.end()
	}
}

func (s *tracedSched) Schedule(at time.Duration, fn func()) simclock.Handle {
	return s.Scheduler.Schedule(at, s.wrap(fn))
}

func (s *tracedSched) ScheduleAfter(d time.Duration, fn func()) simclock.Handle {
	return s.Scheduler.ScheduleAfter(d, s.wrap(fn))
}

func (s *tracedSched) SchedulePayload(at time.Duration, fn func(any), arg any) simclock.Handle {
	return s.Scheduler.SchedulePayload(at, s.wrapArg(fn), arg)
}

func (s *tracedSched) NewCode(h func(any)) simclock.Code {
	return s.Scheduler.NewCode(s.wrapArg(h))
}

func (s *tracedSched) Ticker(period time.Duration, fn func()) func() {
	return s.Scheduler.Ticker(period, s.wrap(fn))
}

// tracedTransport records the session → access-network calls as spans, so
// the time a session callback spends inside the transport is charged to the
// transport, not the session.
type tracedTransport struct {
	netsim.Transport
	tr                 *tracer
	send, feedback, on opID
}

func traceTransport(tr *tracer, t netsim.Transport) netsim.Transport {
	if tr == nil {
		return t
	}
	return &tracedTransport{
		Transport: t, tr: tr,
		send:     tr.op("netsim.access.send"),
		feedback: tr.op("netsim.access.send_feedback"),
		on:       tr.op("session.on_diag"),
	}
}

func (t *tracedTransport) Send(bytes int, payload any) bool {
	t.tr.begin(t.send)
	ok := t.Transport.Send(bytes, payload)
	t.tr.end()
	return ok
}

func (t *tracedTransport) SendFeedback(payload any) {
	t.tr.begin(t.feedback)
	t.Transport.SendFeedback(payload)
	t.tr.end()
}

func (t *tracedTransport) SetDiagListener(fn func(lte.DiagReport)) {
	t.Transport.SetDiagListener(func(rep lte.DiagReport) {
		t.tr.begin(t.on)
		fn(rep)
		t.tr.end()
	})
}

// SetProbe and DiagStalled forward the two optional methods session.Session
// discovers on its transport by type assertion.
func (t *tracedTransport) SetProbe(p *obs.Probe) {
	if tp, ok := t.Transport.(interface{ SetProbe(*obs.Probe) }); ok {
		tp.SetProbe(p)
	}
}

func (t *tracedTransport) DiagStalled() int64 {
	if ds, ok := t.Transport.(interface{ DiagStalled() int64 }); ok {
		return ds.DiagStalled()
	}
	return 0
}

// traceDeliver wraps a transport → session delivery callback in a span.
func traceDeliver(tr *tracer, layerOp string, fn func(any)) func(any) {
	if tr == nil {
		return fn
	}
	op := tr.op(layerOp)
	return func(a any) {
		tr.begin(op)
		fn(a)
		tr.end()
	}
}
