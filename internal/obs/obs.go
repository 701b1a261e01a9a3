// Package obs is the deterministic telemetry bus of the reproduction: a
// typed, sim-clock-stamped event stream emitted by the hot paths (session
// frame pipeline, FBCC/GCC rate control, the LTE cell's grant scheduler,
// the network links, and the fault-injection scripts), with a
// counters/histogram registry, one trace file format (P6T, binary.go)
// rendered as JSONL on demand, and a congestion-episode analyzer that
// reconstructs FBCC's trigger → pin → 2-RTT hold → release cycles
// (Eqs. 3–6) from the stream.
//
// # Determinism contract
//
// Probes observe — they never mutate simulation state, consume randomness,
// or alter event scheduling semantics. A session (or experiment batch) run
// with observability enabled is trajectory-identical to the same run with
// it disabled: every measurement, every Result field, every report byte
// matches at any worker count. The only difference is the recorded stream.
//
// # Zero overhead when disabled
//
// Instrumentation stays permanently wired into the hot paths, so the
// disabled path must cost nothing: every probe method is nil-safe and a
// nil *Probe returns before touching memory. BenchmarkObsDisabled holds
// this at 0 allocs/op.
//
// # Emit contract when enabled
//
// An enabled Emit — retaining into a Grow-reserved slice, feeding a
// ShardAgg observer, or spilling into a warm buffer — allocates nothing
// and calls no libm function: an event is built only for an observer of
// its kind, in bus-owned storage, a spilled one is encoded from its
// fields, and the histogram bucket is read from the float's exponent bits.
// TestPerfEmitZeroAlloc holds the first half, `make escape-check` keeps
// the next escaping local out of review.
//
// # Concurrency
//
// A Bus belongs to one simulation clock's goroutine (one session, or one
// shared-cell scenario): all emissions happen on that goroutine, so the
// Bus is unsynchronized by design. Parallel sessions each own a private
// Bus; cross-session aggregation (ExperimentAgg) is synchronized.
package obs

import (
	"time"

	"poi360/internal/trace"
)

// Event is one telemetry record: a kind, the simulation instant, the
// emitting sub-stream (session index, UE id — -1 for scenario-level
// events), and up to four kind-specific values whose meaning (and JSONL
// key) comes from the kind's metadata. A fixed-shape struct keeps the
// emit path allocation-free and the stream trivially serializable.
type Event struct {
	At   time.Duration
	Kind Kind
	Sub  int32
	A    float64
	B    float64
	C    float64
	D    float64
}

// Bus collects the telemetry of one simulation: the event stream plus the
// per-kind counters and histograms of the registry. Create with NewBus,
// hand Probe(sub) handles to the components, read Events()/Table() after
// the clock has run. Not safe for concurrent use (see the package doc).
type Bus struct {
	events []Event
	retain bool
	counts [NumKinds]int64
	hists  [NumKinds]Histogram
	gauges map[string]float64

	// onEvent, when set, sees every emitted event of a kind whose bit is
	// set in wants, in emission order — the streaming-aggregation hook
	// (ShardAgg binds its episode tracker here). The pointer is to cur,
	// which the next observed emission overwrites: an observer copies what
	// it keeps and must not emit on the same bus.
	onEvent func(*Event)
	wants   uint32
	cur     Event

	// Spill state (see sink.go): when sink is non-nil, events are
	// binary-encoded into binbuf instead of retained, and Flush hands the
	// buffer to the shared BinWriter under this bus's shard marker.
	sink          *BinWriter
	shard         int32
	enc           EventEncoder
	binbuf        []byte
	flushAt       int
	spilledGauges bool
}

// NewBus creates a bus that records every event kind.
func NewBus() *Bus { return &Bus{gauges: map[string]float64{}, retain: true} }

// Probe returns an emit handle bound to the given sub-stream id. Handing
// out one probe per session (or per UE) lets a shared bus attribute every
// event without the emitters knowing about each other.
func (b *Bus) Probe(sub int32) *Probe {
	if b == nil {
		return nil
	}
	return &Probe{bus: b, sub: sub}
}

// record is the one emit path: a counter, the kind's histogram bucket,
// the observer when it wants the kind, and then the event's fields either
// encoded straight into the spill buffer or appended to the retained
// stream. No Event is built for a kind nobody observes.
func (b *Bus) record(at time.Duration, k Kind, sub int32, a, v, c, d float64) {
	b.counts[k]++
	if h := kinds[k].hist; h >= 0 {
		b.hists[k].Observe(field(h, a, v, c, d))
	}
	if b.wants&(1<<k) != 0 {
		// The event is built in bus-owned storage: a local whose address
		// goes to the observer (an opaque func value) would be
		// heap-allocated per event. TestPerfEmitZeroAlloc and
		// scripts/escape_check.sh hold this. Field by field: a composite
		// literal is built on the stack and copied in wide loads that
		// cannot forward from its narrow stores.
		e := &b.cur
		e.At, e.Kind, e.Sub, e.A, e.B, e.C, e.D = at, k, sub, a, v, c, d
		b.onEvent(e)
	}
	switch {
	case b.sink != nil:
		// The spill (sink.go); the marker test is binPending's, inlined.
		if len(b.binbuf) == 0 {
			b.binbuf = AppendShardMarker(b.binbuf, b.shard)
		}
		b.binbuf = b.enc.appendEvent(b.binbuf, at, k, sub, a, v, c, d)
		if b.flushAt > 0 && len(b.binbuf) >= b.flushAt {
			b.Flush()
		}
	case b.retain:
		b.events = append(b.events, Event{At: at, Kind: k, Sub: sub, A: a, B: v, C: c, D: d})
	}
}

// Bus.wants has a bit for every kind.
var _ [32 - NumKinds]struct{}

func field(i int8, a, b, c, d float64) float64 {
	switch i {
	case 0:
		return a
	case 1:
		return b
	case 2:
		return c
	default:
		return d
	}
}

// Events returns the recorded stream in emission order. On a
// discrete-event clock that is timestamp order with FIFO ties; on the bus
// of an advanced city cell it is each UE's own timestamp order, while one
// UE's subframes may all come before the next UE's (the cell runs an
// uncontended stretch row by row). The slice is owned by the bus; callers
// must not mutate it.
func (b *Bus) Events() []Event { return b.events }

// Len reports how many events are currently recorded.
func (b *Bus) Len() int { return len(b.events) }

// Count reports how many events of kind k were emitted.
func (b *Bus) Count(k Kind) int64 { return b.counts[k] }

// Hist returns the histogram of kind k's designated field (zero-valued
// for kinds without one).
func (b *Bus) Hist(k Kind) *Histogram { return &b.hists[k] }

// SetGauge records a named point-in-time value (session summaries set
// these at finalize). Gauges render — and spill — sorted by name.
func (b *Bus) SetGauge(name string, v float64) { b.gauges[name] = v }

// Gauge reads a named gauge (ok is false when it was never set).
func (b *Bus) Gauge(name string) (float64, bool) {
	v, ok := b.gauges[name]
	return v, ok
}

// DisableRetention stops the bus from materializing events in memory:
// counters, histograms, gauges, sink spilling, and stream observers all
// still see the full stream, but Events stays empty and Grow becomes a
// no-op. This is what lets city-scale runs stream telemetry with bounded
// memory.
func (b *Bus) DisableRetention() { b.retain = false }

// Ingest replays an externally decoded event through the bus exactly as
// if it had been emitted: counters, histograms, observers, retention and
// spilling all apply. The binary decode path uses it to rebuild per-shard
// registries.
func (b *Bus) Ingest(e *Event) { b.record(e.At, e.Kind, e.Sub, e.A, e.B, e.C, e.D) }

// observe registers fn to see every emitted event of the given kinds, in
// emission order (see Events). One observer per bus; ShardAgg binds its
// per-shard episode tracker here. fn must not retain the *Event past the
// call (it points into the bus).
func (b *Bus) observe(fn func(*Event), ks ...Kind) {
	b.onEvent, b.wants = fn, 0
	for _, k := range ks {
		b.wants |= 1 << k
	}
}

// absorb merges src's registry into b: counts and histograms add, gauges
// overwrite (the caller controls merge order — ShardAgg folds shards in
// ascending shard-id order so the merge is deterministic). Events are
// not merged; an absorbing bus is a registry view.
func (b *Bus) absorb(src *Bus) {
	for k := range src.counts {
		b.counts[k] += src.counts[k]
		b.hists[k].Merge(&src.hists[k])
	}
	for name, v := range src.gauges {
		b.gauges[name] = v
	}
}

// Reset drops the recorded event stream (counters, histograms and gauges
// persist). Long-running consumers drain Events and Reset periodically to
// bound memory.
func (b *Bus) Reset() { b.events = b.events[:0] }

// Grow reserves storage for about n more emitted events, so steady-state
// recording never grows the event slice mid-run (the per-Emit append
// amortization showed up as measurable B/op in the session benchmarks).
// n is a hint: under-reserving merely falls back to append growth.
func (b *Bus) Grow(n int) {
	if b == nil || n <= 0 || !b.retain || b.sink != nil {
		return
	}
	if free := cap(b.events) - len(b.events); free < n {
		grown := make([]Event, len(b.events), len(b.events)+n)
		copy(grown, b.events)
		b.events = grown
	}
}

// Table renders the registry — per-kind counts, histogram stats, gauges —
// as a deterministic trace table (kinds in declaration order, gauges
// sorted by name).
func (b *Bus) Table() *trace.Table { return registryTable(b) }

// Probe is a nil-safe emit handle bound to one bus and sub-stream. The
// zero probe (nil) is the disabled state: every method returns
// immediately, which is what keeps permanently-wired instrumentation free
// when observability is off.
type Probe struct {
	bus *Bus
	sub int32
}

// Emit records one event. Unused trailing values should be zero; their
// JSONL keys come from the kind's metadata. Safe on a nil probe.
func (p *Probe) Emit(at time.Duration, k Kind, a, b, c, d float64) {
	if p == nil {
		return
	}
	p.bus.record(at, k, p.sub, a, b, c, d)
}

// With derives a probe on the same bus with a different sub-stream id
// (the cell probe derives per-UE probes this way). Safe on a nil probe,
// returning nil.
func (p *Probe) With(sub int32) *Probe {
	if p == nil {
		return nil
	}
	return &Probe{bus: p.bus, sub: sub}
}

// Sub reports the probe's sub-stream id (0 for a nil probe).
func (p *Probe) Sub() int32 {
	if p == nil {
		return 0
	}
	return p.sub
}

// SetGauge forwards to the bus registry. Safe on a nil probe.
func (p *Probe) SetGauge(name string, v float64) {
	if p == nil {
		return
	}
	p.bus.SetGauge(name, v)
}

// Grow forwards a capacity reservation to the probe's bus (see Bus.Grow).
// Safe on a nil probe, so sessions can reserve unconditionally.
func (p *Probe) Grow(n int) {
	if p == nil {
		return
	}
	p.bus.Grow(n)
}
