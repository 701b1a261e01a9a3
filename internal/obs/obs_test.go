package obs

import (
	"bytes"
	"encoding/json"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestNilSafety: the disabled state is a nil probe, and every method on it
// must be a no-op — this is what lets instrumentation stay permanently
// wired into the hot paths.
func TestNilSafety(t *testing.T) {
	var p *Probe
	p.Emit(time.Second, FBCCTrigger, 1, 2, 3, 4)
	p.SetGauge("x", 1)
	p.Rebind(NewBus())
	if q := p.With(7); q != nil {
		t.Fatalf("nil probe With() = %v, want nil", q)
	}
	if p.Sub() != 0 {
		t.Fatalf("nil probe Sub() = %d, want 0", p.Sub())
	}
	var b *Bus
	if b.Probe(0) != nil {
		t.Fatalf("nil bus Probe() must be nil")
	}
}

// TestBusRecordsAndCounts: an unfiltered bus records every kind and the
// registry counts match.
func TestBusRecordsAndCounts(t *testing.T) {
	b := NewBus()
	p := b.Probe(3)
	p.Emit(10*time.Millisecond, FrameEncode, 1, 2e6, 30000, 0)
	p.Emit(20*time.Millisecond, FBCCTrigger, 15000, 9000, 11, 0)
	p.Emit(30*time.Millisecond, FBCCTrigger, 16000, 9100, 12, 0)
	if b.Len() != 3 {
		t.Fatalf("Len = %d, want 3", b.Len())
	}
	if got := b.Count(FBCCTrigger); got != 2 {
		t.Fatalf("Count(FBCCTrigger) = %d, want 2", got)
	}
	ev := b.Events()
	if ev[0].Kind != FrameEncode || ev[0].Sub != 3 || ev[0].B != 2e6 {
		t.Fatalf("first event mangled: %+v", ev[0])
	}
	if ev[1].At != 20*time.Millisecond {
		t.Fatalf("timestamp mangled: %v", ev[1].At)
	}
}

// TestProbeRebind: a rebound probe emits on its new bus under the same
// sub-stream id, and its old bus sees nothing more.
func TestProbeRebind(t *testing.T) {
	a, b := NewBus(), NewBus()
	p := a.Probe(5)
	p.Emit(time.Millisecond, FrameEncode, 1, 2, 3, 0)
	p.Rebind(b)
	p.Emit(2*time.Millisecond, FrameEncode, 4, 5, 6, 0)
	if a.Len() != 1 || b.Len() != 1 {
		t.Fatalf("old bus holds %d events, new bus %d; want 1 and 1", a.Len(), b.Len())
	}
	if e := b.Events()[0]; e.Sub != 5 || e.A != 4 {
		t.Fatalf("rebound emission mangled: %+v", e)
	}
}

// TestBusFiltering: the bus records every kind, so a consumer after a
// subset filters the event slice; counters and histograms cover
// everything.
func TestBusFiltering(t *testing.T) {
	b := NewBus()
	p := b.Probe(0)
	p.Emit(time.Millisecond, FrameEncode, 1, 2, 3, 0)
	p.Emit(2*time.Millisecond, FBCCTrigger, 15000, 9000, 10, 0)
	p.Emit(3*time.Millisecond, LTEGrant, 5000, 2048, 1.5, 0)
	if b.Len() != 3 {
		t.Fatalf("Len = %d, want 3", b.Len())
	}
	var kept []Event
	for _, e := range b.Events() {
		if e.Kind == FBCCTrigger || e.Kind == FBCCRelease {
			kept = append(kept, e)
		}
	}
	if len(kept) != 1 || kept[0].Kind != FBCCTrigger {
		t.Fatalf("filtered stream = %+v, want the one trigger", kept)
	}
	if b.Count(FrameEncode) != 1 || b.Count(LTEGrant) != 1 {
		t.Fatalf("counters must cover every kind")
	}
	if b.Hist(LTEGrant).N() != 1 {
		t.Fatalf("histograms must cover every kind")
	}
}

// TestBusReset drops the stream but keeps the registry.
func TestBusReset(t *testing.T) {
	b := NewBus()
	b.Probe(0).Emit(time.Second, FrameEncode, 1, 2, 3, 0)
	b.SetGauge("g", 42)
	b.Reset()
	if b.Len() != 0 {
		t.Fatalf("Reset left %d events", b.Len())
	}
	if b.Count(FrameEncode) != 1 {
		t.Fatalf("Reset must not clear counters")
	}
}

// TestKindMetadata: names are unique and dotted, round-trip through
// KindByName, and field lists are contiguous (no gap before a named field,
// since the JSONL writer stops at the first empty name).
func TestKindMetadata(t *testing.T) {
	seen := map[string]bool{}
	for k := Kind(0); k < NumKinds; k++ {
		name := k.String()
		if name == "" || !strings.Contains(name, ".") {
			t.Fatalf("kind %d has a bad name %q", k, name)
		}
		if seen[name] {
			t.Fatalf("duplicate kind name %q", name)
		}
		seen[name] = true
		got, ok := KindByName(name)
		if !ok || got != k {
			t.Fatalf("KindByName(%q) = (%v, %v), want (%v, true)", name, got, ok, k)
		}
		fields := k.Fields()
		gap := false
		for _, f := range fields {
			if f == "" {
				gap = true
			} else if gap {
				t.Fatalf("kind %v has a field after an empty slot: %v", k, fields)
			}
		}
	}
	if _, ok := KindByName("no.such.kind"); ok {
		t.Fatalf("KindByName must reject unknown names")
	}
	if got := NumKinds.String(); !strings.Contains(got, "?") {
		t.Fatalf("out-of-range String() = %q", got)
	}
}

// TestHistogram covers the fixed-footprint log2 histogram: exact moments,
// quantile monotonicity, and clamping to the observed range.
func TestHistogram(t *testing.T) {
	var h Histogram
	if h.N() != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 || h.Quantile(0.5) != 0 {
		t.Fatalf("zero histogram must report zeros")
	}
	for _, v := range []float64{1, 2, 4, 8, 16, 100, 0.25} {
		h.Observe(v)
	}
	if h.N() != 7 {
		t.Fatalf("N = %d", h.N())
	}
	if got, want := h.Mean(), (1+2+4+8+16+100+0.25)/7; got != want {
		t.Fatalf("Mean = %g, want %g", got, want)
	}
	if h.Min() != 0.25 || h.Max() != 100 {
		t.Fatalf("min/max = %g/%g", h.Min(), h.Max())
	}
	last := h.Quantile(0)
	for _, q := range []float64{0.1, 0.5, 0.9, 1} {
		v := h.Quantile(q)
		if v < last {
			t.Fatalf("Quantile not monotone at q=%g: %g < %g", q, v, last)
		}
		if v < h.Min() || v > h.Max() {
			t.Fatalf("Quantile(%g) = %g outside [min, max]", q, v)
		}
		last = v
	}
}

// TestJSONL parses every rendered line as JSON and checks the schema: "t",
// "kind", "sub", then the kind's named fields (unused slots omitted).
func TestJSONL(t *testing.T) {
	b := NewBus()
	p := b.Probe(2)
	p.Emit(1500*time.Millisecond, FBCCTrigger, 19456, 11832.5, 10, 0)
	p.Emit(2*time.Second, NetFaultDrop, 0, 0, 0, 0) // no named fields
	var out bytes.Buffer
	for _, e := range b.Events() {
		out.Write(append(AppendEventJSON(nil, &e), '\n'))
	}
	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2:\n%s", len(lines), out.String())
	}
	var first map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatalf("line 0 is not JSON: %v\n%s", err, lines[0])
	}
	if first["kind"] != "fbcc.trigger" || first["sub"] != float64(2) {
		t.Fatalf("bad kind/sub: %v", first)
	}
	if first["t"] != 1.5 || first["buffer_bytes"] != float64(19456) || first["streak"] != float64(10) {
		t.Fatalf("bad values: %v", first)
	}
	var second map[string]any
	if err := json.Unmarshal([]byte(lines[1]), &second); err != nil {
		t.Fatalf("line 1 is not JSON: %v", err)
	}
	if len(second) != 3 { // t, kind, sub only
		t.Fatalf("field-less kind must emit exactly t/kind/sub, got %v", second)
	}
}

// TestRegistryTable: the rendered registry is deterministic and includes
// per-kind counts, histogram columns, and sorted gauges.
func TestRegistryTable(t *testing.T) {
	b := NewBus()
	p := b.Probe(0)
	p.Emit(time.Second, FrameDisplay, 120, 34.5, 2, 0)
	p.Emit(2*time.Second, FrameDisplay, 180, 31.0, 1, 0)
	p.Emit(time.Second, ModeSwitch, 1, 2, 0, 0)
	b.SetGauge("zeta", 1)
	b.SetGauge("alpha", 2)
	s := b.Table().String()
	for _, want := range []string{"frame.display.delay_ms", "mode.switch", "gauge.alpha", "gauge.zeta"} {
		if !strings.Contains(s, want) {
			t.Fatalf("registry table missing %q:\n%s", want, s)
		}
	}
	if strings.Index(s, "gauge.alpha") > strings.Index(s, "gauge.zeta") {
		t.Fatalf("gauges not sorted:\n%s", s)
	}
	if b.Table().String() != s {
		t.Fatalf("registry table must render deterministically")
	}
}

// TestGaugeOrderingDeterministic: with several gauges set in arbitrary
// insertion order, every rendering and export path iterates them in
// sorted-key order — repeated renders are byte-identical (regression for
// the map-iteration-order bug class; ≥3 gauges so an unsorted walk has
// many chances to betray itself).
func TestGaugeOrderingDeterministic(t *testing.T) {
	names := []string{"throughput_mean_bps", "alpha", "psnr_mean_db", "zz_last", "mid_point"}
	render := func(insertion []string) string {
		b := NewBus()
		for i, name := range insertion {
			b.SetGauge(name, float64(i+1))
		}
		return b.Table().String()
	}
	reversed := append([]string(nil), names...)
	for i, j := 0, len(reversed)-1; i < j; i, j = i+1, j-1 {
		reversed[i], reversed[j] = reversed[j], reversed[i]
	}
	first := render(names)
	for run := 0; run < 8; run++ {
		if got := render(names); got != first {
			t.Fatalf("table rendering varies across runs:\n%s\nvs\n%s", got, first)
		}
	}
	sorted := append([]string(nil), names...)
	sort.Strings(sorted)
	last := -1
	for _, name := range sorted {
		idx := strings.Index(first, "gauge."+name)
		if idx < 0 {
			t.Fatalf("gauge %q missing:\n%s", name, first)
		}
		if idx < last {
			t.Fatalf("gauge %q out of sorted order:\n%s", name, first)
		}
		last = idx
	}
	// Insertion order must not leak into the rendering — values differ
	// (they encode insertion position) but row order must not.
	rev := render(reversed)
	var firstOrder, revOrder []int
	for _, name := range sorted {
		firstOrder = append(firstOrder, strings.Index(first, "gauge."+name))
		revOrder = append(revOrder, strings.Index(rev, "gauge."+name))
	}
	if !sort.IntsAreSorted(firstOrder) || !sort.IntsAreSorted(revOrder) {
		t.Fatalf("gauge row order depends on insertion order:\n%s\nvs\n%s", first, rev)
	}
}
