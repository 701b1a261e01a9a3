package obs

import (
	"bytes"
	"encoding/json"
	"slices"
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

// A bus records each emission with its probe's sub, counts and
// histograms every kind, and keeps counters across Reset, which drops the
// events; a rebound probe emits into its new bus.
func TestBus(t *testing.T) {
	b := NewBus()
	p := b.Probe(3)
	t.Run("RecordsAndCounts", func(t *testing.T) {
		p.Emit(10*time.Millisecond, FrameEncode, 1, 2e6, 30000, 0)
		p.Emit(20*time.Millisecond, FBCCTrigger, 15000, 9000, 11, 0)
		p.Emit(30*time.Millisecond, FBCCTrigger, 16000, 9100, 12, 0)
		p.With(4).Emit(40*time.Millisecond, LTEGrant, 5000, 2048, 1.5, 0)
		want := []Event{{At: 10 * time.Millisecond, Kind: FrameEncode, Sub: 3, A: 1, B: 2e6, C: 30000},
			{At: 20 * time.Millisecond, Kind: FBCCTrigger, Sub: 3, A: 15000, B: 9000, C: 11},
			{At: 30 * time.Millisecond, Kind: FBCCTrigger, Sub: 3, A: 16000, B: 9100, C: 12},
			{At: 40 * time.Millisecond, Kind: LTEGrant, Sub: 4, A: 5000, B: 2048, C: 1.5}}
		firstDiff(t, "event", b.Events(), want)
		if b.Len() != 4 || b.Count(FBCCTrigger) != 2 || b.Count(FrameEncode) != 1 || b.Hist(LTEGrant).N() != 1 {
			t.Fatalf("Len %d, counts %d/%d, %d grants histogrammed", b.Len(), b.Count(FBCCTrigger), b.Count(FrameEncode), b.Hist(LTEGrant).N())
		}
	})
	t.Run("Reset", func(t *testing.T) {
		b.SetGauge("g", 42)
		b.Reset()
		if b.Len() != 0 || b.Count(FrameEncode) != 1 {
			t.Fatalf("Reset left %d events and %d frame.encode counted; want 0 and 1", b.Len(), b.Count(FrameEncode))
		}
	})
	t.Run("ProbeRebind", func(t *testing.T) {
		c := NewBus()
		p.Rebind(c)
		p.Emit(50*time.Millisecond, FrameEncode, 4, 5, 6, 0)
		if b.Len() != 0 || c.Len() != 1 || c.Events()[0].Sub != 3 || c.Events()[0].A != 4 {
			t.Fatalf("rebound probe: old bus %d events, new bus %v", b.Len(), c.Events())
		}
	})
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

// TestRegistryTable: the rendered registry lists per-kind counts and
// histogram columns, and its gauges in sorted-name order whatever the
// order they were set in; every render is byte-identical (regression for
// the map-iteration-order bug class; five gauges, so an unsorted walk has
// many chances to betray itself).
func TestRegistryTable(t *testing.T) {
	names := []string{"throughput_mean_bps", "alpha", "psnr_mean_db", "zz_last", "mid_point"}
	render := func(insertion []string) string {
		b := NewBus()
		p := b.Probe(0)
		p.Emit(time.Second, FrameDisplay, 120, 34.5, 2, 0)
		p.Emit(2*time.Second, FrameDisplay, 180, 31.0, 1, 0)
		p.Emit(time.Second, ModeSwitch, 1, 2, 0, 0)
		for i, name := range insertion {
			b.SetGauge(name, float64(i+1))
		}
		return b.Table().String()
	}
	first := render(names)
	for _, want := range []string{"frame.display.delay_ms", "mode.switch"} {
		if !strings.Contains(first, want) {
			t.Fatalf("registry table missing %q:\n%s", want, first)
		}
	}
	for range 8 {
		if got := render(names); got != first {
			t.Fatalf("table rendering varies across runs:\n%s\nvs\n%s", got, first)
		}
	}
	// Values differ (they encode insertion position); row order must not.
	sorted, reversed := slices.Clone(names), slices.Clone(names)
	slices.Sort(sorted)
	slices.Reverse(reversed)
	for _, s := range []string{first, render(reversed)} {
		last := -1
		for _, name := range sorted {
			idx := strings.Index(s, "gauge."+name)
			if idx <= last {
				t.Fatalf("gauge %q missing or out of sorted order:\n%s", name, s)
			}
			last = idx
		}
	}
}
