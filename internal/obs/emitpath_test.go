package obs

// emitpath_test.go pins the per-event contract of the emit → spill →
// replay path: the histogram bucket rule is exact on every float64
// (checked against a Frexp reference kept here, never in the product),
// non-finite values cannot crash the decode side, and neither Emit nor
// Replayer.Feed allocates in steady state.

import (
	"io"
	"math"
	"math/rand"
	"testing"
	"time"
)

// refBucket is the bucket rule written from its definition: bucket 0 takes
// NaN and everything below 1; a finite v ≥ 1 is frac × 2^exp with frac in
// [0.5, 1), i.e. v in [2^(exp-1), 2^exp), which is bucket exp; the top
// bucket is open-ended and takes +Inf.
func refBucket(v float64) int {
	switch {
	case math.IsNaN(v) || v < 1:
		return 0
	case math.IsInf(v, 1):
		return histBuckets - 1
	}
	_, exp := math.Frexp(v)
	return min(exp, histBuckets-1)
}

// edgeValues are the inputs where a logarithm-based rule goes wrong or
// panics: non-finite values, zeros, a denormal, and both neighbours of
// every power of two.
func edgeValues() []float64 {
	vals := []float64{
		math.Inf(1), math.Inf(-1), math.NaN(),
		0, math.Copysign(0, -1), math.SmallestNonzeroFloat64,
		math.Nextafter(1, 0), 1, math.Nextafter(1, 2),
		math.MaxFloat64, -math.MaxFloat64, -1, -8,
	}
	for k := 1; k <= 60; k++ {
		p := math.Ldexp(1, k)
		vals = append(vals, math.Nextafter(p, 0), p, math.Nextafter(p, math.Inf(1)))
	}
	return vals
}

func TestBucketOfExact(t *testing.T) {
	for _, v := range edgeValues() {
		if got, want := bucketOf(v), refBucket(v); got != want {
			t.Errorf("bucketOf(%g [%#016x]) = %d, want %d", v, math.Float64bits(v), got, want)
		}
	}
	// The two defects of the Floor(Log2) rule, spelled out.
	if got := bucketOf(math.Inf(1)); got != histBuckets-1 {
		t.Errorf("bucketOf(+Inf) = %d, want the top bucket %d", got, histBuckets-1)
	}
	if got := bucketOf(math.Nextafter(8, 0)); got != 3 {
		t.Errorf("bucketOf(8 − 1ulp) = %d, want 3 ([4, 8))", got)
	}

	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1_000_000; i++ {
		v := math.Float64frombits(rng.Uint64())
		if got, want := bucketOf(v), refBucket(v); got != want {
			t.Fatalf("bucketOf(%g [%#016x]) = %d, want %d", v, math.Float64bits(v), got, want)
		}
	}
}

func TestHistogramObserveNonFinite(t *testing.T) {
	var h Histogram
	h.Observe(math.Inf(1)) // indexed buckets[-9223372036854775807] before the exponent rule
	h.Observe(math.Inf(-1))
	h.Observe(math.NaN())
	if h.N() != 3 || h.buckets[histBuckets-1] != 1 || h.buckets[0] != 2 {
		t.Fatalf("non-finite samples: n=%d top=%d bottom=%d, want 3/1/2",
			h.N(), h.buckets[histBuckets-1], h.buckets[0])
	}
}

// TestReplayNonFiniteFields: EventDecoder accepts any 8 bytes as a field,
// so a stream can deliver ±Inf and NaN to the replay side's histograms.
// They must land where the reference says, not crash the tailer.
func TestReplayNonFiniteFields(t *testing.T) {
	vals := edgeValues()
	var want [histBuckets]int64
	var enc EventEncoder
	stream := AppendBinaryHeader(nil)
	stream = AppendShardMarker(stream, 5)
	for i, v := range vals {
		// LTEGrant histograms its B field.
		e := Event{At: time.Duration(i) * time.Millisecond, Kind: LTEGrant, Sub: 1, A: 1, B: v, C: v}
		stream = enc.AppendEvent(stream, &e)
		want[refBucket(v)]++
	}

	agg := NewShardAgg()
	rep := NewReplayer(agg)
	var seen int
	rep.OnEvent = func(shard int32, e *Event) {
		v := vals[seen]
		if shard != 5 || (e.B != v && !(math.IsNaN(e.B) && math.IsNaN(v))) {
			t.Fatalf("event %d: shard %d B=%g, want shard 5 B=%g", seen, shard, e.B, v)
		}
		seen++
	}
	if err := rep.Feed(stream); err != nil {
		t.Fatalf("Feed: %v", err)
	}
	if err := rep.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	merged := agg.Merged()
	if got := merged.Count(LTEGrant); got != int64(len(vals)) || seen != len(vals) {
		t.Fatalf("replayed %d events (%d seen), want %d", got, seen, len(vals))
	}
	if got := merged.Hist(LTEGrant).buckets; got != want {
		t.Fatalf("replayed buckets differ from the reference:\n got %v\nwant %v", got, want)
	}
	_ = merged.Table().String() // rendering NaN/Inf stats must not panic either
}

// TestPerfEmitZeroAlloc is the allocation gate on every enabled emit
// configuration the simulator runs, and on the replay of the stream they
// produce. The kinds alternate between a histogrammed, observer-ignored one
// and one the episode tracker acts on.
func TestPerfEmitZeroAlloc(t *testing.T) {
	const runs = 2000
	emit := func(p *Probe) func() {
		at := time.Duration(0)
		return func() {
			at += time.Millisecond
			p.Emit(at, LTEGrant, 9000, 1536, 0.5, 0)
			p.Emit(at, FBCCPin, 2.1e6, 0.24, 0, 0)
		}
	}

	t.Run("retaining", func(t *testing.T) {
		b := NewBus()
		b.Grow(2 * (runs + 1))
		if allocs := testing.AllocsPerRun(runs, emit(b.Probe(0))); allocs != 0 {
			t.Fatalf("Emit into a Grow-reserved bus allocates %.2f/op, want 0", allocs)
		}
	})

	t.Run("observer", func(t *testing.T) {
		b := NewBus()
		b.DisableRetention()
		NewShardAgg().Bind(0, b)
		if allocs := testing.AllocsPerRun(runs, emit(b.Probe(0))); allocs != 0 {
			t.Fatalf("Emit on a ShardAgg-bound bus allocates %.2f/op, want 0", allocs)
		}
	})

	t.Run("spilling", func(t *testing.T) {
		b := NewBus()
		b.DisableRetention()
		NewShardAgg().Bind(0, b)
		bw := NewBinWriter(io.Discard)
		b.SpillTo(bw, 0, 0)
		step := emit(b.Probe(0))
		barrier := func() {
			step()
			b.Flush()
			bw.Sync()
		}
		barrier() // warm the bus buffer and the sink's coalescing buffer
		if allocs := testing.AllocsPerRun(runs, barrier); allocs != 0 {
			t.Fatalf("Emit + Flush + Sync on a warm spilling bus allocates %.2f/op, want 0", allocs)
		}
		if bw.Err() != nil || bw.Bytes() == 0 {
			t.Fatalf("spill did not run: %d bytes, err %v", bw.Bytes(), bw.Err())
		}
	})

	t.Run("replay", func(t *testing.T) {
		// Two shards, alternating every record pair, so the replayer's
		// shard switch is on the measured path too.
		var encs [2]EventEncoder
		var feeds [][]byte
		for i := 0; i < runs+2; i++ {
			shard := int32(i & 1)
			at := time.Duration(i) * time.Millisecond
			unit := AppendShardMarker(nil, shard)
			unit = encs[shard].AppendEvent(unit, &Event{At: at, Kind: LTEGrant, Sub: 3, A: 9000, B: 1536, C: 0.5})
			unit = encs[shard].AppendEvent(unit, &Event{At: at, Kind: FBCCPin, Sub: 3, A: 2.1e6, B: 0.24})
			feeds = append(feeds, unit)
		}
		rep := NewReplayer(NewShardAgg())
		var events int
		rep.OnEvent = func(int32, *Event) { events++ }
		if err := rep.Feed(AppendBinaryHeader(nil)); err != nil {
			t.Fatal(err)
		}
		next := 0
		feed := func() {
			if err := rep.Feed(feeds[next]); err != nil {
				t.Fatalf("Feed: %v", err)
			}
			next++
		}
		feed() // first sight of each shard creates and binds its bus
		feed()
		if allocs := testing.AllocsPerRun(runs-1, feed); allocs != 0 {
			t.Fatalf("steady-state Replayer.Feed allocates %.2f per 3-record unit, want 0", allocs)
		}
		if events != 2*next || rep.Pending() != 0 {
			t.Fatalf("replayed %d events over %d units (%d bytes pending)", events, next, rep.Pending())
		}
	})
}
