package obs

// binary_oracle_test.go keeps the event encoder as first written — an
// Event in, binary.AppendVarint for the varints, one AppendUint64 per named
// value — as the reference the production field encoder (appendEvent, fed
// by a spilling bus's emit path) must match byte for byte.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand"
	"testing"
	"time"
)

// refEncoder is the reference EventEncoder: one shard's delta chain.
type refEncoder struct {
	last time.Duration
}

// appendEvent is the reference encoding of one event record.
func (enc *refEncoder) appendEvent(dst []byte, e *Event) []byte {
	if e.Kind >= NumKinds || e.At < 0 {
		panic(ErrBinMarshal)
	}
	at := len(dst)
	dst = append(dst, 0, byte(e.Kind)) // bodyLen patched below (body ≤ 48 bytes)
	dst = binary.AppendVarint(dst, int64(e.Sub))
	dst = binary.AppendVarint(dst, int64(e.At-enc.last))
	enc.last = e.At
	vals := [4]float64{e.A, e.B, e.C, e.D}
	for i := 0; i < int(fieldCount[e.Kind]); i++ {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(vals[i]))
	}
	dst[at] = byte(len(dst) - at - 1)
	return dst
}

// oracleValue draws an event value, the awkward ones often: NaN, ±Inf,
// −0, 0, or any bit pattern.
func oracleValue(rng *rand.Rand) float64 {
	switch rng.Intn(8) {
	case 0:
		return math.NaN()
	case 1:
		return math.Inf(1)
	case 2:
		return math.Inf(-1)
	case 3:
		return math.Copysign(0, -1)
	case 4:
		return 0
	case 5:
		return float64(rng.Intn(1 << 20))
	}
	return math.Float64frombits(rng.Uint64())
}

// oracleAt draws the next timestamp after last: a zero delta, a negative
// one (down to 0), one of 2³⁵ ns or more, a jump anywhere in the int64
// range (deltas whose varints take nine or ten bytes), or a small positive
// one.
func oracleAt(rng *rand.Rand, last time.Duration) time.Duration {
	switch rng.Intn(6) {
	case 0:
		return last
	case 1:
		return time.Duration(rng.Int63n(int64(last) + 1))
	case 2:
		return last + time.Duration(1<<35+rng.Int63n(1<<40))
	case 3:
		if rng.Intn(8) == 0 {
			return time.Duration(rng.Int63())
		}
	}
	return last + time.Duration(rng.Int63n(2_000_000))
}

// TestSpillEmitMatchesReferenceEncoder runs random event sequences through
// Probe.Emit on a spilling, ShardAgg-bound bus and holds the stream to the
// reference encoder's bytes, flush unit by flush unit: every kind, the
// extreme subs, zero, negative and ≥ 2³⁵ deltas, NaN, ±Inf and −0 (values
// past a kind's named fields included, which neither encoder writes). The
// episode tracker, which now sees only the fbcc.* kinds, must still
// reconstruct the episodes of the whole sequence.
func TestSpillEmitMatchesReferenceEncoder(t *testing.T) {
	subs := []int32{-1, 0, math.MaxInt32, math.MinInt32, 1, 63, 64, 8191, 8192, 300}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var out bytes.Buffer
		bw := NewBinWriter(&out)
		b := NewBus()
		b.DisableRetention()
		agg := NewShardAgg()
		const shard = 7
		agg.Bind(shard, b)
		b.SpillTo(bw, shard, 0)
		probes := make([]*Probe, len(subs))
		for i, sub := range subs {
			probes[i] = b.Probe(sub)
		}

		want := AppendBinaryHeader(nil)
		var ref refEncoder
		var events []Event
		unit := 0 // events in the open flush unit
		at := time.Duration(0)
		n := 200 + rng.Intn(2000)
		for i := 0; i < n; i++ {
			at = oracleAt(rng, at)
			e := Event{
				At:   at,
				Kind: Kind(rng.Intn(int(NumKinds))),
				Sub:  subs[rng.Intn(len(subs))],
				A:    oracleValue(rng), B: oracleValue(rng), C: oracleValue(rng), D: oracleValue(rng),
			}
			if i < int(NumKinds) {
				e.Kind = Kind(i) // every kind at least once
			}
			for j, sub := range subs {
				if sub == e.Sub {
					probes[j].Emit(e.At, e.Kind, e.A, e.B, e.C, e.D)
				}
			}
			if unit == 0 {
				want = AppendShardMarker(want, shard)
			}
			want = ref.appendEvent(want, &e)
			events = append(events, e)
			unit++
			if rng.Intn(50) == 0 {
				b.Flush()
				unit = 0
			}
		}
		b.Sync()
		if got := out.Bytes(); string(got) != string(want) {
			i := 0
			for i < len(got) && i < len(want) && got[i] == want[i] {
				i++
			}
			t.Fatalf("seed %d: spilled stream (%d B) differs from the reference (%d B) at byte %d", seed, len(got), len(want), i)
		}
		if got, want := fmt.Sprint(agg.Episodes()), fmt.Sprint(Episodes(events)); got != want {
			t.Fatalf("seed %d: tracked episodes differ from the reference:\n got %s\nwant %s", seed, got, want)
		}
		for k := Kind(0); k < NumKinds; k++ {
			var c int64
			for i := range events {
				if events[i].Kind == k {
					c++
				}
			}
			if b.Count(k) != c {
				t.Fatalf("seed %d: %s counted %d, want %d", seed, k, b.Count(k), c)
			}
		}
	}
}

// TestAppendEventMatchesReferenceEncoder holds the exported AppendEvent, a
// wrapper over the same field encoder, to the reference on one chain that
// crosses every kind and the extreme subs and deltas.
func TestAppendEventMatchesReferenceEncoder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var enc EventEncoder
	var ref refEncoder
	var got, want []byte
	at := time.Duration(0)
	for i := 0; i < 5000; i++ {
		at = oracleAt(rng, at)
		e := Event{At: at, Kind: Kind(i % int(NumKinds)), Sub: int32(rng.Uint32()),
			A: oracleValue(rng), B: oracleValue(rng), C: oracleValue(rng), D: oracleValue(rng)}
		got = enc.AppendEvent(got, &e)
		want = ref.appendEvent(want, &e)
	}
	if string(got) != string(want) {
		t.Fatalf("AppendEvent stream (%d B) differs from the reference (%d B)", len(got), len(want))
	}
}

// BenchmarkSpillEmit is the city's per-event telemetry path: an lte.grant
// (histogrammed, not observed) and an fbcc.pin (observed by the episode
// tracker) per op on a spilling, ShardAgg-bound bus, flushed and synced
// every 1 000 events. It must not allocate.
func BenchmarkSpillEmit(b *testing.B) {
	bus := NewBus()
	bus.DisableRetention()
	NewShardAgg().Bind(0, bus)
	bw := NewBinWriter(io.Discard)
	bus.SpillTo(bw, 0, 0)
	grant, pin := bus.Probe(17), bus.Probe(3)
	b.ReportAllocs()
	at := time.Duration(0)
	for i := -500; i < b.N; i++ { // the first 500 ops warm both buffers
		if i == 0 {
			b.ResetTimer()
		}
		at += time.Millisecond
		grant.Emit(at, LTEGrant, 9000, 1536, 0.5, 0)
		pin.Emit(at, FBCCPin, 2.1e6, 0.24, 0, 0)
		if (i+1)%500 == 0 {
			bus.Flush()
			bw.Sync()
		}
	}
}
