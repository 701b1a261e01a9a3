package obs

// The telemetry pipeline's differential harness. A seeded tape of events
// (eventTape: every kind, extreme subs, zero, negative and ≥ 2³⁵
// timestamp deltas, NaN, ±Inf, −0 and random bits) is emitted through
// spilling, ShardAgg-bound buses (spillTape) and encoded by the encoder as
// first written (refEncoder): the stream must be the reference's bytes,
// and decoding it (decodeAll) or replaying it in any chunking (replay) must
// give the tape back, to its first divergence (firstDiff).

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// refEncoder is the event encoder as first written — an Event in,
// binary.AppendVarint for the varints, one AppendUint64 per named value —
// for one shard's delta chain.
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

// tapeSubs are the subs a tape draws from: the extremes and the varint
// length boundaries.
var tapeSubs = []int32{-1, 0, math.MaxInt32, math.MinInt32, 1, 63, 64, 8191, 8192, 300}

// tapeEvent is one emission of a tape: the event, the shard whose bus
// emits it, and whether that bus flushes after it.
type tapeEvent struct {
	Event
	shard int32
	flush bool
}

// eventTape draws 200–2199 events over the given shards, every kind at
// least once, each shard's timestamps on a chain of its own.
func eventTape(seed int64, shards int32) []tapeEvent {
	rng := rand.New(rand.NewSource(seed))
	at := make([]time.Duration, shards)
	n := 200 + rng.Intn(2000)
	tape := make([]tapeEvent, n)
	for i := range tape {
		s := rng.Int31n(shards)
		at[s] = oracleAt(rng, at[s])
		e := Event{At: at[s], Kind: Kind(rng.Intn(int(NumKinds))), Sub: tapeSubs[rng.Intn(len(tapeSubs))],
			A: oracleValue(rng), B: oracleValue(rng), C: oracleValue(rng), D: oracleValue(rng)}
		if i < int(NumKinds) {
			e.Kind = Kind(i)
		}
		tape[i] = tapeEvent{e, s, rng.Intn(50) == 0}
	}
	return tape
}

// canonical is e as the wire carries it: values past the kind's named
// fields are zero.
func canonical(e Event) Event {
	vals := [4]*float64{&e.A, &e.B, &e.C, &e.D}
	for i := int(fieldCount[e.Kind]); i < 4; i++ {
		*vals[i] = 0
	}
	return e
}

// bits is e with its values as bit patterns, so NaNs compare.
func bits(e Event) [7]uint64 {
	return [7]uint64{uint64(e.At), uint64(e.Kind), uint64(e.Sub),
		math.Float64bits(e.A), math.Float64bits(e.B), math.Float64bits(e.C), math.Float64bits(e.D)}
}

// spillTape emits tape on one spilling, ShardAgg-bound bus per shard (its
// subs through their own probes), all into one sink; it returns the
// stream, the live aggregate and the buses.
func spillTape(tape []tapeEvent, shards int32) ([]byte, *ShardAgg, []*Bus) {
	var out bytes.Buffer
	bw := NewBinWriter(&out)
	agg := NewShardAgg()
	buses := make([]*Bus, shards)
	probes := map[[2]int32]*Probe{}
	for s := range buses {
		buses[s] = NewBus()
		buses[s].DisableRetention()
		agg.Bind(int32(s)+7, buses[s])
		buses[s].SpillTo(bw, int32(s)+7, 0)
		for _, sub := range tapeSubs {
			probes[[2]int32{int32(s), sub}] = buses[s].Probe(sub)
		}
	}
	for _, te := range tape {
		probes[[2]int32{te.shard, te.Sub}].Emit(te.At, te.Kind, te.A, te.B, te.C, te.D)
		if te.flush {
			buses[te.shard].Flush()
		}
	}
	for _, b := range buses {
		b.Sync()
	}
	return out.Bytes(), agg, buses
}

// refStream is the reference's stream of a tape: per shard, a flush unit
// is its marker and the records emitted since its last flush.
func refStream(tape []tapeEvent, shards int32) []byte {
	want := AppendBinaryHeader(nil)
	refs := make([]refEncoder, shards)
	units := make([][]byte, shards)
	flush := func(s int32) {
		if len(units[s]) > 0 {
			want = append(AppendShardMarker(want, s+7), units[s]...)
			units[s] = units[s][:0]
		}
	}
	for _, te := range tape {
		units[te.shard] = refs[te.shard].appendEvent(units[te.shard], &te.Event)
		if te.flush {
			flush(te.shard)
		}
	}
	for s := range shards {
		flush(s)
	}
	return want
}

// decodeAll decodes a whole stream record by record.
func decodeAll(t testing.TB, buf []byte) []BinRecord {
	t.Helper()
	var dec EventDecoder
	var out []BinRecord
	for len(buf) > 0 {
		var rec BinRecord
		n, err := dec.Next(buf, &rec)
		if err != nil {
			t.Fatalf("Next: %v (with %d bytes left)", err, len(buf))
		}
		out = append(out, rec)
		buf = buf[n:]
	}
	return out
}

// replayed is what a Replayer rebuilt from a stream.
type replayed struct {
	table, episodes string
	events          [][7]uint64
	records         int64
	pending         int
}

// replay feeds stream to a fresh Replayer in chunks of next() bytes.
func replay(t testing.TB, stream []byte, next func() int) (replayed, error) {
	t.Helper()
	agg := NewShardAgg()
	rep := NewReplayer(agg)
	var o replayed
	rep.OnEvent = func(_ int32, e *Event) { o.events = append(o.events, bits(*e)) }
	for len(stream) > 0 {
		n := min(next(), len(stream))
		if err := rep.Feed(stream[:n]); err != nil {
			t.Fatalf("Feed: %v", err)
		}
		stream = stream[n:]
	}
	o.table, o.episodes = agg.Merged().Table().String(), fmt.Sprint(agg.Episodes())
	o.records, o.pending = rep.Records(), rep.Pending()
	return o, rep.Finish()
}

// firstDiff fails t at the first element where got and want differ, or
// on their lengths.
func firstDiff[T comparable](t testing.TB, what string, got, want []T) {
	t.Helper()
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			t.Fatalf("%s %d:\n got %+v\nwant %+v", what, i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d of them, want %d", what, len(got), len(want))
	}
}

// TestSpillEmitMatchesReferenceEncoder plays 40 seeded tapes, on one shard
// and on two interleaving their flush units in one stream, through
// Probe.Emit and holds the stream to the reference encoder's bytes; the
// exported AppendEvent must encode one chain through all 40 tapes (some
// 48 000 events) the same. Decoding
// the stream gives each shard's events back as the wire carries them
// (values past a kind's named fields, which neither encoder writes, are
// zero); the bus counts every kind; the episode tracker, which sees only
// the fbcc.* kinds, reconstructs the episodes of each shard's sequence.
// Replaying the stream in one Feed, byte by byte or in random chunks
// rebuilds the live aggregate's registry and episodes, and the same events,
// records and pending tail; cut three bytes short, every chunking buffers
// the same tail and Finish reports ErrBinShort.
func TestSpillEmitMatchesReferenceEncoder(t *testing.T) {
	var chain EventEncoder // one AppendEvent chain through every tape
	var chainRef refEncoder
	var chainGot, chainWant []byte
	for seed := int64(1); seed <= 40; seed++ {
		shards := int32(1 + seed%2)
		tape := eventTape(seed, shards)
		stream, agg, buses := spillTape(tape, shards)
		want := refStream(tape, shards)
		if !bytes.Equal(stream, want) {
			i := 0
			for i < len(stream) && i < len(want) && stream[i] == want[i] {
				i++
			}
			t.Fatalf("seed %d: spilled stream (%d B) differs from the reference (%d B) at byte %d", seed, len(stream), len(want), i)
		}
		perShard := make([][]Event, shards)
		var wantEpisodes []Episode
		for _, te := range tape {
			perShard[te.shard] = append(perShard[te.shard], te.Event)
			chainGot = chain.AppendEvent(chainGot, &te.Event)
			chainWant = chainRef.appendEvent(chainWant, &te.Event)
		}
		if !bytes.Equal(chainGot, chainWant) {
			t.Fatalf("seed %d: the AppendEvent chain (%d B) differs from the reference (%d B)", seed, len(chainGot), len(chainWant))
		}
		for s, events := range perShard {
			wantEpisodes = append(wantEpisodes, Episodes(events)...)
			for k := Kind(0); k < NumKinds; k++ {
				var c int64
				for i := range events {
					if events[i].Kind == k {
						c++
					}
				}
				if buses[s].Count(k) != c {
					t.Fatalf("seed %d: shard %d counted %d %s, want %d", seed, s, buses[s].Count(k), k, c)
				}
			}
		}
		if got, want := fmt.Sprint(agg.Episodes()), fmt.Sprint(wantEpisodes); got != want {
			t.Fatalf("seed %d: tracked episodes differ from the reference:\n got %s\nwant %s", seed, got, want)
		}
		decoded := make([][][7]uint64, shards)
		for _, rec := range decodeAll(t, stream) {
			if rec.Tag == RecEvent {
				decoded[rec.Shard-7] = append(decoded[rec.Shard-7], bits(rec.Event))
			}
		}
		for s, events := range perShard {
			var wantBits [][7]uint64
			for _, e := range events {
				wantBits = append(wantBits, bits(canonical(e)))
			}
			firstDiff(t, fmt.Sprintf("seed %d shard %d decoded event", seed, s), decoded[s], wantBits)
		}

		rng := rand.New(rand.NewSource(seed))
		for _, cut := range []int{0, 3} {
			var ref replayed
			for i, next := range []func() int{
				func() int { return len(stream) }, func() int { return 1 }, func() int { return 1 + rng.Intn(97) },
			} {
				got, err := replay(t, stream[:len(stream)-cut], next)
				if (cut == 0) != (err == nil) || cut > 0 && !errors.Is(err, ErrBinShort) {
					t.Fatalf("seed %d, cut %d, chunking %d: Finish = %v", seed, cut, i, err)
				}
				if i > 0 {
					if !reflect.DeepEqual(got, ref) {
						t.Fatalf("seed %d, cut %d: chunking %d replays %d records, %d pending, %d events; one Feed %d, %d, %d",
							seed, cut, i, got.records, got.pending, len(got.events), ref.records, ref.pending, len(ref.events))
					}
					continue
				}
				ref = got
				if (cut == 0) != (got.pending == 0) || got.records == 0 {
					t.Fatalf("seed %d, cut %d: %d records, %d pending", seed, cut, got.records, got.pending)
				}
				if cut == 0 && (got.table != agg.Merged().Table().String() || got.episodes != fmt.Sprint(agg.Episodes())) {
					t.Fatalf("seed %d: the replay's registry or episodes differ from the live aggregate's:\n%s\nvs\n%s", seed, got.table, agg.Merged().Table().String())
				}
			}
		}
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
