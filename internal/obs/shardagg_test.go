package obs

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"
)

// feedShard emits a deterministic per-shard stream: some LTE grants (to
// exercise histogram merging) and one full congestion episode.
func feedShard(b *Bus, shard int32, n int) {
	p := b.Probe(shard)
	base := time.Duration(shard+1) * 7 * time.Millisecond
	for i := 0; i < n; i++ {
		at := base + time.Duration(i)*time.Millisecond
		p.Emit(at, LTEGrant, float64(1000+13*int(shard)+i), float64(i), 0, 0)
	}
	p.Emit(base+100*time.Millisecond, FBCCTrigger, 19456, 11832.5, float64(3+shard), 0)
	p.Emit(base+101*time.Millisecond, FBCCPin, 2.1e6, 0.24, 0, 0)
	p.Emit(base+350*time.Millisecond, FBCCRelease, 0.24, 2.1e6, 0, 0)
	p.SetGauge(fmt.Sprintf("shard_%02d_done", shard), 1)
	p.SetGauge("last_shard", float64(shard))
}

func buildAgg(bindOrder []int32, n int) (*ShardAgg, map[int32]*Bus) {
	agg := NewShardAgg()
	buses := map[int32]*Bus{}
	for _, id := range bindOrder {
		b := NewBus()
		b.DisableRetention()
		agg.Bind(id, b)
		buses[id] = b
	}
	for _, id := range bindOrder {
		feedShard(buses[id], id, n)
	}
	return agg, buses
}

func TestShardAggMergeDeterministic(t *testing.T) {
	// The same shard set bound and fed in different orders must merge to
	// byte-identical tables and episode lists: merge order is shard id,
	// not bind order.
	a1, _ := buildAgg([]int32{0, 1, 2, 3}, 20)
	a2, _ := buildAgg([]int32{3, 1, 0, 2}, 20)
	t1, t2 := a1.Merged().Table().String(), a2.Merged().Table().String()
	if t1 != t2 {
		t.Fatalf("merged tables differ across bind orders:\n%s\nvs\n%s", t1, t2)
	}
	e1, e2 := a1.Episodes(), a2.Episodes()
	if len(e1) != 4 || len(e2) != 4 {
		t.Fatalf("episodes: %d and %d, want 4 each", len(e1), len(e2))
	}
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatalf("episode %d differs across bind orders", i)
		}
		if e1[i].Sub != int32(i) {
			t.Fatalf("episode %d out of shard order: sub %d", i, e1[i].Sub)
		}
	}
	// Gauge collisions resolve to the highest shard id.
	if v, _ := a1.Merged().Gauge("last_shard"); v != 3 {
		t.Fatalf("gauge collision winner = %v, want shard 3", v)
	}
}

func TestShardAggMatchesSingleBus(t *testing.T) {
	// Aggregating shards must equal one bus fed the same events in shard
	// order — counters, histogram stats, everything.
	agg, _ := buildAgg([]int32{0, 1, 2}, 10)
	one := NewBus()
	one.DisableRetention()
	for id := int32(0); id < 3; id++ {
		feedShard(one, id, 10)
	}
	if got, want := agg.Merged().Table().String(), one.Table().String(); got != want {
		t.Fatalf("sharded merge differs from single-bus fold:\n got:\n%s\nwant:\n%s", got, want)
	}
}

func TestShardAggBindTwicePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("double bind did not panic")
		}
	}()
	agg := NewShardAgg()
	agg.Bind(1, NewBus())
	agg.Bind(1, NewBus())
}

// spillInterleaved spills three shards into one interleaved P6T stream
// (round-robin flushes, like the city's barrier) and returns the live
// aggregate beside the stream's bytes.
func spillInterleaved(t testing.TB) (*ShardAgg, []byte) {
	t.Helper()
	live := NewShardAgg()
	var file bytes.Buffer
	bw := NewBinWriter(&file)
	var buses []*Bus
	for id := int32(0); id < 3; id++ {
		b := NewBus()
		b.DisableRetention()
		b.SpillTo(bw, id, 0)
		live.Bind(id, b)
		buses = append(buses, b)
	}
	// Interleave: epoch-by-epoch emissions with a flush barrier after
	// each epoch, in shard order.
	for epoch := 0; epoch < 5; epoch++ {
		for id, b := range buses {
			feedShard(b, int32(id), 4)
		}
		for _, b := range buses {
			b.Flush()
		}
	}
	for _, b := range buses {
		b.FinishSpill()
	}
	if err := bw.Err(); err != nil {
		t.Fatalf("sink error: %v", err)
	}
	return live, file.Bytes()
}

func TestReplayRebuildsShardAgg(t *testing.T) {
	// Replay an interleaved three-shard stream and require the decoded
	// aggregate to render byte-identically to the live one.
	live, stream := spillInterleaved(t)

	replayed := NewShardAgg()
	n, err := ReadBinary(bytes.NewReader(stream), replayed, nil)
	if err != nil {
		t.Fatalf("ReadBinary: %v", err)
	}
	if n == 0 {
		t.Fatalf("no records replayed")
	}
	if got, want := replayed.Merged().Table().String(), live.Merged().Table().String(); got != want {
		t.Fatalf("replayed registry differs from live:\n got:\n%s\nwant:\n%s", got, want)
	}
	le, re := live.Episodes(), replayed.Episodes()
	if len(le) != len(re) {
		t.Fatalf("episodes: live %d, replayed %d", len(le), len(re))
	}
	for i := range le {
		if le[i] != re[i] {
			t.Fatalf("episode %d differs after replay:\n live %+v\n rep  %+v", i, le[i], re[i])
		}
	}
	ls, rs := SummarizeEpisodes(le), SummarizeEpisodes(re)
	if ls != rs {
		t.Fatalf("episode summaries differ: %+v vs %+v", ls, rs)
	}
}

func TestReplayerFeedChunkingInvariant(t *testing.T) {
	// However a stream is cut into Feed calls — whole, one byte at a time,
	// random chunk sizes — the replay must come out the same: registry,
	// episodes, event sequence, Records and Pending. A stream cut short
	// mid-record must buffer the same tail and fail Finish with ErrBinShort.
	_, full := spillInterleaved(t)
	type outcome struct {
		table    string
		episodes []Episode
		events   []Event
		records  int64
		pending  int
	}
	replay := func(stream []byte, nextChunk func() int) (outcome, error) {
		agg := NewShardAgg()
		rep := NewReplayer(agg)
		var o outcome
		rep.OnEvent = func(_ int32, e *Event) { o.events = append(o.events, *e) }
		for len(stream) > 0 {
			n := min(nextChunk(), len(stream))
			if err := rep.Feed(stream[:n]); err != nil {
				t.Fatalf("Feed: %v", err)
			}
			stream = stream[n:]
		}
		o.table, o.episodes = agg.Merged().Table().String(), agg.Episodes()
		o.records, o.pending = rep.Records(), rep.Pending()
		return o, rep.Finish()
	}
	rng := rand.New(rand.NewSource(7))
	chunkings := []struct {
		name string
		next func() int
	}{
		{"whole", func() int { return len(full) }},
		{"bytewise", func() int { return 1 }},
		{"random", func() int { return 1 + rng.Intn(97) }},
	}
	for _, tc := range []struct {
		name    string
		stream  []byte
		wantErr error
	}{
		{"complete", full, nil},
		{"truncated", full[:len(full)-3], ErrBinShort},
	} {
		var ref outcome
		for i, ch := range chunkings {
			got, err := replay(tc.stream, ch.next)
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("%s/%s: Finish = %v, want %v", tc.name, ch.name, err, tc.wantErr)
			}
			if i == 0 {
				ref = got
				if ref.records == 0 || (tc.wantErr == nil) != (ref.pending == 0) {
					t.Fatalf("%s/%s: records %d, pending %d", tc.name, ch.name, ref.records, ref.pending)
				}
				continue
			}
			if !reflect.DeepEqual(got, ref) {
				t.Fatalf("%s: %s replay differs from whole-stream replay:\n got %d records, %d pending, %d events\nwant %d records, %d pending, %d events\n%s\nvs\n%s",
					tc.name, ch.name, got.records, got.pending, len(got.events),
					ref.records, ref.pending, len(ref.events), got.table, ref.table)
			}
		}
	}
}

// FuzzReplayerFeed holds the tailer's contract on hostile and cut input.
// Arbitrary bytes, and a real spilled stream cut at a fuzzed offset, are
// fed in fuzzed chunk sizes (chunks cycles through sizes 1..256; empty
// means one Feed). Nothing may panic; after every Feed that returns nil
// the buffered tail stays below one maximal record, so a tailer's memory
// is bounded even on a corrupt file; the cut stream replays exactly the
// events of the records it holds whole, a prefix of the full sequence;
// and Finish reports ErrBinShort exactly when the cut falls inside a
// record (the header included).
func FuzzReplayerFeed(f *testing.F) {
	_, full := spillInterleaved(f)
	// bounds[i] is the i-th record boundary of the full stream (0, the end
	// of the header, then the end of each record); before[i] counts the
	// events that precede it.
	var (
		want           []Event
		bounds, before = []int{0}, []int{0}
		dec            EventDecoder
		rec            BinRecord
	)
	for off := 0; off < len(full); {
		n, err := dec.Next(full[off:], &rec)
		if err != nil {
			f.Fatalf("reference decode at %d: %v", off, err)
		}
		off += n
		if rec.Tag == RecEvent {
			want = append(want, rec.Event)
		}
		bounds, before = append(bounds, off), append(before, len(want))
	}
	// Seeds stay short: the minimizer's cost is quadratic in an input's
	// length, and the whole stream is already under test through cut.
	f.Add(full[:64], uint16(len(full)), []byte(nil))
	f.Add(full[:40], uint16(len(full)/2), []byte{0, 6, 96})
	f.Add([]byte("P6T\x01\xff\xff\xff\xff\xff\xff\xff\xff\xff\x7f"), uint16(2), []byte{3})
	f.Add([]byte("P6T\x01\x02\xfe"), uint16(5), []byte{255})

	f.Fuzz(func(t *testing.T, data []byte, cut uint16, chunks []byte) {
		feed := func(rep *Replayer, stream []byte) error {
			for i := 0; len(stream) > 0; i++ {
				n := len(stream)
				if len(chunks) > 0 {
					n = min(n, 1+int(chunks[i%len(chunks)]))
				}
				if err := rep.Feed(stream[:n]); err != nil {
					return err
				}
				if p := rep.Pending(); p >= binary.MaxVarintLen64+maxBinBody {
					t.Fatalf("%d bytes pending after a clean Feed", p)
				}
				stream = stream[n:]
			}
			return nil
		}

		// Arbitrary bytes: any error will do, but no panic, and every
		// decoded event renders.
		rep := NewReplayer(NewShardAgg())
		var line []byte
		rep.OnEvent = func(_ int32, e *Event) { line = AppendEventJSON(line[:0], e) }
		if feed(rep, data) == nil {
			rep.Finish()
		}

		// A real stream cut at a fuzzed offset.
		c := int(cut) % (len(full) + 1)
		var got []Event
		rep = NewReplayer(NewShardAgg())
		rep.OnEvent = func(_ int32, e *Event) { got = append(got, *e) }
		if err := feed(rep, full[:c]); err != nil {
			t.Fatalf("cut at %d: Feed: %v", c, err)
		}
		i := sort.SearchInts(bounds, c+1) - 1 // the last boundary at or before c
		if !slices.Equal(got, want[:before[i]]) {
			t.Fatalf("cut at %d: replayed %d events, want the first %d of %d", c, len(got), before[i], len(want))
		}
		err := rep.Finish()
		switch {
		case bounds[i] != c:
			if !errors.Is(err, ErrBinShort) {
				t.Fatalf("cut at %d, inside a record: Finish = %v, want ErrBinShort", c, err)
			}
		case c == 0:
			if !errors.Is(err, ErrBinCorrupt) {
				t.Fatalf("empty stream: Finish = %v, want ErrBinCorrupt", err)
			}
		case err != nil:
			t.Fatalf("cut at %d, on a record boundary: Finish = %v", c, err)
		}
	})
}

func BenchmarkShardAggMerge(b *testing.B) {
	agg, _ := buildAgg([]int32{0, 1, 2, 3, 4, 5, 6, 7}, 50)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if agg.Merged().Count(LTEGrant) == 0 {
			b.Fatalf("empty merge")
		}
	}
}
