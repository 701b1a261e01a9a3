package obs

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
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
func spillInterleaved(t *testing.T) (*ShardAgg, []byte) {
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
