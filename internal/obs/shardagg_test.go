package obs

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
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
	// byte-identical tables and episode lists — merge order is shard id,
	// not bind order — equal to one bus fed the same events in shard
	// order: counters, histogram stats, everything.
	a1, _ := buildAgg([]int32{0, 1, 2, 3}, 20)
	a2, _ := buildAgg([]int32{3, 1, 0, 2}, 20)
	one := NewBus()
	one.DisableRetention()
	for id := int32(0); id < 4; id++ {
		feedShard(one, id, 20)
	}
	if t1, t2 := a1.Merged().Table().String(), a2.Merged().Table().String(); t1 != t2 || t1 != one.Table().String() {
		t.Fatalf("merged tables differ across bind orders or from the single-bus fold:\n%s\nvs\n%s\nvs\n%s", t1, t2, one.Table())
	}
	e1, e2 := a1.Episodes(), a2.Episodes()
	if len(e1) != 4 || !slices.Equal(e1, e2) {
		t.Fatalf("episodes %v and %v, want the same 4", e1, e2)
	}
	for i := range e1 {
		if e1[i].Sub != int32(i) {
			t.Fatalf("episode %d out of shard order: sub %d", i, e1[i].Sub)
		}
	}
	// Gauge collisions resolve to the highest shard id.
	if v, _ := a1.Merged().Gauge("last_shard"); v != 3 {
		t.Fatalf("gauge collision winner = %v, want shard 3", v)
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
