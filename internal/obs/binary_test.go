package obs

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"time"
)

// sampleEvents covers negative subs, zero deltas, large timestamps, and
// kinds across the field-count range (0..4 named fields).
func sampleEvents() []Event {
	return []Event{
		{At: 0, Kind: NetFaultDrop, Sub: -1},
		{At: 0, Kind: FBCCTrigger, Sub: 3, A: 19456, B: 11832.5, C: 10},
		{At: 12345 * time.Microsecond, Kind: FBCCPin, Sub: 3, A: 2.1e6, B: 0.24},
		{At: 12345 * time.Microsecond, Kind: LTEDiag, Sub: 0, A: 4096, B: 18432, C: 5, D: 1},
		{At: 30 * time.Second, Kind: FBCCRelease, Sub: 3, A: 0.24, B: 2.1e6},
		{At: 30 * time.Second, Kind: FrameDisplay, Sub: 0, A: 83.25, B: 38.6, C: 2},
	}
}

func encodeStream(t *testing.T, shard int32, events []Event) []byte {
	t.Helper()
	buf := AppendBinaryHeader(nil)
	buf = AppendShardMarker(buf, shard)
	var enc EventEncoder
	for i := range events {
		buf = enc.AppendEvent(buf, &events[i])
	}
	return buf
}

func decodeAll(t *testing.T, buf []byte) []BinRecord {
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

func TestBinaryRoundTripSingleShard(t *testing.T) {
	events := sampleEvents()
	recs := decodeAll(t, encodeStream(t, 7, events))
	if recs[0].Tag != RecHeader || recs[1].Tag != RecShard || recs[1].Shard != 7 {
		t.Fatalf("stream preamble wrong: %+v", recs[:2])
	}
	recs = recs[2:]
	if len(recs) != len(events) {
		t.Fatalf("decoded %d events, want %d", len(recs), len(events))
	}
	for i, rec := range recs {
		if rec.Tag != RecEvent || rec.Shard != 7 {
			t.Fatalf("record %d: tag %v shard %d", i, rec.Tag, rec.Shard)
		}
		if rec.Event != events[i] {
			t.Fatalf("event %d round-trip mismatch:\n got %+v\nwant %+v", i, rec.Event, events[i])
		}
	}
}

func TestBinaryRoundTripInterleavedShards(t *testing.T) {
	// Two shards flushing alternately into one stream: each keeps its own
	// timestamp-delta chain, so interleaving must not corrupt timestamps.
	evA := []Event{
		{At: 10 * time.Millisecond, Kind: LTEGrant, Sub: 1, A: 1000},
		{At: 20 * time.Millisecond, Kind: LTEGrant, Sub: 1, A: 2000},
	}
	evB := []Event{
		{At: 5 * time.Millisecond, Kind: LTEDrop, Sub: 2, A: 100, B: 8192},
		{At: 25 * time.Millisecond, Kind: LTEDrop, Sub: 2, A: 200, B: 4096},
	}
	var encA, encB EventEncoder
	buf := AppendBinaryHeader(nil)
	buf = AppendShardMarker(buf, 0)
	buf = encA.AppendEvent(buf, &evA[0])
	buf = AppendShardMarker(buf, 1)
	buf = encB.AppendEvent(buf, &evB[0])
	buf = AppendShardMarker(buf, 0)
	buf = encA.AppendEvent(buf, &evA[1])
	buf = AppendShardMarker(buf, 1)
	buf = encB.AppendEvent(buf, &evB[1])

	var got []Event
	for _, rec := range decodeAll(t, buf) {
		if rec.Tag == RecEvent {
			got = append(got, rec.Event)
		}
	}
	want := []Event{evA[0], evB[0], evA[1], evB[1]}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("interleaved event %d mismatch:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

func TestBinaryGaugeRoundTrip(t *testing.T) {
	buf := AppendBinaryHeader(nil)
	buf = AppendShardMarker(buf, 4)
	buf = AppendGauge(buf, "psnr_mean_db", 38.25)
	buf = AppendGauge(buf, "frames_sent", 900)
	recs := decodeAll(t, buf)[2:]
	want := []struct {
		name string
		v    float64
	}{{"psnr_mean_db", 38.25}, {"frames_sent", 900}}
	for i, rec := range recs {
		if rec.Tag != RecGauge || rec.Shard != 4 || rec.Name != want[i].name || rec.Value != want[i].v {
			t.Fatalf("gauge %d: %+v", i, rec)
		}
	}
}

func TestBinaryDecoderShortThenComplete(t *testing.T) {
	// Feeding one byte at a time must yield exactly the same records: the
	// decoder reports ErrBinShort (consuming nothing) until a record
	// completes.
	buf := encodeStream(t, 0, sampleEvents())
	buf = AppendGauge(buf, "g", 1.5)
	want := decodeAll(t, append([]byte(nil), buf...))

	// A truncated prefix must report ErrBinShort without consuming bytes.
	var dec EventDecoder
	var rec BinRecord
	if n, err := dec.Next(buf[:2], &rec); !errors.Is(err, ErrBinShort) || n != 0 {
		t.Fatalf("truncated header: n=%d err=%v, want ErrBinShort", n, err)
	}
	if n, err := dec.Next(buf[:len(buf)-1], &rec); err != nil && !errors.Is(err, ErrBinShort) {
		t.Fatalf("unexpected error on prefix: n=%d err=%v", n, err)
	}

	// Feeding the Replayer one byte at a time must still yield every event.
	rep := NewReplayer(nil)
	var events []Event
	rep.OnEvent = func(_ int32, e *Event) { events = append(events, *e) }
	for _, c := range buf {
		if err := rep.Feed([]byte{c}); err != nil {
			t.Fatalf("Feed: %v", err)
		}
	}
	if err := rep.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	var wantEvents []Event
	for _, rec := range want {
		if rec.Tag == RecEvent {
			wantEvents = append(wantEvents, rec.Event)
		}
	}
	if len(events) != len(wantEvents) {
		t.Fatalf("byte-by-byte replay yielded %d events, want %d", len(events), len(wantEvents))
	}
	for i := range events {
		if events[i] != wantEvents[i] {
			t.Fatalf("byte-by-byte event %d mismatch", i)
		}
	}
}

func TestBinaryDecoderRejectsCorrupt(t *testing.T) {
	valid := encodeStream(t, 0, sampleEvents())
	cases := []struct {
		name string
		mut  func([]byte) []byte
	}{
		{"bad magic", func(b []byte) []byte { b[0] = 'X'; return b }},
		{"bad version", func(b []byte) []byte { b[3] = 99; return b }},
		{"unknown tag", func(b []byte) []byte {
			return append(b, 1, 0xF0)
		}},
		{"zero-length record", func(b []byte) []byte { return append(b, 0) }},
		{"oversized record length", func(b []byte) []byte {
			return append(b, 0xFF, 0xFF, 0x7F) // uvarint ≈ 2M > maxBinBody
		}},
		{"event body truncated fields", func(b []byte) []byte {
			// kind FrameEncode (3 fields) with only 1 float of payload.
			return append(b, 1+1+1+8, byte(FrameEncode), 0, 0, 1, 2, 3, 4, 5, 6, 7, 8)
		}},
		{"gauge empty name", func(b []byte) []byte {
			return append(b, 1+1+8+1, tagGauge, 0, 'x', 1, 2, 3, 4, 5, 6, 7, 8)
		}},
		{"negative timestamp", func(b []byte) []byte {
			// Fresh stream so the chain is at t=0; delta -1 (zigzag 1)
			// drives the first timestamp negative.
			buf := AppendBinaryHeader(nil)
			buf = AppendShardMarker(buf, 0)
			return append(buf, 3, byte(NetFaultDrop), 0, 1)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			buf := tc.mut(append([]byte(nil), valid...))
			var dec EventDecoder
			var rec BinRecord
			for len(buf) > 0 {
				n, err := dec.Next(buf, &rec)
				if err != nil {
					if !errors.Is(err, ErrBinCorrupt) {
						t.Fatalf("want ErrBinCorrupt, got %v", err)
					}
					return
				}
				buf = buf[n:]
			}
			t.Fatalf("corrupt stream decoded cleanly")
		})
	}
}

func TestBinaryMarshalPanics(t *testing.T) {
	assertPanics := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", name)
			}
		}()
		fn()
	}
	var enc EventEncoder
	assertPanics("bad kind", func() { enc.AppendEvent(nil, &Event{Kind: NumKinds}) })
	assertPanics("negative at", func() { enc.AppendEvent(nil, &Event{Kind: FrameSend, At: -1}) })
	assertPanics("empty gauge name", func() { AppendGauge(nil, "", 1) })
}

func FuzzEventBinaryRoundTrip(f *testing.F) {
	f.Add(uint8(FBCCTrigger), int32(0), int64(0), 19456.0, 11832.5, 10.0, 0.0)
	f.Add(uint8(LTEDiag), int32(-1), int64(12345678), 4096.0, 18432.0, 5.0, 1.0)
	f.Add(uint8(NetFaultDrop), int32(7), int64(30_000_000_000), 0.0, 0.0, 0.0, 0.0)
	f.Add(uint8(NetHandover), int32(511), int64(1), 3.0, 4.0, 0.25, 0.0)
	f.Fuzz(func(t *testing.T, kind uint8, sub int32, atNs int64, a, b, c, d float64) {
		k := Kind(kind % uint8(NumKinds))
		if atNs < 0 {
			atNs = -atNs
		}
		if atNs < 0 { // math.MinInt64
			atNs = 0
		}
		// Canonicalize: unused trailing values are zero by the Emit
		// contract, and the format does not carry them.
		vals := [4]float64{a, b, c, d}
		for i := int(fieldCount[k]); i < 4; i++ {
			vals[i] = 0
		}
		ev := Event{At: time.Duration(atNs), Kind: k, Sub: sub, A: vals[0], B: vals[1], C: vals[2], D: vals[3]}

		var enc EventEncoder
		buf := AppendBinaryHeader(nil)
		buf = AppendShardMarker(buf, sub)
		buf = enc.AppendEvent(buf, &ev)

		var dec EventDecoder
		rest := buf
		var got *Event
		var rec BinRecord
		for len(rest) > 0 {
			n, err := dec.Next(rest, &rec)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if rec.Tag == RecEvent {
				e := rec.Event
				got = &e
				if rec.Shard != sub {
					t.Fatalf("shard %d, want %d", rec.Shard, sub)
				}
			}
			rest = rest[n:]
		}
		if got == nil {
			t.Fatalf("no event decoded")
		}
		if got.At != ev.At || got.Kind != ev.Kind || got.Sub != ev.Sub {
			t.Fatalf("round trip header mismatch: got %+v want %+v", got, ev)
		}
		gv := [4]float64{got.A, got.B, got.C, got.D}
		for i := range vals {
			if gv[i] != vals[i] && !(math.IsNaN(gv[i]) && math.IsNaN(vals[i])) {
				t.Fatalf("value %d: got %v want %v", i, gv[i], vals[i])
			}
		}
	})
}

// TestPerfEventEncodeZeroAlloc is the allocation gate on the warm encode
// path: appending an event to a buffer with spare capacity must not
// allocate.
func TestPerfEventEncodeZeroAlloc(t *testing.T) {
	var enc EventEncoder
	buf := make([]byte, 0, 1<<16)
	ev := Event{At: 123456789, Kind: LTEDiag, Sub: 42, A: 4096, B: 18432, C: 5, D: 1}
	allocs := testing.AllocsPerRun(1000, func() {
		buf = enc.AppendEvent(buf[:0], &ev)
	})
	if allocs != 0 {
		t.Fatalf("warm AppendEvent allocates %.1f/op, want 0", allocs)
	}
}

func BenchmarkEventEncode(b *testing.B) {
	var enc EventEncoder
	buf := make([]byte, 0, 1<<16)
	ev := Event{At: 123456789, Kind: LTEDiag, Sub: 42, A: 4096, B: 18432, C: 5, D: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if len(buf) > 1<<15 {
			buf = buf[:0]
		}
		buf = enc.AppendEvent(buf, &ev)
	}
}

func TestBusSpillMatchesRetained(t *testing.T) {
	// Twin buses, identical emissions: one retains, one spills. Decoding
	// the spilled stream must reproduce the retained stream, registry and
	// gauges exactly.
	emit := func(b *Bus) {
		p := b.Probe(3)
		p.Emit(10*time.Millisecond, FBCCTrigger, 19456, 11832.5, 10, 0)
		p.Emit(11*time.Millisecond, FBCCPin, 2.1e6, 0.24, 0, 0)
		p.With(4).Emit(12*time.Millisecond, LTEGrant, 9000, 512, 0, 0)
		p.Emit(250*time.Millisecond, FBCCRelease, 0.24, 2.1e6, 0, 0)
		p.SetGauge("zeta", 1)
		p.SetGauge("alpha", 2)
		p.SetGauge("mid", 3)
	}
	retained := NewBus()
	emit(retained)

	var file bytes.Buffer
	bw := NewBinWriter(&file)
	spilling := NewBus()
	spilling.SpillTo(bw, 0, 128)
	emit(spilling)
	spilling.FinishSpill()
	if err := bw.Err(); err != nil {
		t.Fatalf("sink error: %v", err)
	}
	if spilling.Len() != 0 {
		t.Fatalf("spilling bus retained %d events", spilling.Len())
	}

	agg := NewShardAgg()
	var decoded []Event
	if _, err := ReadBinary(&file, agg, func(_ int32, e *Event) { decoded = append(decoded, *e) }); err != nil {
		t.Fatalf("ReadBinary: %v", err)
	}
	want := retained.Events()
	if len(decoded) != len(want) {
		t.Fatalf("decoded %d events, want %d", len(decoded), len(want))
	}
	for i := range want {
		if decoded[i] != want[i] {
			t.Fatalf("event %d mismatch:\n got %+v\nwant %+v", i, decoded[i], want[i])
		}
	}
	if got, wantT := agg.Merged().Table().String(), retained.Table().String(); got != wantT {
		t.Fatalf("decoded registry differs:\n got:\n%s\nwant:\n%s", got, wantT)
	}
}

func TestBusSpillAutoFlushBounds(t *testing.T) {
	var file bytes.Buffer
	bw := NewBinWriter(&file)
	b := NewBus()
	const threshold = 256
	b.SpillTo(bw, 0, threshold)
	p := b.Probe(0)
	for i := 0; i < 1000; i++ {
		p.Emit(time.Duration(i)*time.Millisecond, LTEGrant, float64(i), 0, 0, 0)
	}
	if bw.Bytes() == 0 {
		t.Fatalf("auto-flush never fired")
	}
	if pend := len(b.binbuf); pend >= threshold+64 {
		t.Fatalf("pending buffer grew to %d despite %d-byte auto-flush", pend, threshold)
	}
	b.FinishSpill()
	if n, err := ReadBinary(&file, nil, nil); err != nil || n != 1000 {
		t.Fatalf("decode after auto-flush: %d records, %v", n, err)
	}
}

// failWriter accepts `after` writes, then fails every later one after
// taking `partial` bytes of it.
type failWriter struct {
	after, partial int
	calls          int
}

func (f *failWriter) Write(p []byte) (int, error) {
	f.calls++
	if f.after <= 0 {
		return f.partial, errors.New("disk full")
	}
	f.after--
	return len(p), nil
}

func TestBinWriterLatchesFirstError(t *testing.T) {
	fw := &failWriter{after: 1, partial: 3} // first Sync lands, second fails 3 bytes in
	bw := NewBinWriter(fw)
	b := NewBus()
	b.SpillTo(bw, 0, 0)
	p := b.Probe(0)
	p.Emit(0, LTEGrant, 1, 0, 0, 0)
	b.Sync()
	if bw.Err() != nil || bw.Dropped() != 0 {
		t.Fatalf("healthy sync: err=%v dropped=%d", bw.Err(), bw.Dropped())
	}
	landed := bw.Bytes()

	p.Emit(time.Millisecond, LTEGrant, 2, 0, 0, 0)
	b.Flush()
	unit := bw.Bytes() - landed
	if fw.calls != 1 || unit == 0 {
		t.Fatalf("Flush alone reached the writer (%d writes) or buffered nothing (%d B)", fw.calls, unit)
	}
	bw.Sync()
	if bw.Err() == nil {
		t.Fatalf("write error not latched")
	}
	if got, want := bw.Bytes(), landed+3; got != want {
		t.Fatalf("Bytes after the failed write = %d, want %d", got, want)
	}
	if got, want := bw.Dropped(), unit-3; got != want {
		t.Fatalf("Dropped after the failed write = %d, want %d", got, want)
	}

	p.Emit(2*time.Millisecond, LTEGrant, 3, 0, 0, 0)
	b.Sync() // must not panic, clear the error, or touch the dead writer
	if bw.Err() == nil {
		t.Fatalf("latched error lost")
	}
	if fw.calls != 2 {
		t.Fatalf("dead writer written to again (%d writes)", fw.calls)
	}
	if got := bw.Dropped(); got <= unit-3 || bw.Bytes() != landed+3 {
		t.Fatalf("bytes flushed into a dead sink not counted: dropped=%d bytes=%d", got, bw.Bytes())
	}
}

// writeLog records the size of every Write it receives.
type writeLog struct {
	bytes.Buffer
	sizes []int
}

func (w *writeLog) Write(p []byte) (int, error) {
	w.sizes = append(w.sizes, len(p))
	return w.Buffer.Write(p)
}

func TestBinWriterOneWritePerSync(t *testing.T) {
	// Three shards flushing at every barrier reach the writer as one Write
	// per Sync, header inside the first, and the bytes are those of the
	// same flushes written through unbuffered.
	var w writeLog
	bw := NewBinWriter(&w)
	var buses []*Bus
	for id := int32(0); id < 3; id++ {
		b := NewBus()
		b.SpillTo(bw, id, 0)
		buses = append(buses, b)
	}
	var want []byte
	want = AppendBinaryHeader(want)
	const epochs = 4
	for epoch := 0; epoch < epochs; epoch++ {
		for id, b := range buses {
			feedShard(b, int32(id), 4)
			want = append(want, b.binbuf...)
			b.Flush()
		}
		if got := len(w.sizes); got != epoch {
			t.Fatalf("epoch %d: %d writes before Sync, want %d", epoch, got, epoch)
		}
		bw.Sync()
		bw.Sync() // nothing pending: no empty Write
		if w.Len() != len(want) {
			t.Fatalf("epoch %d: %d bytes visible after Sync, want %d", epoch, w.Len(), len(want))
		}
	}
	if len(w.sizes) != epochs {
		t.Fatalf("%d writes for %d syncs", len(w.sizes), epochs)
	}
	if !bytes.Equal(w.Bytes(), want) || bw.Bytes() != int64(len(want)) {
		t.Fatalf("coalesced stream differs from the flushed units (%d vs %d B)", w.Len(), len(want))
	}

	// Past binSyncAt the buffer drains on its own.
	big := buses[0]
	p := big.Probe(0)
	for i := 0; len(w.sizes) == epochs; i++ {
		if i > 1<<20 {
			t.Fatalf("buffer never drained without Sync")
		}
		p.Emit(time.Duration(i)*time.Millisecond, LTEGrant, float64(i), 0, 0, 0)
		big.Flush()
	}
	if last := w.sizes[len(w.sizes)-1]; last < binSyncAt || last > binSyncAt+64 {
		t.Fatalf("self-sync wrote %d bytes, want just past %d", last, binSyncAt)
	}
}

func TestFinishSpillGaugesSortedAndOnce(t *testing.T) {
	var file bytes.Buffer
	bw := NewBinWriter(&file)
	b := NewBus()
	b.SpillTo(bw, 9, 0)
	b.SetGauge("zz", 26)
	b.SetGauge("aa", 1)
	b.SetGauge("mm", 13)
	b.FinishSpill()
	b.FinishSpill() // idempotent: gauges spill once
	var names []string
	rep := NewReplayer(nil)
	if err := rep.Feed(file.Bytes()); err != nil {
		t.Fatalf("Feed: %v", err)
	}
	if err := rep.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	// Re-decode raw records to see gauge order on the wire.
	var dec EventDecoder
	buf := file.Bytes()
	var rec BinRecord
	for len(buf) > 0 {
		n, err := dec.Next(buf, &rec)
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if rec.Tag == RecGauge {
			names = append(names, rec.Name)
		}
		buf = buf[n:]
	}
	want := []string{"aa", "mm", "zz"}
	if len(names) != len(want) {
		t.Fatalf("spilled %d gauges, want %d (%v)", len(names), len(want), names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("gauge order on the wire: %v, want %v", names, want)
		}
	}
}
