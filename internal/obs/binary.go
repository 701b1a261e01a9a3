package obs

// binary.go is the one telemetry file format: a versioned,
// length-prefixed binary record stream ("P6T", .pbt files) compact enough
// for city-scale event volumes. JSONL is a rendering of decoded records
// (AppendEventJSON), not a second format.
//
// # Stream layout
//
//	header   'P' '6' 'T' version                         (4 bytes, once)
//	record   uvarint bodyLen | body                      (repeated)
//
// Three body shapes, discriminated by the first byte (the tag):
//
//	tag < NumKinds   event: varint sub, varint Δt(ns), then one
//	                 little-endian float64 per *named* field of the kind —
//	                 unused trailing values are never written (they are
//	                 zero by the Emit contract).
//	tag 0xFE         shard marker: varint shard id. All following event
//	                 and gauge records belong to that shard until the
//	                 next marker.
//	tag 0xFF         gauge: uvarint name length, name bytes, float64.
//
// Timestamps are delta-encoded per shard: each shard has its own chain,
// so interleaving flushes from many shards (the city writes all shard
// buffers at every clock barrier) costs one marker per flush and keeps
// every delta small. Varints use encoding/binary's zigzag (Varint) and
// unsigned (Uvarint) forms.
//
// The encoder is append-style and allocation-free on a warm buffer
// (TestPerfEventEncodeZeroAlloc); the decoder is strict — every length is
// bounds-checked, every body must be exactly consumed, and a buffer that
// ends mid-record reports ErrBinShort so tailing consumers can wait for
// more bytes. FuzzEventBinaryRoundTrip holds encode→decode identity.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"
)

// BinVersion is the format version written after the magic. The decoder
// rejects anything else.
const BinVersion = 1

const (
	binMagic0 = 'P'
	binMagic1 = '6'
	binMagic2 = 'T'

	tagShard = 0xFE
	tagGauge = 0xFF

	// maxBinBody bounds a record body; the largest legal body (a
	// max-length gauge) is far below it, so anything bigger is corruption,
	// not data — the decoder refuses before trusting the length.
	maxBinBody = 4096
	// maxGaugeName bounds gauge names on both sides of the codec.
	maxGaugeName = 256
)

// ErrBinMarshal reports an unencodable record; the append helpers panic
// with it (an unencodable Event is a programming error, mirroring the RTP
// wire codec's ErrWireMarshal discipline).
var ErrBinMarshal = errors.New("obs: event not representable in binary form")

// ErrBinShort reports a buffer that ends in the middle of a record. It is
// the retryable decoder error: feed more bytes and try again (the live
// tailer leans on this).
var ErrBinShort = errors.New("obs: binary stream ends mid-record")

// ErrBinCorrupt reports a structural violation in the stream. Errors wrap
// it, so errors.Is(err, ErrBinCorrupt) classifies.
var ErrBinCorrupt = errors.New("obs: corrupt binary stream")

// fieldCount caches, per kind, how many of the four values are named —
// exactly the values the binary event body carries.
var fieldCount = func() (fc [NumKinds]uint8) {
	for k := range kinds {
		for _, f := range kinds[k].fields {
			if f == "" {
				break
			}
			fc[k]++
		}
	}
	return fc
}()

// AppendBinaryHeader appends the 4-byte stream header.
func AppendBinaryHeader(dst []byte) []byte {
	return append(dst, binMagic0, binMagic1, binMagic2, BinVersion)
}

// AppendShardMarker appends a shard-marker record: subsequent event and
// gauge records belong to the given shard until the next marker.
func AppendShardMarker(dst []byte, shard int32) []byte {
	at := len(dst)
	dst = append(dst, 0, tagShard) // bodyLen patched below (body ≤ 6 bytes)
	dst = binary.AppendVarint(dst, int64(shard))
	dst[at] = byte(len(dst) - at - 1)
	return dst
}

// AppendGauge appends a gauge record.
func AppendGauge(dst []byte, name string, v float64) []byte {
	if len(name) == 0 || len(name) > maxGaugeName {
		panic(ErrBinMarshal)
	}
	body := 1 + uvarintLen(uint64(len(name))) + len(name) + 8
	dst = binary.AppendUvarint(dst, uint64(body))
	dst = append(dst, tagGauge)
	dst = binary.AppendUvarint(dst, uint64(len(name)))
	dst = append(dst, name...)
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// EventEncoder appends event records, maintaining one shard's
// timestamp-delta chain. The zero value starts a chain at t=0; Reset
// restarts it. Append-style and allocation-free on a warm buffer.
type EventEncoder struct {
	last time.Duration
}

// Reset restarts the timestamp-delta chain.
func (enc *EventEncoder) Reset() { enc.last = 0 }

// AppendEvent appends one event record. Panics with ErrBinMarshal on an
// invalid kind or a negative timestamp (no simulation clock produces one).
func (enc *EventEncoder) AppendEvent(dst []byte, e *Event) []byte {
	return enc.appendEvent(dst, e.At, e.Kind, e.Sub, e.A, e.B, e.C, e.D)
}

// maxEventRecord is the longest event record: the body length (one byte,
// as every body is below 128), the tag, a 32-bit sub's varint, a 64-bit
// delta's and four values.
const maxEventRecord = 2 + binary.MaxVarintLen32 + binary.MaxVarintLen64 + 4*8

// appendEvent is the encoder behind AppendEvent and a spilling bus's emit,
// which calls it with the fields and builds no Event. One capacity check
// covers the longest record; all four values are stored unconditionally
// behind the varints, and the record's length keeps only the kind's named
// ones, so the stores need no branch on the kind.
func (enc *EventEncoder) appendEvent(dst []byte, at time.Duration, k Kind, sub int32, a, b, c, d float64) []byte {
	if k >= NumKinds || at < 0 {
		panic(ErrBinMarshal)
	}
	n := len(dst)
	if cap(dst)-n < maxEventRecord {
		dst = slices.Grow(dst, maxEventRecord)
	}
	r := dst[n : n+maxEventRecord]
	r[1] = byte(k)
	i := 2 + putVarint(r[2:], int64(sub))
	i += putVarint(r[i:], int64(at-enc.last))
	enc.last = at
	f := r[i : i+32]
	binary.LittleEndian.PutUint64(f[0:], math.Float64bits(a))
	binary.LittleEndian.PutUint64(f[8:], math.Float64bits(b))
	binary.LittleEndian.PutUint64(f[16:], math.Float64bits(c))
	binary.LittleEndian.PutUint64(f[24:], math.Float64bits(d))
	i += 8 * int(fieldCount[k])
	r[0] = byte(i - 1)
	return dst[:n+i]
}

// putVarint is binary.PutVarint with the one-byte form — a small sub, a
// zero delta — inlined.
func putVarint(b []byte, v int64) int {
	ux := uint64(v)<<1 ^ uint64(v>>63)
	if ux < 1<<7 {
		b[0] = byte(ux)
		return 1
	}
	return binary.PutUvarint(b, ux)
}

// RecTag discriminates decoded records.
type RecTag uint8

// Decoded record tags.
const (
	// RecHeader is the stream header (no payload).
	RecHeader RecTag = iota
	// RecEvent carries one Event (Shard tells which chain it came from).
	RecEvent
	// RecShard is a shard marker; Shard is the new current shard.
	RecShard
	// RecGauge carries one named gauge value for the current shard.
	RecGauge
)

// BinRecord is one decoded record.
type BinRecord struct {
	Tag RecTag
	// Shard is the shard the record belongs to (for RecShard, the shard
	// being switched to).
	Shard int32
	// Event is the decoded event (RecEvent only).
	Event Event
	// Name and Value are the gauge payload (RecGauge only).
	Name  string
	Value float64
}

// EventDecoder incrementally decodes a binary telemetry stream. It tracks
// the current shard and every shard's timestamp-delta chain, so records
// can be decoded from any sequence of buffer windows as long as each
// Next call starts exactly where the previous consumed bytes ended.
type EventDecoder struct {
	headerDone bool
	shard      int32
	// at is the current shard's chain; parked holds the chains of the
	// shards switched away from. A shard changes only at a marker, so the
	// per-event path touches no map.
	at     time.Duration
	parked map[int32]time.Duration
}

// Next decodes the next record from b into rec (every field is
// overwritten), returning how many bytes it consumed. Decoding into
// caller-owned storage keeps the per-record path free of allocation and
// of ~100-byte copies. ErrBinShort (with n == 0) means b ends mid-record:
// retry with more bytes. Any other error wraps ErrBinCorrupt and the
// stream is unrecoverable; rec is then unspecified.
func (d *EventDecoder) Next(b []byte, rec *BinRecord) (int, error) {
	if !d.headerDone {
		if len(b) < 4 {
			return 0, ErrBinShort
		}
		if b[0] != binMagic0 || b[1] != binMagic1 || b[2] != binMagic2 {
			return 0, fmt.Errorf("%w: bad magic %q", ErrBinCorrupt, b[:3])
		}
		if b[3] != BinVersion {
			return 0, fmt.Errorf("%w: unsupported version %d", ErrBinCorrupt, b[3])
		}
		d.headerDone = true
		*rec = BinRecord{Tag: RecHeader}
		return 4, nil
	}
	body, hn := binary.Uvarint(b)
	if hn == 0 {
		return 0, ErrBinShort
	}
	if hn < 0 || body == 0 || body > maxBinBody {
		return 0, fmt.Errorf("%w: record length %d", ErrBinCorrupt, body)
	}
	if len(b) < hn+int(body) {
		return 0, ErrBinShort
	}
	if err := d.decodeBody(b[hn:hn+int(body)], rec); err != nil {
		return 0, err
	}
	return hn + int(body), nil
}

func (d *EventDecoder) decodeBody(body []byte, rec *BinRecord) error {
	tag, rest := body[0], body[1:]
	switch {
	case tag < uint8(NumKinds):
		return d.decodeEvent(Kind(tag), rest, rec)
	case tag == tagShard:
		shard, n := binary.Varint(rest)
		if n <= 0 || n != len(rest) || shard < math.MinInt32 || shard > math.MaxInt32 {
			return fmt.Errorf("%w: shard marker body", ErrBinCorrupt)
		}
		if int32(shard) != d.shard {
			if d.parked == nil {
				d.parked = map[int32]time.Duration{}
			}
			d.parked[d.shard] = d.at
			d.shard = int32(shard)
			d.at = d.parked[d.shard]
		}
		*rec = BinRecord{Tag: RecShard, Shard: d.shard}
		return nil
	case tag == tagGauge:
		nameLen, n := binary.Uvarint(rest)
		if n <= 0 || nameLen == 0 || nameLen > maxGaugeName {
			return fmt.Errorf("%w: gauge name length", ErrBinCorrupt)
		}
		if len(rest) != n+int(nameLen)+8 {
			return fmt.Errorf("%w: gauge body size", ErrBinCorrupt)
		}
		name := string(rest[n : n+int(nameLen)])
		bits := binary.LittleEndian.Uint64(rest[n+int(nameLen):])
		*rec = BinRecord{Tag: RecGauge, Shard: d.shard, Name: name, Value: math.Float64frombits(bits)}
		return nil
	default:
		return fmt.Errorf("%w: unknown record tag 0x%02x", ErrBinCorrupt, tag)
	}
}

func (d *EventDecoder) decodeEvent(k Kind, rest []byte, rec *BinRecord) error {
	sub, n := binary.Varint(rest)
	if n <= 0 || sub < math.MinInt32 || sub > math.MaxInt32 {
		return fmt.Errorf("%w: %s sub", ErrBinCorrupt, k)
	}
	rest = rest[n:]
	delta, n := binary.Varint(rest)
	if n <= 0 {
		return fmt.Errorf("%w: %s timestamp delta", ErrBinCorrupt, k)
	}
	rest = rest[n:]
	at := d.at + time.Duration(delta)
	if at < 0 {
		return fmt.Errorf("%w: %s timestamp went negative", ErrBinCorrupt, k)
	}
	if len(rest) != 8*int(fieldCount[k]) {
		return fmt.Errorf("%w: %s field payload %dB (want %dB)",
			ErrBinCorrupt, k, len(rest), 8*int(fieldCount[k]))
	}
	d.at = at
	var vals [4]float64
	for i := 0; i < int(fieldCount[k]); i++ {
		vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(rest[8*i:]))
	}
	*rec = BinRecord{
		Tag:   RecEvent,
		Shard: d.shard,
		Event: Event{At: at, Kind: k, Sub: int32(sub), A: vals[0], B: vals[1], C: vals[2], D: vals[3]},
	}
	return nil
}
