// This file is the RTP wire codec: the binary on-the-wire form of a media Packet for the
// real-transport backend (internal/realnet). The layout is RFC 3550-shaped
// — a 12-byte fixed header (V/P/X/CC, M/PT, 16-bit sequence, 90 kHz
// timestamp, SSRC) followed by a one-word extension header — with the
// POI360 frame metadata (full 64-bit transport sequence, capture/send
// instants, frame seq/index/count, declared payload size, sender-ROI tile,
// compression mode/scale, content jitter) carried in a fixed-size header
// extension, mirroring how the prototype embeds compression metadata in
// the canvas (§5). The datagram body is the declared payload size of
// synthetic media bytes, so live traffic has the same wire footprint as
// the simulated stream.
//
// Marshal is append-style and allocation-free on a warm buffer; unmarshal
// is strict — every reserved bit, redundant field (seq16 vs. the 64-bit
// sequence, the 90 kHz timestamp vs. the nanosecond capture instant), and
// length is validated, so a truncated or corrupted datagram is rejected
// with an error, never accepted skewed and never a panic.

package rtp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"poi360/internal/projection"
	"poi360/internal/video"
)

// Wire format constants.
const (
	// WireVersion is the RTP version (RFC 3550 §5.1).
	WireVersion = 2
	// WireMediaPT is the dynamic payload type of POI360 media packets.
	WireMediaPT = 96
	// wireExtProfile identifies the POI360 header extension ("P6").
	wireExtProfile = 0x5036
	// wireExtWords is the extension length in 32-bit words.
	wireExtWords = 12
	// WireHeaderLen is the full header size: 12 fixed + 4 extension header
	// + wireExtWords*4 extension payload.
	WireHeaderLen = 12 + 4 + wireExtWords*4
	// wireTSHz is the RTP media clock rate (90 kHz, the video convention).
	wireTSHz = 90000
)

// Wire unmarshal errors. ParseWire wraps these with positional detail;
// errors.Is matches the category.
var (
	ErrWireShort   = errors.New("rtp: wire packet too short")
	ErrWireHeader  = errors.New("rtp: malformed wire header")
	ErrWireLength  = errors.New("rtp: wire length mismatch")
	ErrWireRange   = errors.New("rtp: wire field out of range")
	ErrWireMarshal = errors.New("rtp: packet not representable on the wire")
)

// WireHeader is the decoded header of one media packet: everything Packet
// carries except the *video.EncodedFrame pointer, which has no wire form —
// the frame-level metadata rides flat and Materialize rebuilds the frame
// view at the receiver.
type WireHeader struct {
	SSRC   uint32
	Marker bool // set on the last packet of a frame

	Seq      int64 // transport-wide sequence (the pacer's stamp)
	FrameSeq int
	Index    int
	Count    int
	Bytes    int // declared media payload size carried after the header

	Capture time.Duration // sender capture instant (sender clock, ns)
	SentAt  time.Duration // pacer departure instant (sender clock, ns)

	ROI    projection.Tile // sender's ROI belief when compressing
	Mode   int             // compression mode label
	Scale  float64         // uniform encoder scale (float32 on the wire)
	Jitter float64         // content-difficulty offset dB (float32 on the wire)
}

// wireTimestamp is the RFC timestamp field: the capture instant on the
// 90 kHz media clock, wrapping naturally in 32 bits.
func wireTimestamp(capture time.Duration) uint32 {
	return uint32(capture.Nanoseconds() * wireTSHz / int64(time.Second))
}

// AppendWire marshals p as one wire packet — header plus p.Bytes of
// zero-valued media payload — appended to dst, and returns the grown
// slice. It is the zero-alloc marshal path: with dst capacity already at
// WireHeaderLen+p.Bytes nothing is allocated and the payload costs one
// clear of the reused bytes, so a packet marshals in about the time it
// parses. A packet without a frame, or with fields that cannot be
// represented (negative or >16-bit counts, a tile outside a byte, a
// negative capture instant), panics with ErrWireMarshal: the sender
// pipeline never produces one, so hitting one is a programming error
// upstream.
func (p *Packet) AppendWire(dst []byte, ssrc uint32) []byte {
	f := p.Frame
	if f == nil || p.FrameSeq < 0 || p.FrameSeq > math.MaxUint32 ||
		p.Count <= 0 || p.Count > math.MaxUint16 ||
		p.Index < 0 || p.Index >= p.Count ||
		p.Bytes < 0 || p.Bytes > math.MaxUint16 ||
		p.Seq < 0 || f.Capture < 0 || p.SentAt < 0 ||
		f.SenderROI.I < 0 || f.SenderROI.I > math.MaxUint8 ||
		f.SenderROI.J < 0 || f.SenderROI.J > math.MaxUint8 ||
		f.Mode < 0 || f.Mode > math.MaxUint8 {
		panic(fmt.Errorf("%w: %+v", ErrWireMarshal, *p))
	}
	b0 := byte(WireVersion<<6) | 0x10 // V=2, P=0, X=1, CC=0
	b1 := byte(WireMediaPT)
	if p.Index == p.Count-1 {
		b1 |= 0x80 // marker: frame boundary
	}
	dst = append(dst, b0, b1)
	dst = binary.BigEndian.AppendUint16(dst, uint16(p.Seq))
	dst = binary.BigEndian.AppendUint32(dst, wireTimestamp(f.Capture))
	dst = binary.BigEndian.AppendUint32(dst, ssrc)
	// Extension header + POI360 extension body.
	dst = binary.BigEndian.AppendUint16(dst, wireExtProfile)
	dst = binary.BigEndian.AppendUint16(dst, wireExtWords)
	dst = binary.BigEndian.AppendUint64(dst, uint64(p.Seq))
	dst = binary.BigEndian.AppendUint64(dst, uint64(f.Capture.Nanoseconds()))
	dst = binary.BigEndian.AppendUint64(dst, uint64(p.SentAt.Nanoseconds()))
	dst = binary.BigEndian.AppendUint32(dst, uint32(p.FrameSeq))
	dst = binary.BigEndian.AppendUint16(dst, uint16(p.Index))
	dst = binary.BigEndian.AppendUint16(dst, uint16(p.Count))
	dst = binary.BigEndian.AppendUint16(dst, uint16(p.Bytes))
	dst = append(dst, byte(f.SenderROI.I), byte(f.SenderROI.J), byte(f.Mode), 0)
	dst = binary.BigEndian.AppendUint32(dst, math.Float32bits(float32(f.Scale)))
	dst = binary.BigEndian.AppendUint32(dst, math.Float32bits(float32(f.Jitter)))
	dst = binary.BigEndian.AppendUint16(dst, 0) // reserved, must be zero
	// Synthetic media payload: the declared size in zero bytes. Cleared
	// (one memclr) even on a reused buffer, so the padding region is
	// deterministic whatever the buffer held before.
	old := len(dst)
	dst = slices.Grow(dst, p.Bytes)[:old+p.Bytes]
	clear(dst[old:])
	return dst
}

// ParseWire strictly unmarshals one wire packet (see Unmarshal).
func ParseWire(b []byte) (WireHeader, error) {
	var h WireHeader
	err := h.Unmarshal(b)
	return h, err
}

// Unmarshal strictly parses one wire packet into h. The datagram must be
// exactly header plus the declared payload; every reserved field and both
// redundant encodings (seq16, 90 kHz timestamp) must be consistent.
// Corrupt or truncated input returns an error — never a panic, never a
// silently skewed header — and leaves h partly overwritten.
func (h *WireHeader) Unmarshal(b []byte) error {
	if len(b) < WireHeaderLen {
		return fmt.Errorf("%w: %d bytes, header needs %d", ErrWireShort, len(b), WireHeaderLen)
	}
	if v := b[0] >> 6; v != WireVersion {
		return fmt.Errorf("%w: version %d", ErrWireHeader, v)
	}
	if b[0]&0x3F != 0x10 { // P=0, X=1, CC=0
		return fmt.Errorf("%w: flags %#02x", ErrWireHeader, b[0])
	}
	if pt := b[1] & 0x7F; pt != WireMediaPT {
		return fmt.Errorf("%w: payload type %d", ErrWireHeader, pt)
	}
	h.Marker = b[1]&0x80 != 0
	seq16 := binary.BigEndian.Uint16(b[2:])
	ts := binary.BigEndian.Uint32(b[4:])
	h.SSRC = binary.BigEndian.Uint32(b[8:])
	if prof := binary.BigEndian.Uint16(b[12:]); prof != wireExtProfile {
		return fmt.Errorf("%w: extension profile %#04x", ErrWireHeader, prof)
	}
	if words := binary.BigEndian.Uint16(b[14:]); words != wireExtWords {
		return fmt.Errorf("%w: extension length %d words", ErrWireHeader, words)
	}
	seq := binary.BigEndian.Uint64(b[16:])
	if seq > math.MaxInt64 {
		return fmt.Errorf("%w: sequence %d", ErrWireRange, seq)
	}
	h.Seq = int64(seq)
	if uint16(h.Seq) != seq16 {
		return fmt.Errorf("%w: seq16 %d != low bits of seq %d", ErrWireHeader, seq16, h.Seq)
	}
	capNS := binary.BigEndian.Uint64(b[24:])
	sentNS := binary.BigEndian.Uint64(b[32:])
	if capNS > math.MaxInt64 || sentNS > math.MaxInt64 {
		return fmt.Errorf("%w: negative instant", ErrWireRange)
	}
	h.Capture = time.Duration(capNS)
	h.SentAt = time.Duration(sentNS)
	if ts != wireTimestamp(h.Capture) {
		return fmt.Errorf("%w: timestamp %d inconsistent with capture %v", ErrWireHeader, ts, h.Capture)
	}
	h.FrameSeq = int(binary.BigEndian.Uint32(b[40:]))
	h.Index = int(binary.BigEndian.Uint16(b[44:]))
	h.Count = int(binary.BigEndian.Uint16(b[46:]))
	if h.Count == 0 || h.Index >= h.Count {
		return fmt.Errorf("%w: packet %d of %d", ErrWireRange, h.Index, h.Count)
	}
	if h.Marker != (h.Index == h.Count-1) {
		return fmt.Errorf("%w: marker %v at packet %d of %d", ErrWireHeader, h.Marker, h.Index, h.Count)
	}
	h.Bytes = int(binary.BigEndian.Uint16(b[48:]))
	h.ROI = projection.Tile{I: int(b[50]), J: int(b[51])}
	h.Mode = int(b[52])
	if b[53] != 0 {
		return fmt.Errorf("%w: reserved flag byte %#02x", ErrWireHeader, b[53])
	}
	h.Scale = float64(math.Float32frombits(binary.BigEndian.Uint32(b[54:])))
	h.Jitter = float64(math.Float32frombits(binary.BigEndian.Uint32(b[58:])))
	if rsv := binary.BigEndian.Uint16(b[62:]); rsv != 0 {
		return fmt.Errorf("%w: reserved trailer %#04x", ErrWireHeader, rsv)
	}
	if len(b) != WireHeaderLen+h.Bytes {
		return fmt.Errorf("%w: datagram %d bytes, header declares %d of payload",
			ErrWireLength, len(b), h.Bytes)
	}
	if f32 := h.Scale; math.IsNaN(f32) || math.IsInf(f32, 0) || f32 < 0 {
		return fmt.Errorf("%w: scale %v", ErrWireRange, f32)
	}
	if j := h.Jitter; math.IsNaN(j) || math.IsInf(j, 0) {
		return fmt.Errorf("%w: jitter %v", ErrWireRange, j)
	}
	return nil
}

// Materialize rebuilds the receiver-side Packet view of this header,
// filling f with the frame-level metadata (capture instant, ROI, mode,
// scale, jitter; no spatial matrix — the wire carries transport metadata,
// not the per-tile level map) and returning h.Packet(f).
func (h *WireHeader) Materialize(f *video.EncodedFrame) Packet {
	*f = video.EncodedFrame{
		Seq:       h.FrameSeq,
		Capture:   h.Capture,
		Scale:     h.Scale,
		Jitter:    h.Jitter,
		SenderROI: h.ROI,
		Mode:      h.Mode,
	}
	return h.Packet(f)
}

// Packet returns the Packet view of this header around f, a frame record
// Materialize filled from a header of the same frame.
func (h *WireHeader) Packet(f *video.EncodedFrame) Packet {
	return Packet{
		FrameSeq: h.FrameSeq,
		Index:    h.Index,
		Count:    h.Count,
		Bytes:    h.Bytes,
		Frame:    f,
		SentAt:   h.SentAt,
		Seq:      h.Seq,
	}
}
