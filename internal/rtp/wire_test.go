package rtp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
	"time"

	"poi360/internal/projection"
	"poi360/internal/video"
)

// wireTestPacket builds a representative mid-frame media packet.
func wireTestPacket() (Packet, *video.EncodedFrame) {
	f := &video.EncodedFrame{
		Seq:       41,
		Capture:   1367 * time.Millisecond,
		Bits:      421344,
		Scale:     2.5,
		Jitter:    -0.75,
		SenderROI: projection.Tile{I: 7, J: 3},
		Mode:      5,
	}
	return Packet{
		FrameSeq: 41,
		Index:    2,
		Count:    5,
		Bytes:    MTU,
		Frame:    f,
		SentAt:   1371 * time.Millisecond,
		Seq:      207,
	}, f
}

func TestWireRoundTrip(t *testing.T) {
	pkt, _ := wireTestPacket()
	const ssrc = 0xDEADBEEF
	b := pkt.AppendWire(nil, ssrc)
	if len(b) != WireHeaderLen+pkt.Bytes {
		t.Fatalf("wire length %d, want %d", len(b), WireHeaderLen+pkt.Bytes)
	}
	h, err := ParseWire(b)
	if err != nil {
		t.Fatalf("ParseWire: %v", err)
	}
	if h.SSRC != ssrc {
		t.Errorf("SSRC %#x, want %#x", h.SSRC, uint32(ssrc))
	}
	if h.Marker {
		t.Error("marker set on a mid-frame packet")
	}
	var f video.EncodedFrame
	got := h.Materialize(&f)
	if got.FrameSeq != pkt.FrameSeq || got.Index != pkt.Index || got.Count != pkt.Count ||
		got.Bytes != pkt.Bytes || got.Seq != pkt.Seq || got.SentAt != pkt.SentAt {
		t.Errorf("packet fields skewed: got %+v want %+v", got, pkt)
	}
	if f.Capture != pkt.Frame.Capture || f.SenderROI != pkt.Frame.SenderROI ||
		f.Mode != pkt.Frame.Mode || f.Scale != pkt.Frame.Scale {
		t.Errorf("frame metadata skewed: got %+v", f)
	}
	// float32 carriage: Jitter must round-trip through the wire exactly
	// once it has been through a float32.
	if f.Jitter != float64(float32(pkt.Frame.Jitter)) {
		t.Errorf("jitter %v, want %v", f.Jitter, float64(float32(pkt.Frame.Jitter)))
	}

	// The last packet of a frame carries the marker.
	last := pkt
	last.Index = last.Count - 1
	h2, err := ParseWire(last.AppendWire(nil, ssrc))
	if err != nil {
		t.Fatalf("ParseWire(last): %v", err)
	}
	if !h2.Marker {
		t.Error("marker clear on the last packet of a frame")
	}
	buf := make([]byte, 0, WireHeaderLen+MTU)
	if allocs := testing.AllocsPerRun(100, func() { buf = pkt.AppendWire(buf[:0], 1) }); allocs != 0 {
		t.Fatalf("AppendWire on a warm buffer: %v allocs/op, want 0", allocs)
	}
}

// TestWireMarshalZeroesDirtyBuffer: the synthetic payload is zero whatever
// the reused buffer held — including past its previous length — and the
// datagram still round-trips.
func TestWireMarshalZeroesDirtyBuffer(t *testing.T) {
	pkt, _ := wireTestPacket()
	buf := make([]byte, WireHeaderLen+MTU+64)
	for i := range buf {
		buf[i] = 0xFF
	}
	for _, bytes := range []int{MTU, 1, 0, 700} {
		pkt.Bytes = bytes
		b := pkt.AppendWire(buf[:0], 7)
		if &b[0] != &buf[0] {
			t.Fatalf("Bytes=%d: warm buffer was reallocated", bytes)
		}
		for i, v := range b[WireHeaderLen:] {
			if v != 0 {
				t.Fatalf("Bytes=%d: payload byte %d = %#02x, want 0", bytes, i, v)
			}
		}
		h, err := ParseWire(b)
		if err != nil {
			t.Fatalf("Bytes=%d: ParseWire: %v", bytes, err)
		}
		if h.Bytes != bytes || h.Seq != pkt.Seq || h.SSRC != 7 {
			t.Fatalf("Bytes=%d: header %+v skewed", bytes, h)
		}
		for i := range b { // dirty it again for the next size
			b[i] = 0xFF
		}
	}
}

// TestWireCorruptRejected drives the strict-unmarshal contract: every
// truncation and every field corruption is rejected with an error — and
// none of them panics.
func TestWireCorruptRejected(t *testing.T) {
	pkt, _ := wireTestPacket()
	good := pkt.AppendWire(nil, 7)

	corrupt := func(name string, wantErr error, mutate func([]byte) []byte) {
		t.Run(name, func(t *testing.T) {
			if _, err := ParseWire(mutate(append([]byte(nil), good...))); err == nil || wantErr != nil && !errors.Is(err, wantErr) {
				t.Fatalf("error %v, want %v", err, wantErr)
			}
		})
	}

	for _, n := range []int{0, 1, 11, 12, 15, 16, WireHeaderLen - 1} {
		corrupt(fmt.Sprintf("truncated-to-%d", n), ErrWireShort,
			func(b []byte) []byte { return b[:n] })
	}
	corrupt("truncated-payload", ErrWireLength, func(b []byte) []byte { return b[:len(b)-1] })
	corrupt("extra-trailing-byte", ErrWireLength, func(b []byte) []byte { return append(b, 0) })
	corrupt("bad-version", ErrWireHeader, func(b []byte) []byte { b[0] = 0x50; return b })
	corrupt("padding-bit-set", ErrWireHeader, func(b []byte) []byte { b[0] |= 0x20; return b })
	corrupt("no-extension-bit", ErrWireHeader, func(b []byte) []byte { b[0] &^= 0x10; return b })
	corrupt("csrc-count", ErrWireHeader, func(b []byte) []byte { b[0] |= 0x03; return b })
	corrupt("bad-payload-type", ErrWireHeader, func(b []byte) []byte { b[1] = (b[1] & 0x80) | 97; return b })
	corrupt("marker-flipped", ErrWireHeader, func(b []byte) []byte { b[1] ^= 0x80; return b })
	corrupt("seq16-mismatch", ErrWireHeader, func(b []byte) []byte { b[3] ^= 0xFF; return b })
	corrupt("timestamp-skew", ErrWireHeader, func(b []byte) []byte { b[5] ^= 0x01; return b })
	corrupt("bad-ext-profile", ErrWireHeader, func(b []byte) []byte { b[12] = 0; return b })
	corrupt("bad-ext-length", ErrWireHeader, func(b []byte) []byte { b[15] = 3; return b })
	corrupt("negative-seq", nil, func(b []byte) []byte { b[16] |= 0x80; return b })
	corrupt("zero-count", ErrWireRange, func(b []byte) []byte {
		binary.BigEndian.PutUint16(b[46:], 0)
		return b
	})
	corrupt("index-past-count", ErrWireRange, func(b []byte) []byte {
		binary.BigEndian.PutUint16(b[44:], 9)
		binary.BigEndian.PutUint16(b[46:], 5)
		return b
	})
	corrupt("reserved-flag", ErrWireHeader, func(b []byte) []byte { b[53] = 1; return b })
	corrupt("reserved-trailer", ErrWireHeader, func(b []byte) []byte { b[63] = 0xAA; return b })
	corrupt("nan-scale", ErrWireRange, func(b []byte) []byte {
		binary.BigEndian.PutUint32(b[54:], 0x7FC00000) // quiet NaN
		return b
	})
	corrupt("negative-scale", ErrWireRange, func(b []byte) []byte {
		binary.BigEndian.PutUint32(b[54:], 0xBF800000) // -1.0
		return b
	})
	corrupt("declared-bytes-skew", ErrWireLength, func(b []byte) []byte {
		binary.BigEndian.PutUint16(b[48:], uint16(pkt.Bytes-1))
		return b
	})
}

// TestWireMarshalPanicsOutOfRange pins the documented AppendWire contract:
// unrepresentable packets are a programming error upstream, not silent
// truncation on the wire.
func TestWireMarshalPanicsOutOfRange(t *testing.T) {
	cases := map[string]func(*Packet){
		"negative-index": func(p *Packet) { p.Index = -1 },
		"huge-count":     func(p *Packet) { p.Count = 1 << 17; p.Index = 0 },
		"negative-seq":   func(p *Packet) { p.Seq = -1 },
		"huge-bytes":     func(p *Packet) { p.Bytes = 1 << 16 },
		"wide-roi":       func(p *Packet) { p.Frame.SenderROI.I = 300 },
		"no-frame":       func(p *Packet) { p.Frame = nil },
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			pkt, _ := wireTestPacket()
			mutate(&pkt)
			defer func() {
				if recover() == nil {
					t.Fatal("AppendWire accepted an unrepresentable packet")
				}
			}()
			pkt.AppendWire(nil, 1)
		})
	}
}

// FuzzPacketWireRoundTrip fuzzes the binary↔struct round trip: any input
// ParseWire accepts must re-marshal to a byte-identical header (the payload
// body is synthetic padding and excluded), re-parse to an identical header
// struct, and no input may panic.
func FuzzPacketWireRoundTrip(f *testing.F) {
	pkt, _ := wireTestPacket()
	f.Add(pkt.AppendWire(nil, 99))
	last := pkt
	last.Index = last.Count - 1
	last.Bytes = 1
	f.Add(last.AppendWire(nil, 0))
	small := pkt
	small.Bytes = 0
	f.Add(small.AppendWire(nil, 0xFFFFFFFF))
	f.Add([]byte{})
	f.Add([]byte{0x90, 96, 0, 0})

	f.Fuzz(func(t *testing.T, b []byte) {
		h, err := ParseWire(b)
		if err != nil {
			return // rejected is fine; panicking is not
		}
		var fr video.EncodedFrame
		rebuilt := h.Materialize(&fr)
		out := rebuilt.AppendWire(nil, h.SSRC)
		if len(out) != len(b) {
			t.Fatalf("re-marshal length %d != input %d", len(out), len(b))
		}
		for i := 0; i < WireHeaderLen; i++ {
			if out[i] != b[i] {
				t.Fatalf("header byte %d: re-marshal %#02x != input %#02x", i, out[i], b[i])
			}
		}
		h2, err := ParseWire(out)
		if err != nil {
			t.Fatalf("re-parse of re-marshal failed: %v", err)
		}
		if h2 != h {
			t.Fatalf("round-trip header skew:\n got %+v\nwant %+v", h2, h)
		}
	})
}

// The per-packet cost of the live wire codec (DESIGN.md §16): a full-MTU
// packet marshalled into a warm buffer, and parsed back.
func BenchmarkWireMarshal(b *testing.B) {
	pkt, _ := wireTestPacket()
	buf := make([]byte, 0, WireHeaderLen+MTU)
	b.ReportAllocs()
	b.SetBytes(int64(WireHeaderLen + MTU))
	for i := 0; i < b.N; i++ {
		buf = pkt.AppendWire(buf[:0], 1)
	}
}

var benchHeader WireHeader

func BenchmarkWireParse(b *testing.B) {
	pkt, _ := wireTestPacket()
	wire := pkt.AppendWire(nil, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h, err := ParseWire(wire)
		if err != nil {
			b.Fatal(err)
		}
		benchHeader = h
	}
}
