package realnet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"
	"time"

	"poi360/internal/projection"
)

func testReport() Report {
	return Report{
		Seq:        17,
		SentAt:     1234567 * time.Microsecond,
		CumBytes:   987654,
		CumPackets: 781,
		HighestSeq: 799,
		ROI:        projection.Tile{I: 11, J: 3},
		Mismatch:   137 * time.Millisecond,
		GCCRate:    1.8e6,
	}
}

func TestReportRoundTrip(t *testing.T) {
	rep := testReport()
	b := rep.AppendTo(nil)
	if len(b) != ReportLen {
		t.Fatalf("report length %d, want %d", len(b), ReportLen)
	}
	got, err := ParseReport(b)
	if err != nil {
		t.Fatalf("ParseReport: %v", err)
	}
	if got != rep {
		t.Fatalf("round trip skew:\n got %+v\nwant %+v", got, rep)
	}

	// HighestSeq -1 (no media yet) must survive the +1 wire bias.
	rep.HighestSeq = -1
	rep.CumPackets = 0
	rep.CumBytes = 0
	got, err = ParseReport(rep.AppendTo(nil))
	if err != nil {
		t.Fatalf("ParseReport(empty): %v", err)
	}
	if got.HighestSeq != -1 {
		t.Fatalf("HighestSeq %d, want -1", got.HighestSeq)
	}
	buf := make([]byte, 0, ReportLen)
	if allocs := testing.AllocsPerRun(100, func() { buf = rep.AppendTo(buf[:0]) }); allocs != 0 {
		t.Fatalf("AppendTo on a warm buffer: %v allocs/op, want 0", allocs)
	}
}

func TestReportCorruptRejected(t *testing.T) {
	rep := testReport()
	good := rep.AppendTo(nil)
	if good[0]>>6 == 2 {
		t.Error("report magic collides with the RTP version bits")
	}
	cases := map[string]struct {
		want   error
		mutate func([]byte) []byte
	}{
		"zero datagram":    {ErrReportHeader, func(b []byte) []byte { return make([]byte, ReportLen) }},
		"empty":            {ErrReportShort, func(b []byte) []byte { return b[:0] }},
		"truncated":        {ErrReportShort, func(b []byte) []byte { return b[:ReportLen-1] }},
		"trailing-bytes":   {ErrReportHeader, func(b []byte) []byte { return append(b, 0) }},
		"bad-magic":        {ErrReportHeader, func(b []byte) []byte { b[0] = 0x90; return b }},
		"bad-version":      {ErrReportHeader, func(b []byte) []byte { b[1] = 9; return b }},
		"reserved-head":    {ErrReportHeader, func(b []byte) []byte { b[2] = 1; return b }},
		"reserved-mid":     {ErrReportHeader, func(b []byte) []byte { b[43] = 0xFF; return b }},
		"negative-sent-at": {ErrReportRange, func(b []byte) []byte { b[8] |= 0x80; return b }},
		"huge-highest":     {ErrReportRange, func(b []byte) []byte { b[32] |= 0x80; return b }},
		"nan-rate": {ErrReportRange, func(b []byte) []byte {
			binary.BigEndian.PutUint64(b[48:], math.Float64bits(math.NaN()))
			return b
		}},
		"negative-rate": {ErrReportRange, func(b []byte) []byte {
			binary.BigEndian.PutUint64(b[48:], math.Float64bits(-1))
			return b
		}},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			b := append([]byte(nil), good...)
			_, err := ParseReport(tc.mutate(b))
			if err == nil {
				t.Fatal("corrupt report accepted")
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("error %v, want %v", err, tc.want)
			}
		})
	}
}

func TestReportMarshalPanicsOutOfRange(t *testing.T) {
	cases := map[string]func(*Report){
		"negative-sent":     func(r *Report) { r.SentAt = -1 },
		"highest-below--1":  func(r *Report) { r.HighestSeq = -2 },
		"wide-roi":          func(r *Report) { r.ROI.I = 300 },
		"negative-mismatch": func(r *Report) { r.Mismatch = -time.Millisecond },
		"nan-rate":          func(r *Report) { r.GCCRate = math.NaN() },
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			rep := testReport()
			mutate(&rep)
			defer func() {
				if recover() == nil {
					t.Fatal("AppendTo accepted an unrepresentable report")
				}
			}()
			rep.AppendTo(nil)
		})
	}
}

// FuzzReportRoundTrip: whatever ParseReport accepts re-marshals to the same
// 56 bytes and re-parses to the same Report, and no input panics — the
// sender parses this codec straight off a socket.
func FuzzReportRoundTrip(f *testing.F) {
	rep := testReport()
	f.Add(rep.AppendTo(nil))
	f.Add((&Report{HighestSeq: -1}).AppendTo(nil))
	f.Add(make([]byte, ReportLen))
	f.Add([]byte{ReportMagic, reportVersion})
	f.Add(append(rep.AppendTo(nil), 0))

	f.Fuzz(func(t *testing.T, b []byte) {
		got, err := ParseReport(b)
		if err != nil {
			return // rejected is fine; panicking is not
		}
		out := got.AppendTo(nil)
		if !bytes.Equal(out, b) {
			t.Fatalf("re-marshal differs:\n got %x\nwant %x", out, b)
		}
		again, err := ParseReport(out)
		if err != nil {
			t.Fatalf("re-parse of re-marshal failed: %v", err)
		}
		if again != got {
			t.Fatalf("round-trip skew:\n got %+v\nwant %+v", again, got)
		}
	})
}
