// The reverse-channel report codec: the wire carrier of session.Feedback,
// which the simulated session passes by value. One fixed-size
// datagram per report interval carries the transport accounting the sender
// needs to synthesize FBCC's diagnostic feed (cumulative received bytes and
// packets, highest sequence seen) together with the application feedback of
// §5 (viewer ROI, window-averaged mismatch M, receiver-side GCC rate).
// Like the media codec it is strict on parse: wrong length, reserved bits,
// or non-finite rates are rejected with an error, never a panic.

package realnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"

	"poi360/internal/projection"
)

// Report codec constants.
const (
	// ReportMagic marks a reverse-channel report datagram. It deliberately
	// cannot collide with a media packet: a media datagram starts with the
	// RTP version bits (0x80..0xBF), a report with 0xFE.
	ReportMagic = 0xFE
	// reportVersion is the report layout version.
	reportVersion = 1
	// ReportLen is the exact report datagram size.
	ReportLen = 56
)

// Report parse errors.
var (
	ErrReportShort  = errors.New("realnet: report datagram truncated")
	ErrReportHeader = errors.New("realnet: malformed report")
	ErrReportRange  = errors.New("realnet: report field out of range")
)

// Report is one reverse-channel feedback message from receiver to sender.
type Report struct {
	// Seq orders reports; the sender drops reordered (stale) ones.
	Seq uint32
	// SentAt is the receiver-clock send instant (debugging; the sender
	// never compares it with its own clock).
	SentAt time.Duration

	// Transport accounting, cumulative since the receiver started.
	CumBytes   uint64 // wire bytes of accepted media datagrams, each sequence once
	CumPackets uint64 // accepted media datagrams, each sequence once
	HighestSeq int64  // highest transport sequence seen; -1 before any

	// Application feedback (§5).
	ROI      projection.Tile
	Mismatch time.Duration // window-averaged M
	GCCRate  float64       // receiver-side GCC target, bits/s
}

// AppendTo marshals the report appended to dst (allocation-free on a warm
// buffer). Unrepresentable fields panic — the receiver pipeline never
// produces them.
func (r *Report) AppendTo(dst []byte) []byte {
	if r.SentAt < 0 || r.HighestSeq < -1 ||
		r.ROI.I < 0 || r.ROI.I > math.MaxUint8 ||
		r.ROI.J < 0 || r.ROI.J > math.MaxUint8 ||
		r.Mismatch < 0 || r.Mismatch > math.MaxUint32*time.Microsecond ||
		math.IsNaN(r.GCCRate) || math.IsInf(r.GCCRate, 0) || r.GCCRate < 0 {
		panic(fmt.Errorf("realnet: report not representable: %+v", *r))
	}
	dst = append(dst, ReportMagic, reportVersion, 0, 0)
	dst = binary.BigEndian.AppendUint32(dst, r.Seq)
	dst = binary.BigEndian.AppendUint64(dst, uint64(r.SentAt.Nanoseconds()))
	dst = binary.BigEndian.AppendUint64(dst, r.CumBytes)
	dst = binary.BigEndian.AppendUint64(dst, r.CumPackets)
	dst = binary.BigEndian.AppendUint64(dst, uint64(r.HighestSeq+1)) // 0 = none yet
	dst = append(dst, byte(r.ROI.I), byte(r.ROI.J), 0, 0)
	dst = binary.BigEndian.AppendUint32(dst, uint32(r.Mismatch/time.Microsecond))
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(r.GCCRate))
	return dst
}

// ParseReport strictly unmarshals one report datagram.
func ParseReport(b []byte) (Report, error) {
	var r Report
	if len(b) < ReportLen {
		return r, fmt.Errorf("%w: %d bytes, need %d", ErrReportShort, len(b), ReportLen)
	}
	if len(b) != ReportLen {
		return r, fmt.Errorf("%w: %d trailing bytes", ErrReportHeader, len(b)-ReportLen)
	}
	if b[0] != ReportMagic {
		return r, fmt.Errorf("%w: magic %#02x", ErrReportHeader, b[0])
	}
	if b[1] != reportVersion {
		return r, fmt.Errorf("%w: version %d", ErrReportHeader, b[1])
	}
	if b[2] != 0 || b[3] != 0 {
		return r, fmt.Errorf("%w: reserved bytes %#02x%02x", ErrReportHeader, b[2], b[3])
	}
	r.Seq = binary.BigEndian.Uint32(b[4:])
	sentNS := binary.BigEndian.Uint64(b[8:])
	if sentNS > math.MaxInt64 {
		return r, fmt.Errorf("%w: negative send instant", ErrReportRange)
	}
	r.SentAt = time.Duration(sentNS)
	r.CumBytes = binary.BigEndian.Uint64(b[16:])
	r.CumPackets = binary.BigEndian.Uint64(b[24:])
	hi := binary.BigEndian.Uint64(b[32:])
	if hi > math.MaxInt64 {
		return r, fmt.Errorf("%w: highest sequence %d", ErrReportRange, hi)
	}
	// CumPackets is not checked against HighestSeq+1: Receiver counts each
	// sequence once (duplicates and late arrivals are not acked), but the
	// codec does not police its peer, and the sender treats a surplus as
	// nothing lost.
	r.HighestSeq = int64(hi) - 1
	r.ROI = projection.Tile{I: int(b[40]), J: int(b[41])}
	if b[42] != 0 || b[43] != 0 {
		return r, fmt.Errorf("%w: reserved bytes %#02x%02x", ErrReportHeader, b[42], b[43])
	}
	r.Mismatch = time.Duration(binary.BigEndian.Uint32(b[44:])) * time.Microsecond
	r.GCCRate = math.Float64frombits(binary.BigEndian.Uint64(b[48:]))
	if math.IsNaN(r.GCCRate) || math.IsInf(r.GCCRate, 0) || r.GCCRate < 0 {
		return r, fmt.Errorf("%w: GCC rate %v", ErrReportRange, r.GCCRate)
	}
	return r, nil
}
