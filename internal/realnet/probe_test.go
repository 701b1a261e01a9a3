package realnet

import (
	"testing"
	"time"

	"poi360/internal/obs"
	"poi360/internal/rtp"
	"poi360/internal/simclock"
)

// TestJitterProbeEmitsPathologies drives the jitter buffer through each
// reordering pathology and checks the net.jitter stream mirrors the
// counters: one event per late arrival, duplicate, and hold-expiry skip.
func TestJitterProbeEmitsPathologies(t *testing.T) {
	clk := simclock.New()
	bus := obs.NewBus()
	jb := NewJitterBuffer(clk, 30*time.Millisecond, func(*rtp.WireHeader, time.Duration) {})
	jb.SetProbe(bus.Probe(0))

	push := func(d time.Duration, seq int64) {
		clk.Schedule(d, func() { jb.Push(hdr(seq)) })
	}
	push(0, 0)
	push(1*time.Millisecond, 2)
	push(2*time.Millisecond, 2) // duplicate of a buffered sequence
	push(3*time.Millisecond, 1)
	push(10*time.Millisecond, 0) // late: sequence already released
	push(20*time.Millisecond, 5) // 3 and 4 never arrive -> skip at hold expiry
	clk.Run(time.Second)

	if got := bus.Count(obs.NetJitter); got != 3 {
		t.Fatalf("net.jitter count = %d, want 3 (dup, late, skip)", got)
	}
	var late, dup, skipped float64
	for _, e := range bus.Events() {
		if e.Kind != obs.NetJitter {
			continue
		}
		late += e.A
		dup += e.B
		skipped += e.C
	}
	if late != float64(jb.Late()) || dup != float64(jb.Duplicates()) || skipped != float64(jb.Skipped()) {
		t.Fatalf("event sums late=%g dup=%g skipped=%g, counters late=%d dup=%d skipped=%d",
			late, dup, skipped, jb.Late(), jb.Duplicates(), jb.Skipped())
	}
	if skipped != 2 {
		t.Fatalf("skipped sum = %g, want 2 (sequences 3 and 4)", skipped)
	}
}

// TestTransportProbeEmitsReports checks each accepted reverse report
// emits one net.report event carrying its sequence, the gap since the
// previous accepted report, and the post-ack in-flight estimate —
// while rejected (stale) reports emit nothing.
func TestTransportProbeEmitsReports(t *testing.T) {
	bus := obs.NewBus()
	clk, tr, _ := reportTransport()
	tr.SetProbe(bus.Probe(0))
	for i := int64(0); i < 10; i++ {
		clk.Schedule(time.Duration(i)*time.Millisecond, func() { sendMedia(tr, i) })
	}
	report := func(d time.Duration, seq uint32, acked int) {
		clk.Schedule(d, func() {
			rep := Report{Seq: seq, SentAt: d,
				CumBytes: uint64(acked * wireBytes), CumPackets: uint64(acked),
				HighestSeq: int64(acked) - 1}
			tr.HandleDatagram(rep.AppendTo(nil))
		})
	}
	report(30*time.Millisecond, 1, 4)
	report(70*time.Millisecond, 2, 9)
	report(80*time.Millisecond, 2, 9) // stale duplicate: dropped, no event
	clk.Run(200 * time.Millisecond)

	var reports []obs.Event
	for _, e := range bus.Events() {
		if e.Kind == obs.NetReport {
			reports = append(reports, e)
		}
	}
	if len(reports) != 2 {
		t.Fatalf("net.report events = %d, want 2 (stale report must not emit)", len(reports))
	}
	first, second := reports[0], reports[1]
	if first.A != 1 || first.B != 0 {
		t.Fatalf("first report: seq=%g gap=%g, want seq=1 gap=0", first.A, first.B)
	}
	if second.A != 2 || second.B != 0.04 {
		t.Fatalf("second report: seq=%g gap=%g, want seq=2 gap=0.04", second.A, second.B)
	}
	if want := float64(6 * wireBytes); first.C != want {
		t.Fatalf("first report in-flight %g, want %g", first.C, want)
	}
	if want := float64(4 * wireBytes * 8); first.D != want {
		t.Fatalf("first report acked bits %g, want %g", first.D, want)
	}
	// The gap histogram (net.report field 1) feeds the live summary.
	if got := bus.Count(obs.NetReport); got != 2 {
		t.Fatalf("registry count %d, want 2", got)
	}
}
