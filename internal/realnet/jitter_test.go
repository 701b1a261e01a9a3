package realnet

import (
	"testing"
	"time"

	"poi360/internal/rtp"
	"poi360/internal/simclock"
)

// hdr builds a minimal wire header with the given transport sequence.
func hdr(seq int64) *rtp.WireHeader {
	return &rtp.WireHeader{Seq: seq, Count: 1, Marker: true}
}

type jbHarness struct {
	clk  *simclock.Clock
	jb   *JitterBuffer
	seqs []int64
	gaps []time.Duration // receiver-clock release delay per packet
}

func newJBHarness(t *testing.T, hold time.Duration) *jbHarness {
	t.Helper()
	h := &jbHarness{clk: simclock.New()}
	h.jb = NewJitterBuffer(h.clk, hold, func(w *rtp.WireHeader, arrived time.Duration) {
		h.seqs = append(h.seqs, w.Seq)
		h.gaps = append(h.gaps, h.clk.Now()-arrived)
	})
	return h
}

func (h *jbHarness) at(d time.Duration, seq int64) {
	h.clk.Schedule(d, func() { h.jb.Push(hdr(seq)) })
}

func TestJitterInOrderZeroDelay(t *testing.T) {
	h := newJBHarness(t, 30*time.Millisecond)
	for i := int64(0); i < 5; i++ {
		h.at(time.Duration(i)*time.Millisecond, i)
	}
	h.clk.Run(time.Second)
	if want := []int64{0, 1, 2, 3, 4}; !equalSeqs(h.seqs, want) {
		t.Fatalf("released %v, want %v", h.seqs, want)
	}
	for i, g := range h.gaps {
		if g != 0 {
			t.Errorf("packet %d held %v, want immediate release", i, g)
		}
	}
}

func TestJitterReorderWithinHold(t *testing.T) {
	h := newJBHarness(t, 30*time.Millisecond)
	h.at(0, 0)
	h.at(1*time.Millisecond, 2) // ahead of its turn
	h.at(5*time.Millisecond, 1) // gap fills inside the hold
	h.clk.Run(time.Second)
	if want := []int64{0, 1, 2}; !equalSeqs(h.seqs, want) {
		t.Fatalf("released %v, want %v", h.seqs, want)
	}
	if h.jb.Skipped() != 0 {
		t.Errorf("Skipped() = %d, want 0", h.jb.Skipped())
	}
	// Packet 2 waited from t=1ms until packet 1 released it at t=5ms.
	if h.gaps[2] != 4*time.Millisecond {
		t.Errorf("packet 2 held %v, want 4ms", h.gaps[2])
	}
}

func TestJitterGapExpiresAfterHold(t *testing.T) {
	const hold = 30 * time.Millisecond
	h := newJBHarness(t, hold)
	h.at(0, 0)
	h.at(2*time.Millisecond, 3) // 1 and 2 never arrive
	h.clk.Run(time.Second)
	if want := []int64{0, 3}; !equalSeqs(h.seqs, want) {
		t.Fatalf("released %v, want %v", h.seqs, want)
	}
	if h.jb.Skipped() != 2 {
		t.Errorf("Skipped() = %d, want 2", h.jb.Skipped())
	}
	if h.gaps[1] != hold {
		t.Errorf("packet 3 held %v, want the full hold %v", h.gaps[1], hold)
	}
}

func TestJitterDuplicateAndLate(t *testing.T) {
	h := newJBHarness(t, 30*time.Millisecond)
	h.at(0, 0)
	h.at(1*time.Millisecond, 2)
	h.at(2*time.Millisecond, 2) // duplicate of a buffered sequence
	h.at(3*time.Millisecond, 1)
	h.at(10*time.Millisecond, 0) // duplicate of a released sequence
	h.clk.Run(time.Second)
	if want := []int64{0, 1, 2}; !equalSeqs(h.seqs, want) {
		t.Fatalf("released %v, want %v", h.seqs, want)
	}
	if h.jb.Duplicates() != 1 {
		t.Errorf("Duplicates() = %d, want 1", h.jb.Duplicates())
	}
	if h.jb.Late() != 1 {
		t.Errorf("Late() = %d, want 1", h.jb.Late())
	}
}

func TestJitterDeepReorderDrainsInOrder(t *testing.T) {
	h := newJBHarness(t, 50*time.Millisecond)
	// Sequences 0..9 arrive fully reversed within 10 ms.
	for i := int64(0); i < 10; i++ {
		h.at(time.Duration(i)*time.Millisecond, 9-i)
	}
	h.clk.Run(time.Second)
	if h.seqs[0] != 9 {
		// First arrival locks the stream: 9 releases immediately and the
		// earlier sequences are late by policy.
		t.Fatalf("first release %d, want 9 (stream locks to first arrival)", h.seqs[0])
	}
	if h.jb.Late() != 9 {
		t.Errorf("Late() = %d, want 9", h.jb.Late())
	}
}

func TestJitterStartMidStream(t *testing.T) {
	h := newJBHarness(t, 30*time.Millisecond)
	// Joining an in-progress stream: first seen sequence becomes the floor.
	h.at(0, 100)
	h.at(1*time.Millisecond, 101)
	h.clk.Run(time.Second)
	if want := []int64{100, 101}; !equalSeqs(h.seqs, want) {
		t.Fatalf("released %v, want %v", h.seqs, want)
	}
	if h.jb.Skipped() != 0 {
		t.Errorf("Skipped() = %d, want 0 (no gap before the lock)", h.jb.Skipped())
	}
}

func equalSeqs(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
