package realnet

import (
	"encoding/binary"
	"testing"
	"time"

	"poi360/internal/ratecontrol"
	"poi360/internal/rtp"
	"poi360/internal/simclock"
)

// inOrderFeed is a started Receiver plus one full-MTU datagram of its
// current frame whose transport sequence next() advances in place, so
// every HandleDatagram is the steady-state packet: in order, nothing held,
// no per-frame work.
type inOrderFeed struct {
	rx        *Receiver
	wire      []byte
	seq       int64
	delivered int64
}

func newInOrderFeed() *inOrderFeed {
	f := &inOrderFeed{}
	f.rx = NewReceiver(simclock.New(), ReceiverConfig{
		Deliver: func(pkt *rtp.Packet, _ time.Duration) { f.delivered += int64(pkt.Bytes) },
	})
	pkt := mediaPacket(0, 0)
	pkt.Count = 2 // never the frame's last packet: the marker stays clear
	f.wire = pkt.AppendWire(nil, 1)
	f.rx.HandleDatagram(f.wire) // locks the stream and builds the frame record
	return f
}

func (f *inOrderFeed) next() {
	f.seq++
	binary.BigEndian.PutUint16(f.wire[2:], uint16(f.seq))
	binary.BigEndian.PutUint64(f.wire[16:], uint64(f.seq))
	f.rx.HandleDatagram(f.wire)
}

// TestPerfLivePacketPath pins the allocation contract of the live datagram
// path: in steady state neither end allocates per packet.
func TestPerfLivePacketPath(t *testing.T) {
	tr := NewTransport(simclock.New(), 1, func([]byte) error { return nil }, nil)
	pkt := mediaPacket(0, 0)
	if n := testing.AllocsPerRun(200, func() { tr.Send(pkt.Bytes, pkt) }); n != 0 {
		t.Errorf("Transport.Send on a warm scratch: %v allocs/op, want 0", n)
	}

	feed := newInOrderFeed()
	if n := testing.AllocsPerRun(200, feed.next); n != 0 {
		t.Errorf("in-order HandleDatagram of the current frame: %v allocs/op, want 0", n)
	}
	if st := feed.rx.Stats(); st.Packets != 202 || st.Late+st.Duplicates+st.ParseErrors != 0 || feed.delivered != 202*rtp.MTU {
		t.Fatalf("feed skewed: %+v, %d payload bytes delivered", st, feed.delivered)
	}

	gcc, err := ratecontrol.NewGCCReceiver(ratecontrol.DefaultGCCConfig())
	if err != nil {
		t.Fatal(err)
	}
	var at time.Duration
	seq := int64(0)
	onPacket := func() {
		at += time.Millisecond
		seq++
		gcc.OnPacket(at, 5*time.Millisecond, rtp.MTU*8, seq)
	}
	for i := 0; i < 4000; i++ { // four rate windows: the loss window has peaked
		onPacket()
	}
	if n := testing.AllocsPerRun(2000, onPacket); n != 0 {
		t.Errorf("GCCReceiver.OnPacket at steady state: %v allocs/op, want 0", n)
	}
}

// The per-packet cost of each end of the live path (DESIGN.md §16).
func BenchmarkReceiverInOrder(b *testing.B) {
	feed := newInOrderFeed()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		feed.next()
	}
}

func BenchmarkTransportSend(b *testing.B) {
	tr := NewTransport(simclock.New(), 1, func([]byte) error { return nil }, nil)
	pkt := mediaPacket(0, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Send(pkt.Bytes, pkt)
	}
}
