package realnet

import (
	"runtime"
	"testing"
	"time"

	"poi360/internal/rtp"
	"poi360/internal/simclock"
	"poi360/internal/video"
)

// TestLoopbackEndToEnd runs the full live stack — two Wall clocks, two UDP
// sockets on loopback, pumps, the sender transport and the receive
// pipeline — for a fraction of a second of real time: media frames must
// reassemble at the receiver and reports must flow back and drive the
// sender's synthesized diagnostics. Run with -race this is the
// concurrency acceptance test for the wallclock + realnet pair.
func TestLoopbackEndToEnd(t *testing.T) {
	const ssrc = 0x706F6936

	// Receiver side.
	rxWall := simclock.NewWall()
	rxLink, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer rxLink.Close()
	var completed int64
	reasm := rtp.NewReassembler(rxWall, func(rtp.CompletedFrame) { completed++ })
	rx := NewReceiver(rxWall, ReceiverConfig{
		Hold:       10 * time.Millisecond,
		Deliver:    func(pkt *rtp.Packet, _ time.Duration) { reasm.OnPacket(*pkt) },
		SendReport: rxLink.Write,
	})
	go rxLink.Pump(rxWall, rx.HandleDatagram)

	// Sender side.
	txWall := simclock.NewWall()
	txLink, err := Dial(rxLink.LocalAddr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer txLink.Close()
	var reports int64
	tr := NewTransport(txWall, ssrc, txLink.Write, func(Report) { reports++ })
	go txLink.Pump(txWall, tr.HandleDatagram)

	// A 3-packet frame every 20 ms.
	frameSeq, seq := 0, int64(0)
	txWall.Ticker(20*time.Millisecond, func() {
		f := &video.EncodedFrame{Seq: frameSeq, Capture: txWall.Now(), Scale: 1}
		for i := 0; i < 3; i++ {
			pkt := &rtp.Packet{
				FrameSeq: frameSeq, Index: i, Count: 3, Bytes: rtp.MTU,
				Frame: f, SentAt: txWall.Now(), Seq: seq,
			}
			tr.Send(pkt.Bytes, pkt)
			seq++
		}
		frameSeq++
	})

	done := make(chan struct{})
	go func() {
		rxWall.Run(600 * time.Millisecond)
		close(done)
	}()
	txWall.Run(400 * time.Millisecond)
	<-done

	// Snapshot state on the (now stopped) scheduler goroutines' behalf.
	if completed < 5 {
		t.Errorf("receiver completed %d frames over 400ms of 50fps media, want >= 5", completed)
	}
	if reports < 3 {
		t.Errorf("sender accepted %d reports, want >= 3", reports)
	}
	if !tr.haveReport {
		t.Error("sender never saw a report")
	}
	st := rx.Stats()
	if st.SSRC != ssrc || st.Packets == 0 {
		t.Errorf("receiver stats %+v skewed", st)
	}
	if tr.WriteErrors() != 0 {
		t.Errorf("sender write errors: %d", tr.WriteErrors())
	}
}

// TestPumpRecyclesReadBuffers: the socket edge does not allocate a read
// buffer (and a closure) per datagram. A 1000-datagram burst over loopback,
// paced by a window well inside the socket buffer so nothing is dropped,
// must cost far less than one 2 KiB buffer each; what is left is net's
// source address and the wall clock's sleep timers.
func TestPumpRecyclesReadBuffers(t *testing.T) {
	const burst, window = 1000, 32
	wall := simclock.NewWall()
	rxLink, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer rxLink.Close()
	txLink, err := Dial(rxLink.LocalAddr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer txLink.Close()

	inflight := make(chan struct{}, window) // semaphore: datagrams written, not yet handled
	var handled, payload int
	go rxLink.Pump(wall, func(b []byte) {
		handled++
		payload += len(b)
		<-inflight
	})
	done := make(chan struct{})
	go func() {
		wall.Run(time.Minute)
		close(done)
	}()

	deadline := time.After(20 * time.Second) // one timer: per-send ones would be counted below
	acquire := func() {
		select {
		case inflight <- struct{}{}:
		case <-deadline:
			t.Fatal("loopback datagram lost or pump stalled")
		}
	}
	datagram := make([]byte, rtp.WireHeaderLen+rtp.MTU)
	send := func(n int) {
		for i := 0; i < n; i++ {
			acquire()
			if err := txLink.Write(datagram); err != nil {
				t.Fatalf("write: %v", err)
			}
		}
		for i := 0; i < window; i++ { // every slot ours: all handled
			acquire()
		}
		for i := 0; i < window; i++ {
			<-inflight
		}
	}
	send(2 * window) // warm the free list and the scheduler's arena
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	send(burst)
	runtime.ReadMemStats(&after)
	wall.Stop()
	<-done

	if want := 2*window + burst; handled != want || payload != want*len(datagram) {
		t.Fatalf("handled %d datagrams / %d bytes, want %d / %d", handled, payload, want, want*len(datagram))
	}
	perDatagram := (after.TotalAlloc - before.TotalAlloc) / burst
	t.Logf("%d B allocated per received datagram", perDatagram)
	if perDatagram >= 512 {
		t.Fatalf("%d B allocated per received datagram, want < 512 (a fresh read buffer is 2048)", perDatagram)
	}
}
