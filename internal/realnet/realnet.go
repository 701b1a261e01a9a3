// Package realnet is the real-transport backend behind the session seam:
// the same netsim.Transport surface the simulated cellular and wireline
// paths implement, carried over actual UDP sockets instead of scheduled
// in-memory events. The sender half (Transport) marshals media packets
// with the rtp wire codec and synthesizes the modem-diagnostic feed FBCC
// consumes from receiver reports; the receiver half (Receiver) validates
// SSRC, tracks sequence gaps, reorders through a time-based jitter buffer,
// and returns periodic reports over the reverse UDP channel.
//
// Everything event-driven is written against simclock.Scheduler, so every
// component runs deterministically on the simulated clock in tests and on
// simclock.Wall in a live session — the parity DESIGN.md §16 describes.
// Only Link touches sockets; its Pump goroutine re-injects datagrams into
// the scheduler, keeping all protocol state single-goroutine like the
// simulation.
package realnet

import (
	"errors"
	"fmt"
	"net"
	"sync"

	"poi360/internal/simclock"
)

// ErrNoPeer reports a Write before the peer address is known: the dialing
// side always knows it; the listening side learns it from the first
// datagram that arrives.
var ErrNoPeer = errors.New("realnet: no peer address yet")

// maxDatagram comfortably bounds one media packet: wire header + MTU
// payload, with headroom for future extension growth.
const maxDatagram = 2048

// Link is one endpoint's UDP socket plus its peer address. A Dial link
// (sender role) knows its peer up front; a Listen link (receiver role)
// locks onto the source address of the first datagram, so the sender can
// sit behind a NAT. Write and the peer bookkeeping are safe for concurrent
// use; protocol state stays on the scheduler goroutine via Pump.
type Link struct {
	conn *net.UDPConn

	mu    sync.Mutex
	peer  *net.UDPAddr
	learn bool        // listening side: adopt the first datagram's source
	free  []*datagram // read buffers Pump's handler has finished with
}

// datagram is one read buffer on its way from Pump to the handler and back.
type datagram struct {
	n   int
	buf [maxDatagram]byte
}

// Dial opens a sender-role link towards addr (host:port).
func Dial(addr string) (*Link, error) {
	peer, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("realnet: dial %s: %w", addr, err)
	}
	conn, err := net.ListenUDP("udp", nil)
	if err != nil {
		return nil, fmt.Errorf("realnet: dial %s: %w", addr, err)
	}
	return &Link{conn: conn, peer: peer}, nil
}

// Listen opens a receiver-role link on addr (host:port, port 0 for an
// ephemeral one — read the result from LocalAddr).
func Listen(addr string) (*Link, error) {
	local, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("realnet: listen %s: %w", addr, err)
	}
	conn, err := net.ListenUDP("udp", local)
	if err != nil {
		return nil, fmt.Errorf("realnet: listen %s: %w", addr, err)
	}
	return &Link{conn: conn, learn: true}, nil
}

// LocalAddr returns the bound socket address.
func (l *Link) LocalAddr() *net.UDPAddr { return l.conn.LocalAddr().(*net.UDPAddr) }

// Write sends one datagram to the peer. Before the listening side has
// learned its peer it returns ErrNoPeer (the first report simply waits for
// the first media packet).
func (l *Link) Write(b []byte) error {
	l.mu.Lock()
	peer := l.peer
	l.mu.Unlock()
	if peer == nil {
		return ErrNoPeer
	}
	_, err := l.conn.WriteToUDP(b, peer)
	return err
}

// Pump reads datagrams until the link closes, re-injecting each one into
// the scheduler as an immediate event so handle always runs on the
// scheduler goroutine — the same single-goroutine discipline the simulated
// transports get for free. It must be given a concurrency-safe scheduler
// (simclock.Wall); the simulated Clock is single-goroutine and tests feed
// handlers directly instead. Read buffers are recycled through the link's
// free list, so the slice handle receives is only valid during the call:
// a handler parses it into values (both HandleDatagram methods do) or
// copies what it keeps. Pump returns when the socket is closed.
func (l *Link) Pump(sched *simclock.Wall, handle func([]byte)) {
	deliver := func(arg any) {
		d := arg.(*datagram)
		handle(d.buf[:d.n])
		l.mu.Lock()
		l.free = append(l.free, d)
		l.mu.Unlock()
	}
	for {
		var d *datagram
		l.mu.Lock()
		if n := len(l.free); n > 0 {
			d, l.free = l.free[n-1], l.free[:n-1]
		}
		l.mu.Unlock()
		if d == nil {
			d = new(datagram)
		}
		n, addr, err := l.conn.ReadFromUDP(d.buf[:])
		if err != nil {
			return // closed (or unrecoverable): the session is over
		}
		if l.learn {
			l.mu.Lock()
			l.peer = addr
			l.mu.Unlock()
		}
		d.n = n
		sched.SchedulePayload(sched.Now(), deliver, d)
	}
}

// Close shuts the socket down, unblocking Pump.
func (l *Link) Close() error { return l.conn.Close() }
