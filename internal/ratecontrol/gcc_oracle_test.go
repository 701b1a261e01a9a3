package ratecontrol

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// compactingGCC is GCCReceiver as it was before the frame window became a
// ring: each column a 2×gccWindow array indexed by [fstart, fend), slid
// back to the front (with rskip rebased) when an append would run off the
// end. Telemetry is left out; everything else is the same controller.
// TestGCCWindowMatchesCompactingReference holds the ring to it.
type compactingGCC struct {
	cfg GCCConfig

	farr         []time.Duration
	fbits        []float64
	fx, fy       []float64
	fstart, fend int
	rskip        int

	tsx, tsy, tsxx, tsxy float64

	smoothed     float64
	haveSmoothed bool

	threshold    float64
	overuseSince time.Duration
	inOveruse    bool

	state      rateState
	rate       float64
	lastUpdate time.Duration
	usage      BandwidthUsage

	seqs    []seqObs
	seqHead int
}

func newCompactingGCC(cfg GCCConfig) *compactingGCC {
	return &compactingGCC{
		cfg:       cfg,
		farr:      make([]time.Duration, 2*gccWindow),
		fbits:     make([]float64, 2*gccWindow),
		fx:        make([]float64, 2*gccWindow),
		fy:        make([]float64, 2*gccWindow),
		threshold: gccInitialThreshold,
		state:     stateIncrease,
		rate:      cfg.InitialRate,
	}
}

func (g *compactingGCC) OnFrame(arrival, delay time.Duration, bits float64) {
	d := float64(delay) / float64(time.Millisecond)
	if !g.haveSmoothed {
		g.smoothed = d
		g.haveSmoothed = true
	} else {
		g.smoothed += 0.15 * (d - g.smoothed)
	}
	smoothedDelay := time.Duration(g.smoothed * float64(time.Millisecond))
	if g.fend == len(g.farr) {
		n := copy(g.farr, g.farr[g.fstart:g.fend])
		copy(g.fbits, g.fbits[g.fstart:g.fend])
		copy(g.fx, g.fx[g.fstart:g.fend])
		copy(g.fy, g.fy[g.fstart:g.fend])
		if g.rskip > g.fstart {
			g.rskip -= g.fstart
		} else {
			g.rskip = 0
		}
		g.fstart, g.fend = 0, n
	}
	x := arrival.Seconds()
	y := float64(smoothedDelay.Milliseconds())
	g.farr[g.fend] = arrival
	g.fbits[g.fend] = bits
	g.fx[g.fend] = x
	g.fy[g.fend] = y
	g.fend++
	if g.cfg.IncrementalTrendline {
		g.tsx += x
		g.tsy += y
		g.tsxx += x * x
		g.tsxy += x * y
		if g.fend-g.fstart > gccWindow {
			ex, ey := g.fx[g.fstart], g.fy[g.fstart]
			g.tsx -= ex
			g.tsy -= ey
			g.tsxx -= ex * ex
			g.tsxy -= ex * ey
			g.fstart++
		}
	} else if g.fend-g.fstart > gccWindow {
		g.fstart++
	}
	if arrival >= gccWarmup {
		g.detect(arrival)
	}
}

func (g *compactingGCC) OnPacket(arrival, delay time.Duration, bits float64, seq int64) {
	g.OnFrame(arrival, delay, bits)
	if g.seqHead > 0 && len(g.seqs) == cap(g.seqs) {
		g.seqs = g.seqs[:copy(g.seqs, g.seqs[g.seqHead:])]
		g.seqHead = 0
	}
	g.seqs = append(g.seqs, seqObs{arrival: arrival, seq: seq})
	for arrival-g.seqs[g.seqHead].arrival > gccRateWindow {
		g.seqHead++
	}
}

func (g *compactingGCC) LossRatio() float64 {
	win := g.seqs[g.seqHead:]
	if len(win) < 2 {
		return 0
	}
	span := win[len(win)-1].seq - win[0].seq + 1
	if span <= 0 {
		return 0
	}
	lost := span - int64(len(win))
	if lost <= 0 {
		return 0
	}
	return float64(lost) / float64(span)
}

func (g *compactingGCC) slope() float64 {
	n := g.fend - g.fstart
	if n < 3 {
		return 0
	}
	var sx, sy, sxx, sxy float64
	if g.cfg.IncrementalTrendline {
		sx, sy, sxx, sxy = g.tsx, g.tsy, g.tsxx, g.tsxy
	} else {
		fx, fy := g.fx[g.fstart:g.fend], g.fy[g.fstart:g.fend]
		for i, x := range fx {
			y := fy[i]
			sx += x
			sy += y
			sxx += x * x
			sxy += x * y
		}
	}
	fn := float64(n)
	den := fn*sxx - sx*sx
	if den <= 1e-12 {
		return 0
	}
	return (fn*sxy - sx*sy) / den
}

func (g *compactingGCC) detect(now time.Duration) {
	s := g.slope()
	abs := math.Abs(s)
	k := 0.02
	if abs < g.threshold {
		k = 0.002
	}
	g.threshold += k * (abs - g.threshold)
	g.threshold = math.Max(70, math.Min(600, g.threshold))
	switch {
	case s > g.threshold:
		if !g.inOveruse {
			g.inOveruse = true
			g.overuseSince = now
		}
		if now-g.overuseSince >= gccOveruseTime {
			g.usage = Overuse
		}
	case s < -g.threshold:
		g.inOveruse = false
		g.usage = Underuse
	default:
		g.inOveruse = false
		g.usage = Normal
	}
}

func (g *compactingGCC) ReceivedRate(now time.Duration) float64 {
	cutoff := now - gccRateWindow
	i, n := g.fstart, g.fend
	if g.rskip > i {
		i = g.rskip
	}
	for i < n && g.farr[i] < cutoff {
		i++
	}
	g.rskip = i
	var bits float64
	for ; i < n; i++ {
		if now-g.farr[i] <= gccRateWindow {
			bits += g.fbits[i]
		}
	}
	return bits / gccRateWindow.Seconds()
}

func (g *compactingGCC) Update(now time.Duration) float64 {
	elapsed := now - g.lastUpdate
	if g.lastUpdate == 0 {
		elapsed = 0
	}
	g.lastUpdate = now
	switch g.usage {
	case Overuse:
		g.state = stateDecrease
	case Underuse:
		g.state = stateHold
	default:
		if g.state == stateDecrease {
			g.state = stateHold
		} else {
			g.state = stateIncrease
		}
	}
	switch g.state {
	case stateDecrease:
		recv := g.ReceivedRate(now)
		target := g.rate * gccBeta
		if recv > 0 {
			target = math.Min(gccBeta*recv, g.rate)
		}
		g.rate = target
		g.usage = Normal
		g.inOveruse = false
		g.fend = g.fstart
		g.rskip = g.fstart
		g.tsx, g.tsy, g.tsxx, g.tsxy = 0, 0, 0, 0
	case stateIncrease:
		if elapsed > 0 {
			g.rate *= math.Pow(gccIncreasePerSec, elapsed.Seconds())
		}
		if recv := g.ReceivedRate(now); recv > 0 {
			g.rate = math.Min(g.rate, 1.5*recv+20e3)
		}
	}
	if loss := g.LossRatio(); loss > 0.10 {
		g.rate *= 1 - 0.5*loss
	}
	g.rate = math.Max(GCCMinRate, math.Min(GCCMaxRate, g.rate))
	return g.rate
}

// TestGCCWindowMatchesCompactingReference drives the ring-window receiver
// and the compacting reference with the same seeded tapes, in both
// trendline modes, and compares every output exactly at every step. A tape
// is 5 000 frames, and the ring wraps 20–30 times in each. It mixes frames and
// packets (with sequence gaps), runs of rising and falling delay (real
// overuse and underuse), arrivals that step back in time, and Updates at a
// feedback cadence, some of them forced decreases — each of which empties
// the window at an arbitrary ring row.
func TestGCCWindowMatchesCompactingReference(t *testing.T) {
	for _, incremental := range []bool{false, true} {
		for seed := int64(1); seed <= 8; seed++ {
			cfg := DefaultGCCConfig()
			cfg.IncrementalTrendline = incremental
			got, err := NewGCCReceiver(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ref := newCompactingGCC(cfg)
			rng := rand.New(rand.NewSource(seed))
			now, seq := time.Duration(0), int64(0)
			delay, ramp := 80*time.Millisecond, time.Duration(0)
			decreases := 0
			for i := 0; i < 5000; i++ {
				switch d := rng.Intn(100); {
				case d < 3: // an arrival that steps back in time
					now -= time.Duration(1+rng.Intn(20)) * time.Millisecond
				case d < 5: // an idle gap longer than the rate window
					now += gccRateWindow + time.Duration(rng.Intn(500))*time.Millisecond
				default:
					now += time.Duration(20+rng.Intn(30)) * time.Millisecond
				}
				if rng.Intn(60) == 0 { // a new delay trend: rising, falling or flat
					ramp = time.Duration(rng.Intn(31)-15) * time.Millisecond
				}
				delay = max(delay+ramp+time.Duration(rng.Intn(11)-5)*time.Millisecond, 0)
				bits := float64(1000 + rng.Intn(60000))
				if rng.Intn(2) == 0 {
					got.OnFrame(now, delay, bits)
					ref.OnFrame(now, delay, bits)
				} else {
					seq += 1 + int64(rng.Intn(4)/3)*int64(1+rng.Intn(6)) // gaps
					got.OnPacket(now, delay, bits, seq)
					ref.OnPacket(now, delay, bits, seq)
				}
				if g, w := got.slope(), ref.slope(); g != w {
					t.Fatalf("incremental=%v seed %d frame %d: slope %v, reference %v", incremental, seed, i, g, w)
				}
				if g, w := got.ReceivedRate(now), ref.ReceivedRate(now); g != w {
					t.Fatalf("incremental=%v seed %d frame %d: ReceivedRate %v, reference %v", incremental, seed, i, g, w)
				}
				if g, w := got.LossRatio(), ref.LossRatio(); g != w {
					t.Fatalf("incremental=%v seed %d frame %d: LossRatio %v, reference %v", incremental, seed, i, g, w)
				}
				if i%3 != 0 {
					continue
				}
				if rng.Intn(150) == 0 {
					got.usage, ref.usage = Overuse, Overuse
				}
				if ref.usage == Overuse {
					decreases++
				}
				if g, w := got.Update(now), ref.Update(now); g != w {
					t.Fatalf("incremental=%v seed %d frame %d: Update %v, reference %v", incremental, seed, i, g, w)
				}
				if got.fend-got.fstart != ref.fend-ref.fstart {
					t.Fatalf("incremental=%v seed %d frame %d: window of %d frames, reference %d",
						incremental, seed, i, got.fend-got.fstart, ref.fend-ref.fstart)
				}
			}
			wraps := got.fend / gccRing
			t.Logf("incremental=%v seed %d: %d decreases, %d ring wraps", incremental, seed, decreases, wraps)
			if decreases < 20 || wraps < 20 {
				t.Fatalf("incremental=%v seed %d: %d decreases, %d ring wraps; the tape is too tame",
					incremental, seed, decreases, wraps)
			}
		}
	}
}
