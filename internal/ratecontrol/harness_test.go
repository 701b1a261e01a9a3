package ratecontrol

// The rate controllers' differential harness. A seeded tape of GCC
// observations (gccOp: frames, packets with sequence gaps, delay trends,
// arrivals that step back, Updates, forced decreases) is fed to the
// production receiver and to a reference — the window as a compacting
// array (compactingGCC), the loss window as a copying slice (copyingGCC),
// or the trendline rescanned (the scanning GCCReceiver) — observation by
// observation (observe, updateBoth), each step compared; the scalar clamps are
// swept over one probe set (probes).

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"
)

// gccOp is one observation of a tape — a frame when seq is 0, else a
// packet — then, when update is set, an Update at the same instant, after
// forcing the detector to overuse when force is set.
type gccOp struct {
	at, delay     time.Duration
	bits          float64
	seq           int64
	update, force bool
}

// gccSide is a receiver a tape drives.
type gccSide interface {
	OnFrame(arrival, delay time.Duration, bits float64)
	OnPacket(arrival, delay time.Duration, bits float64, seq int64)
	Update(now time.Duration) float64
	ReceivedRate(now time.Duration) float64
	LossRatio() float64
	slope() float64
	overuse()
}

func (g *GCCReceiver) overuse()   { g.usage = Overuse }
func (g *compactingGCC) overuse() { g.usage = Overuse }

func (op gccOp) observe(sides ...gccSide) {
	for _, s := range sides {
		if op.seq == 0 {
			s.OnFrame(op.at, op.delay, op.bits)
		} else {
			s.OnPacket(op.at, op.delay, op.bits, op.seq)
		}
	}
}

// updateBoth runs the op's Update on a and b and fails t unless their rates
// agree; it reports whether there was one.
func (op gccOp) updateBoth(t *testing.T, what string, a, b gccSide) bool {
	t.Helper()
	if !op.update {
		return false
	}
	if op.force {
		a.overuse()
		b.overuse()
	}
	if ra, rb := a.Update(op.at), b.Update(op.at); ra != rb {
		t.Fatalf("%s: Update %v, reference %v", what, ra, rb)
	}
	return true
}

func newGCC(t testing.TB, incremental bool) *GCCReceiver {
	t.Helper()
	cfg := DefaultGCCConfig()
	cfg.IncrementalTrendline = incremental
	g, err := NewGCCReceiver(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

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
	off                  int // the ring's frame counter of array row 0, for the re-sum

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
		g.off += g.fstart
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
		if (g.off+g.fend)%gccRing == 0 {
			g.tsx, g.tsy, g.tsxx, g.tsxy = 0, 0, 0, 0
			for i := g.fstart; i < g.fend; i++ {
				x, y := g.fx[i], g.fy[i]
				g.tsx += x
				g.tsy += y
				g.tsxx += x * x
				g.tsxy += x * y
			}
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

// windowTape is 5 000 observations mixing frames and packets (with
// sequence gaps), runs of rising and falling delay (real overuse and
// underuse), arrivals that step back in time and idle gaps longer than the
// rate window, with an Update every third, one in 150 of them forced to a
// decrease, which empties the window at an arbitrary ring row.
func windowTape(seed int64) []gccOp {
	rng := rand.New(rand.NewSource(seed))
	now, seq := time.Duration(0), int64(0)
	delay, ramp := 80*time.Millisecond, time.Duration(0)
	ops := make([]gccOp, 5000)
	for i := range ops {
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
		op := gccOp{at: now, delay: delay, bits: float64(1000 + rng.Intn(60000))}
		if rng.Intn(2) != 0 {
			seq += 1 + int64(rng.Intn(4)/3)*int64(1+rng.Intn(6)) // gaps
			op.seq = seq
		}
		if op.update = i%3 == 0; op.update {
			op.force = rng.Intn(150) == 0
		}
		ops[i] = op
	}
	return ops
}

// TestGCCWindowMatchesCompactingReference drives the ring-window receiver
// and the compacting reference with eight window tapes, in both trendline
// modes, and compares slope, received rate and loss ratio after every
// observation, and the rate and the window's length after every Update.
// The ring wraps 20–30 times in each tape.
func TestGCCWindowMatchesCompactingReference(t *testing.T) {
	for _, incremental := range []bool{false, true} {
		for seed := int64(1); seed <= 8; seed++ {
			got := newGCC(t, incremental)
			ref := newCompactingGCC(got.cfg)
			decreases := 0
			for i, op := range windowTape(seed) {
				what := fmt.Sprintf("incremental=%v seed %d op %d", incremental, seed, i)
				op.observe(got, ref)
				if g, w := got.slope(), ref.slope(); g != w {
					t.Fatalf("%s: slope %v, reference %v", what, g, w)
				}
				if g, w := got.ReceivedRate(op.at), ref.ReceivedRate(op.at); g != w {
					t.Fatalf("%s: ReceivedRate %v, reference %v", what, g, w)
				}
				if g, w := got.LossRatio(), ref.LossRatio(); g != w {
					t.Fatalf("%s: LossRatio %v, reference %v", what, g, w)
				}
				if op.force || ref.usage == Overuse && op.update {
					decreases++
				}
				if op.updateBoth(t, what, got, ref) && got.fend-got.fstart != ref.fend-ref.fstart {
					t.Fatalf("%s: window of %d frames, reference %d", what, got.fend-got.fstart, ref.fend-ref.fstart)
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

// trendTape draws a one-way delay that follows a trend of −300…300 ms/s,
// redrawn every few seconds, with ±3 ms of jitter, inside [20, 800] ms,
// until end: as a live call, one packet every 10 ms (±2 ms) and no
// Update; or as frames at 30 frames/s, one in 200 followed by a forced
// decrease.
func trendTape(seed int64, live bool, end time.Duration) func(yield func(gccOp)) {
	return func(yield func(gccOp)) {
		rng := rand.New(rand.NewSource(seed))
		base, rate, until := 80.0, 0.0, time.Duration(0)
		var seq int64
		for now := time.Duration(0); now < end; {
			step := 33 * time.Millisecond
			if live {
				step = time.Duration(8000+rng.Intn(4001)) * time.Microsecond
				now += step
			}
			if now >= until {
				rate = float64(rng.Intn(601) - 300)
				until = now + time.Duration(1+rng.Intn(8))*time.Second
			}
			base = min(max(base+rate*step.Seconds(), 20), 800)
			op := gccOp{at: now, delay: time.Duration((base + 6*rng.Float64() - 3) * float64(time.Millisecond)), bits: 40e3}
			if live {
				seq++
				op.bits, op.seq = 9600, seq
			} else {
				op.update = rng.Intn(200) == 0
				op.force = op.update
				now += step
			}
			yield(op)
		}
	}
}

// TestIncrementalTrendlineTracksScan bounds the versioned change of the
// default trendline (DESIGN §18): the O(1) running sums, whose summation
// order differs from the scan's, must fit the slope within 1e-2 ms/s of
// the scanned fit over the same window, against a detector threshold that
// never drops below 70 ms/s. Two kinds of tape:
//   - a live call for 6 simulated hours (1 hour under -short), where no
//     decrease ever resets the sums and their rounding error can only
//     accumulate while the arrival seconds, and with them x and x², grow;
//   - four per-frame tapes of 30 minutes, where a forced decrease empties
//     the window at random frames and the sums restart from zero.
//
// The usage verdicts on which the two receivers disagree are logged.
func TestIncrementalTrendlineTracksScan(t *testing.T) {
	const bound = 1e-2 // ms/s
	hours := 6
	if testing.Short() {
		hours = 1
	}
	tapes := map[string]func(func(gccOp)){fmt.Sprintf("live call, %d h", hours): trendTape(1, true, time.Duration(hours)*time.Hour)}
	for seed := int64(1); seed <= 4; seed++ {
		tapes[fmt.Sprintf("frames, seed %d", seed)] = trendTape(seed, false, 30*time.Minute)
	}
	for name, tape := range tapes {
		inc, scan := newGCC(t, true), newGCC(t, false)
		var maxGap, maxSlope float64
		verdicts, disagree, decreases := 0, 0, 0
		tape(func(op gccOp) {
			op.observe(inc, scan)
			s := scan.slope()
			maxGap = max(maxGap, math.Abs(inc.slope()-s))
			maxSlope = max(maxSlope, math.Abs(s))
			if op.at >= gccWarmup {
				verdicts++
				if inc.usage != scan.usage {
					disagree++
				}
			}
			if op.update {
				inc.overuse()
				scan.overuse()
				inc.Update(op.at)
				scan.Update(op.at)
				decreases++
			}
		})
		t.Logf("%s, %d decreases: max |Δslope| %.3g ms/s (max |slope| %.0f ms/s), %d of %d verdicts disagree",
			name, decreases, maxGap, maxSlope, disagree, verdicts)
		if maxGap > bound {
			t.Errorf("%s: incremental slope strays %.3g ms/s from the scanned fit, bound %g", name, maxGap, bound)
		}
		if maxSlope < 250 {
			t.Errorf("%s: slopes stay below %.0f ms/s; the tape is too tame", name, maxSlope)
		}
	}
}

// copyingLossWindow is GCCReceiver's loss window as it was before the head
// index: append, scan the expired prefix from the front, slide the rest
// home on every packet. TestGCCLossWindowMatchesCopyingReference holds the
// production window to it.
type copyingLossWindow struct {
	seqs   []seqObs
	window time.Duration
}

func (w *copyingLossWindow) add(arrival time.Duration, seq int64) {
	w.seqs = append(w.seqs, seqObs{arrival: arrival, seq: seq})
	cut := 0
	for cut < len(w.seqs) && arrival-w.seqs[cut].arrival > w.window {
		cut++
	}
	if cut > 0 {
		w.seqs = w.seqs[:copy(w.seqs, w.seqs[cut:])]
	}
}

// copyingGCC is the same controller reading the copying loss window.
type copyingGCC struct {
	*GCCReceiver
	win copyingLossWindow
}

func (c *copyingGCC) OnPacket(arrival, delay time.Duration, bits float64, seq int64) {
	c.OnFrame(arrival, delay, bits)
	c.win.add(arrival, seq)
	c.seqs.Reset()
	for _, o := range c.win.seqs {
		c.seqs.Push(o)
	}
}

// lossTape draws packet arrivals: steady pacing, same-instant bursts, a
// dense run longer than the rate window, idle gaps beyond it, gaps that put
// the oldest entry exactly on the window boundary, and lossy or reordered
// sequence numbers.
func lossTape(rng *rand.Rand, window time.Duration, n int) (arrivals []time.Duration, seqs []int64) {
	now, seq := time.Duration(0), int64(0)
	for len(arrivals) < n {
		run := 1
		switch d := rng.Intn(40); {
		case d == 0:
			now += window + time.Duration(rng.Intn(3))*time.Millisecond // everything expires
		case d == 1 && len(arrivals) > 0:
			// The oldest entry still inside the window lands exactly on its
			// edge (kept: the predicate is a strict >).
			i := len(arrivals) - 1
			for i > 0 && now-arrivals[i-1] <= window {
				i--
			}
			now = max(now, arrivals[i]+window)
		case d == 2:
			run = 1200 + rng.Intn(600) // a dense run outlasting the window
		case d < 8:
			// same instant
		default:
			now += time.Duration(1+rng.Intn(12)) * time.Millisecond
		}
		for ; run > 0; run-- {
			switch d := rng.Intn(30); {
			case d == 0:
				seq += 2 + rng.Int63n(5) // loss
			case d == 1:
				seq-- // reordered
			default:
				seq++
			}
			arrivals = append(arrivals, now)
			seqs = append(seqs, seq)
			if run > 1 {
				now += time.Millisecond
			}
		}
	}
	return arrivals, seqs
}

// TestGCCLossWindowMatchesCopyingReference holds the loss window to the
// copying one on twelve loss tapes of 6 000 packets: the same entries, loss
// ratio and rate after every packet, and a ring that grows only when full
// and never past a doubling of the largest live window.
func TestGCCLossWindowMatchesCopyingReference(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		got, ref := newGCC(t, true), &copyingGCC{newGCC(t, true), copyingLossWindow{window: gccRateWindow}}
		arrivals, seqs := lossTape(rng, gccRateWindow, 6000)
		peak := 0
		for i, at := range arrivals {
			op := gccOp{at: at, delay: time.Duration(rng.Intn(40)) * time.Millisecond, bits: 9600, seq: seqs[i], update: true}
			what := fmt.Sprintf("seed %d pkt %d @%v", seed, i, at)
			length, capacity := got.seqs.Len(), got.seqs.Cap()
			op.observe(got, ref)
			if got.seqs.Cap() != capacity && length != capacity {
				t.Fatalf("%s: seqs grew %d -> %d holding %d (room left)", what, capacity, got.seqs.Cap(), length)
			}
			peak = max(peak, len(ref.win.seqs))
			live := make([]seqObs, got.seqs.Len())
			for k := range live {
				live[k] = *got.seqs.At(k)
			}
			firstDiff(t, what+": window entry", live, ref.win.seqs)
			if g, w := got.LossRatio(), ref.LossRatio(); g != w {
				t.Fatalf("%s: LossRatio %v, reference %v", what, g, w)
			}
			op.updateBoth(t, what, got, ref)
		}
		if c := got.seqs.Cap(); c > 2*peak+4 {
			t.Fatalf("seed %d: seqs holds %d for a peak window of %d", seed, c, peak)
		}
	}
}

// firstDiff fails t at the first element where got and want differ, or
// on their lengths.
func firstDiff[T comparable](t testing.TB, what string, got, want []T) {
	t.Helper()
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			t.Fatalf("%s %d:\n got %+v\nwant %+v", what, i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d of them, want %d", what, len(got), len(want))
	}
}

// sameFloat reports whether got and want are the same float64, counting
// any two NaNs as the same: only a NaN's payload may differ.
func sameFloat(got, want float64) bool {
	return math.Float64bits(got) == math.Float64bits(want) || math.IsNaN(got) && math.IsNaN(want)
}

// probes sweeps each bound and its neighbours, ±0, ±Inf, NaN, the
// subnormal and normal extremes, and n seeded random values of both signs
// and any magnitude.
func probes(rng *rand.Rand, bounds []float64, n int) []float64 {
	xs := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), math.SmallestNonzeroFloat64,
		-math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64}
	for _, b := range bounds {
		xs = append(xs, b, math.Nextafter(b, math.Inf(1)), math.Nextafter(b, math.Inf(-1)), -b)
	}
	for range n {
		xs = append(xs, rng.NormFloat64()*math.Pow(10, float64(rng.Intn(16))))
	}
	return xs
}
